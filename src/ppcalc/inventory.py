"""Exhaustive enumeration of indecomposable modules over a finite prime field.

A quiver-built algebra, with or without relations, takes the members of
each dimension vector from the middle terms of the extensions of the
simples by sums of the members of smaller dimension, and walks no
matrix assignments.  An algebra given by structure constants walks every
assignment of matrices to a computed generating set of its basis.  Every
returned member is certified indecomposable and the list is pairwise
non-isomorphic, in a deterministic order.  verify_completeness checks an
inventory against a blind walk of every module up to a dimension, for
quiver algebras from arrow matrices with the relations checked on
products.
"""

from __future__ import annotations

import itertools
from functools import partial, reduce

import numpy as np

from .algebra import Algebra
from .linalg import Mat, Subspace, _product
from .modules import (
    FDModule,
    ModuleError,
    direct_sum_many,
    decompose,
    ext1,
    extension,
    indecomposability,
    _digits,
    _first_iso,
)

__all__ = [
    "Inventory",
    "BudgetExceeded",
    "enumerate_indecomposables",
    "sum_combos",
    "direct_sums_up_to",
    "verify_completeness",
]

_BATCH_LIMIT = 4096


class BudgetExceeded(ModuleError):
    pass


class Inventory:
    """Certified indecomposables of dimension <= cap, pairwise non-isomorphic.

    decided is the number of modules whose indecomposability the
    enumeration decided: middle terms of extensions for a quiver algebra,
    walk candidates for one given by structure constants.  assignments is
    the number of assignments the walk of a structure-constant algebra
    tries, which its budget bounds, and None for a quiver algebra, which
    walks none.  Both are None for an inventory not enumerated as such.
    """

    def __init__(self, algebra: Algebra, cap: int, members,
                 decided: int | None = None, assignments: int | None = None):
        self.algebra = algebra
        self.cap = cap
        self.members = list(members)
        self.decided = decided
        self.assignments = assignments

    def by_dim(self, d: int):
        return [m for m in self.members if m.dim == d]

    def up_to(self, cap: int) -> "Inventory":
        """The members of dimension <= cap, in order, as an inventory.

        enumerate_indecomposables takes dimensions 1..cap in order, so
        its members of dimension <= c do not depend on the cap: this is
        what enumerating at cap c returns.
        """
        if cap < 0:
            raise ValueError(f"inventory cap must be non-negative, got {cap}")
        if cap > self.cap:
            raise ValueError(f"cannot take cap {cap} from {self!r}")
        return Inventory(self.algebra, cap, [m for m in self.members if m.dim <= cap])

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        dims = [m.dim for m in self.members]
        return f"Inventory(cap {self.cap}, dims {dims})"


def _compositions(total: int, parts: int):
    """All tuples of non-negative ints of the given length summing to total, lexicographically."""
    return [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]


def _path_action(field, arrows, word):
    """The product, along a nonempty path, of its arrows' stacked matrices."""
    return reduce(partial(_product, field), [arrows[lab] for lab in word])


def _vector_candidates(algebra: Algebra, comp):
    """All modules of dimension vector comp, via arrow-matrix assignments.

    Assignments are numbered in base p with digit 0 fastest and taken in
    blocks of at most _BATCH_LIMIT, so memory does not grow with their
    number.  In a block each arrow is one (n, d, d) array; a path acts
    as the product of its arrows' arrays and a trivial path as its
    vertex's identity block.  The relations are sums of such products,
    and the actions are formed for the survivors only.
    """
    q, field = algebra.quiver, algebra.field
    p, d = field.p, sum(comp)
    offs = list(itertools.accumulate(comp, initial=0))
    vertex_of = np.repeat(np.arange(1, q.n_vertices + 1), comp)
    k_total = sum(comp[s - 1] * comp[t - 1] for s, t, _ in q.arrows)
    count = p**k_total
    for start in range(0, count, _BATCH_LIMIT):
        digits = _digits(start, min(count, start + _BATCH_LIMIT), p, k_total)
        n, pos = len(digits), 0
        arrows = {}
        for s, t, lab in q.arrows:
            r, c = comp[s - 1], comp[t - 1]
            arrows[lab] = np.zeros((n, d, d), dtype=np.int64)
            arrows[lab][:, offs[s - 1] : offs[s], offs[t - 1] : offs[t]] = (
                digits[:, pos : pos + r * c].reshape(n, r, c)
            )
            pos += r * c
        keep = np.ones(n, dtype=bool)
        for rel in q.relations:
            acc = sum(int(coeff) * _path_action(field, arrows, word) for coeff, word in rel)
            keep &= ~(acc % p).reshape(n, -1).any(axis=1)
        live = {lab: a[keep] for lab, a in arrows.items()}
        survivors = int(keep.sum())
        stacks = np.stack([
            _path_action(field, live, word)
            if word
            else np.broadcast_to(np.diag(vertex_of == src).astype(np.int64), (survivors, d, d))
            for src, word in algebra.paths
        ], axis=1).reshape(survivors, algebra.dim * d, d)
        for stack in stacks:
            yield FDModule(algebra, d, Mat.of_array(field, stack))


def _generating_data(algebra: Algebra):
    """Greedy generating subset of the basis, with evaluation recipes.

    Returns (generator basis indices, recipes, coords) where recipes[i]
    rebuilds the i-th spanning element from generator images and row b of
    the matrix coords expresses basis element b over the spanning elements.
    """
    field = algebra.field
    dim = algebra.dim
    vecs = [algebra.one]
    recipes = [("one",)]
    span = Subspace.from_vectors(field, dim, [algebra.one.to_rows()[0]])
    gens = []

    def saturate():
        nonlocal span
        changed = True
        while changed:
            changed = False
            for i in range(len(vecs)):
                for j in range(len(vecs)):
                    prod = algebra.multiply(vecs[i], vecs[j])
                    if not span.contains_vector(prod):
                        vecs.append(prod)
                        recipes.append(("mul", i, j))
                        span = span.sum_with(
                            Subspace.from_vectors(field, dim, prod)
                        )
                        changed = True

    saturate()
    for b in range(dim):
        bv = algebra.basis_element(b).coeffs
        if not span.contains_vector(bv):
            gens.append(b)
            vecs.append(bv)
            recipes.append(("gen", len(gens) - 1))
            span = span.sum_with(Subspace.from_vectors(field, dim, bv))
            saturate()
    coords = Mat.vstack(vecs).solve_left(Mat.identity(field, dim))
    return gens, recipes, coords


def _naive_candidates(algebra: Algebra, d: int, gen_data):
    """All modules of dimension d from generator matrix assignments.

    The entries of the generator matrices run in counter order with the
    last entry fastest, in blocks of at most _BATCH_LIMIT.  In a block
    each generator is one (n, d, d) array, each recipe a product of such
    arrays, and each basis element's action one combination of them; the
    unit and multiplicativity are tested on the whole block, and the
    modules are formed for the survivors only.
    """
    gens, recipes, coords = gen_data
    field, dim = algebra.field, algebra.dim
    p = field.p
    n_entries = len(gens) * d * d
    total = p**n_entries
    ident = np.eye(d, dtype=np.int64)
    for start in range(0, total, _BATCH_LIMIT):
        digits = _digits(start, min(total, start + _BATCH_LIMIT), p, n_entries)[:, ::-1]
        n = len(digits)
        blocks = digits.reshape(n, len(gens), d, d)
        mats = []
        for recipe in recipes:
            if recipe[0] == "one":
                mats.append(np.broadcast_to(ident, (n, d, d)))
            elif recipe[0] == "gen":
                mats.append(blocks[:, recipe[1]])
            else:
                mats.append(_product(field, mats[recipe[1]], mats[recipe[2]]))
        flat = _product(field, coords.array(), np.stack(mats, axis=1).reshape(n, len(mats), d * d))
        action = flat.reshape(n, dim, d, d)
        # rho(1) = id, and rho(b_i) rho(b_j) = rho(b_i b_j) for every pair
        keep = (_product(field, algebra.one.array(), flat).reshape(n, d, d) == ident).all(axis=(1, 2))
        combined = _product(field, algebra._table.array(), flat).reshape(n, dim, dim, d, d)
        prods = _product(field, action[:, :, None], action[:, None])
        keep &= (prods == combined).reshape(n, -1).all(axis=1)
        for stack in flat[keep]:
            yield FDModule(algebra, d, Mat.of_array(field, stack.reshape(dim * d, d)))


def _walks(algebra: Algebra, cap: int):
    """The candidate walks of dimensions 1..cap, in order, as (d, candidates).

    A quiver-built algebra, with or without relations, has one walk per
    dimension vector of total d, from arrow matrices; any other algebra
    has one walk per dimension d, from generator matrices.  candidates
    yields the walk's modules lazily.
    """
    q = algebra.quiver
    if q is not None:
        return [(d, _vector_candidates(algebra, comp))
                for d in range(1, cap + 1) for comp in _compositions(d, q.n_vertices)]
    gen_data = _generating_data(algebra)
    return [(d, _naive_candidates(algebra, d, gen_data)) for d in range(1, cap + 1)]


# ---------------------------------------------------------------------------
# Quiver algebras: the members are the middle terms of extensions.
# ---------------------------------------------------------------------------


def _simples(algebra: Algebra):
    """The simple S_v per vertex v, in order: e_v acts as 1 and every other path as 0."""
    one, zero = Mat.identity(algebra.field, 1), Mat.zeros(algebra.field, 1, 1)
    return [FDModule(algebra, 1, [one if path == (v, ()) else zero for path in algebra.paths])
            for v in range(1, algebra.quiver.n_vertices + 1)]


def _middle_terms(simple: FDModule, summands):
    """The middle terms E of extensions 0 -> K -> E -> S_v -> 0 that can be
    indecomposable, S_v = simple and K the direct sum of the modules K_i
    of summands.

    summands holds (K_i, ext1(simple, K_i)).  Ext^1(S_v, K) is the sum of
    the Ext^1(S_v, K_i), a class of K having the blocks [c_1 | c_2 | ...],
    and a class whose part c_i is 0 splits K_i off E, so each part runs
    over the nonzero combinations of K_i's classes, up to a scalar: c and
    phi c, phi an automorphism of K such as a scalar on each K_i, give
    isomorphic middle terms.  For no summands, K = 0 and E = S_v.
    """
    field, rows = simple.field, simple.algebra.dim * simple.dim
    total = direct_sum_many([k for k, _ in summands], algebra=simple.algebra)[0]
    parts = []
    for k, classes in summands:
        # one combination per projective point: its first nonzero coefficient is 1
        coeffs = [c for c in itertools.product(range(field.p), repeat=classes.rows)
                  if next((x for x in c if x), 0) == 1]
        points = Mat.of_array(field, coeffs) @ classes
        parts.append([points.row(r).reshape(rows, k.dim) for r in range(points.rows)])
    for blocks in itertools.product(*parts):  # c, one part per K_i
        c = Mat.hstack([Mat.zeros(field, rows, 0), *blocks]).reshape(1, rows * total.dim)
        yield extension(simple, total, c)


def _sums_of_vector(pieces, beta):
    """The lists of items, one per multiset of pieces (vector, item) whose
    vectors add up to beta, each list in the order of pieces."""
    if not any(beta):
        yield []
        return
    for i, (vector, item) in enumerate(pieces):
        rest = tuple(b - a for b, a in zip(beta, vector))
        if min(rest) >= 0:
            for tail in _sums_of_vector(pieces[i:], rest):
                yield [item] + tail


def _is_new(cand: FDModule, found, seed: int) -> bool:
    """Whether cand is certified indecomposable and isomorphic to no module of found.

    Raises BudgetExceeded when cand can be neither certified nor split.
    """
    res = indecomposability(cand, seed)
    if res.status == "probably-indecomposable":
        raise BudgetExceeded("cannot certify a candidate as indecomposable within budget")
    return res.status == "indecomposable" and all(_first_iso(cand, m) is None for m in found)


def _extension_members(algebra: Algebra, cap: int, budget: int, seed: int):
    """The members of a quiver algebra up to dimension cap, and the number
    of middle terms decided.

    The dimension vectors alpha go by total dimension 1..cap, each in the
    order of _compositions.  An indecomposable E of vector alpha has a
    maximal submodule K, and E/K is a simple S_v with alpha_v > 0 (all
    simples have dimension 1), so E is the middle term of an extension
    0 -> K -> E -> S_v -> 0 with K a direct sum of members of vector
    alpha - e_v (Auslander, Reiten and Smaloe, Representation Theory of
    Artin Algebras), which are complete by induction.  alpha's members
    are the iso classes of the indecomposable middle terms of
    _middle_terms over every such v and K, in the order they come; a
    member with no extension class by S_v splits off every middle term,
    so it is left out.  The Ext classes of each (vertex, member) are made
    on first use and kept for the later vectors.  Raises BudgetExceeded
    as soon as more than budget middle terms have been decided.
    """
    simples = _simples(algebra)
    pieces, classes, decided = [], {}, 0  # pieces: (vector, member) in order

    def ext_classes(v: int, i: int):
        if (v, i) not in classes:
            classes[v, i] = ext1(simples[v], pieces[i][1])
        return classes[v, i]

    for d in range(1, cap + 1):
        for alpha in _compositions(d, algebra.quiver.n_vertices):
            found = []
            for v, simple in enumerate(simples):
                if not alpha[v]:
                    continue
                beta = alpha[:v] + (alpha[v] - 1,) + alpha[v + 1:]
                extending = [(vector, (m, c)) for i, (vector, m) in enumerate(pieces)
                             if all(a <= b for a, b in zip(vector, beta))
                             and (c := ext_classes(v, i)).rows]
                for summands in _sums_of_vector(extending, beta):
                    for middle in _middle_terms(simple, summands):
                        decided += 1
                        if decided > budget:
                            raise BudgetExceeded(
                                f"enumeration decided more than {budget} middle terms of"
                                " extensions; raise --budget or lower the cap"
                            )
                        if _is_new(middle, found, seed):
                            found.append(middle)
            pieces.extend((alpha, m) for m in found)
    return [m for _, m in pieces], decided


def enumerate_indecomposables(algebra: Algebra, cap: int, budget: int = 10**7,
                              seed: int = 0) -> Inventory:
    """Inventory of all indecomposables of dimension <= cap.

    A quiver algebra takes its members from the middle terms of
    extensions (_extension_members), and budget bounds the middle terms
    decided.  An algebra given by structure constants walks every
    generator-matrix assignment (_naive_candidates), whose number budget
    bounds, keeps certified indecomposables, and appends each one that
    is isomorphic to no member of its dimension found before it.
    """
    if cap < 0:
        raise ValueError(f"inventory cap must be non-negative, got {cap}")
    if not algebra.field.is_prime_field:
        raise ModuleError("exhaustive enumeration needs a finite prime field")
    if algebra.quiver is not None:
        members, decided = _extension_members(algebra, cap, budget, seed)
        return Inventory(algebra, cap, members, decided=decided)
    gen_data = _generating_data(algebra)
    estimate = sum(algebra.field.p ** (d * d * len(gen_data[0])) for d in range(1, cap + 1))
    if estimate > budget:
        raise BudgetExceeded(
            f"enumeration needs about {estimate} candidates, budget is {budget};"
            " raise --budget or lower the cap"
        )
    members, decided = [], 0
    for d in range(1, cap + 1):
        found = []
        for cand in _naive_candidates(algebra, d, gen_data):
            decided += 1
            if _is_new(cand, found, seed):
                found.append(cand)
        members.extend(found)
    return Inventory(algebra, cap, members, decided=decided, assignments=estimate)


def sum_combos(inv: Inventory, max_summands: int, max_dim: int):
    """The member index multisets of <= max_summands members with total
    dim <= max_dim, in a deterministic order, starting with the empty one."""
    idx = range(len(inv.members))
    for size in range(max_summands + 1):
        for combo in itertools.combinations_with_replacement(idx, size):
            if sum(inv.members[i].dim for i in combo) <= max_dim:
                yield combo


def direct_sums_up_to(inv: Inventory, max_summands: int, max_dim: int):
    """All direct sums of <= max_summands members with total dim <= max_dim.

    Yields (module, member index multiset) in the order of sum_combos,
    starting with the empty sum (the zero module).  Criterion 4 decides
    these sums without building them; this stays public because
    perfbench/tracer.py times it by name and the criterion-4 reference
    test checks that derivation on every sum built here.
    """
    for combo in sum_combos(inv, max_summands, max_dim):
        mods = [inv.members[i] for i in combo]
        total_mod, _, _ = direct_sum_many(mods, algebra=inv.algebra)
        yield total_mod, combo


def verify_completeness(inv: Inventory, max_dim: int, seed: int = 0):
    """Count all modules per dimension against multisets of members.

    Every enumerated module of dimension <= max_dim must decompose into
    inventory members, and every multiset of members must occur; the
    report records the per-dimension counts.
    """
    report = {"check": "inventory-completeness", "dims": [], "ok": True}
    for d, walks in itertools.groupby(_walks(inv.algebra, max_dim), key=lambda w: w[0]):
        expected = {
            combo for combo in sum_combos(inv, d, d)
            if sum(inv.members[i].dim for i in combo) == d
        }
        observed = set()
        ok = True
        for cand in itertools.chain.from_iterable(walk for _, walk in walks):
            pieces = decompose(cand, seed)
            signature = []
            for piece, _, _ in pieces:
                match = next(
                    (i for i, m in enumerate(inv.members) if _first_iso(piece, m) is not None), None
                )
                if match is None:
                    ok = False
                    break
                signature.append(match)
            else:
                observed.add(tuple(sorted(signature)))
                continue
            break
        ok = ok and observed == expected
        report["dims"].append(
            {"dim": d, "iso_classes": len(observed), "expected": len(expected), "ok": ok}
        )
        report["ok"] = report["ok"] and ok
    return report
