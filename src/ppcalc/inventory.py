"""Exhaustive enumeration of indecomposable modules over a finite prime field.

Quiver-built algebras are enumerated by dimension vector (one matrix per
arrow, relations checked on products); other algebras by assigning
matrices to a computed generating set of the basis.  Every returned
member is certified indecomposable and the list is pairwise
non-isomorphic, in a deterministic order.  For a quiver without
relations the number of members of each dimension vector is known in
advance, from Kac's count evaluated by Hua's formula, and each vector's
walk stops once it has that many.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import partial, reduce

import numpy as np

from .algebra import Algebra
from .linalg import Mat, Subspace, _product
from .modules import (
    FDModule,
    ModuleError,
    direct_sum_many,
    decompose,
    indecomposability,
    iso_test,
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

    decided is the number of candidates whose indecomposability the
    enumeration decided, and assignments the number of assignments its
    budget counted; both are None for an inventory not enumerated as such.
    """

    def __init__(self, algebra: Algebra, cap: int, members, exhaustive: bool,
                 decided: int | None = None, assignments: int | None = None):
        self.algebra = algebra
        self.cap = cap
        self.members = list(members)
        self.exhaustive = exhaustive
        self.decided = decided
        self.assignments = assignments

    def by_dim(self, d: int):
        return [m for m in self.members if m.dim == d]

    def up_to(self, cap: int) -> "Inventory":
        """The members of dimension <= cap, in order, as an exhaustive inventory.

        enumerate_indecomposables walks dimensions 1..cap in order, so
        its members of dimension <= c do not depend on the cap: this is
        what enumerating at cap c returns.
        """
        if cap > self.cap or not self.exhaustive:
            raise ValueError(f"cannot take cap {cap} from {self!r}")
        return Inventory(
            self.algebra, cap, [m for m in self.members if m.dim <= cap], exhaustive=True
        )

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


def _quiver_candidates(algebra: Algebra, d: int):
    """All modules of dimension d, via arrow-matrix assignments, vector by vector."""
    for comp in _compositions(d, algebra.quiver.n_vertices):
        yield from _vector_candidates(algebra, comp)


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
        actions = [
            _path_action(field, live, word)
            if word
            else np.broadcast_to(np.diag(vertex_of == src).astype(np.int64), (survivors, d, d))
            for src, word in algebra.paths
        ]
        for i in range(survivors):
            yield FDModule(algebra, d, [Mat.of_array(field, a[i]) for a in actions])


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
    table = Mat.vstack([algebra.mul[i][j] for i in range(dim) for j in range(dim)]).array()
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
        combined = _product(field, table, flat).reshape(n, dim, dim, d, d)
        prods = _product(field, action[:, :, None], action[:, None])
        keep &= (prods == combined).reshape(n, -1).all(axis=1)
        for acts in action[keep]:
            yield FDModule(algebra, d, [Mat.of_array(field, a) for a in acts])


def _candidates(algebra: Algebra):
    """The candidate source: (modules, count).

    modules(d) yields every module of dimension d, from arrow matrices
    for a quiver-built algebra and from generator matrices otherwise;
    count(d) is the number of assignments it tries.
    """
    p, q = algebra.field.p, algebra.quiver
    if q is not None:
        def count(d):
            return sum(
                p ** sum(comp[s - 1] * comp[t - 1] for s, t, _ in q.arrows)
                for comp in _compositions(d, q.n_vertices)
            )

        return partial(_quiver_candidates, algebra), count
    gen_data = _generating_data(algebra)
    n_gens = len(gen_data[0])
    return partial(_naive_candidates, algebra, gen_data=gen_data), lambda d: p ** (d * d * n_gens)


# ---------------------------------------------------------------------------
# Kac's counts for quivers without relations, by Hua's formula.
# ---------------------------------------------------------------------------


def _partitions(n: int, largest: int | None = None):
    """The partitions of n into parts of at most largest, as non-increasing tuples."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _log_hua(quiver, q: int, cap: int):
    """[X^beta] log P(q, X) for every nonzero beta with |beta| <= cap, exactly.

    Hua's P(q, X) sums, over tuples pi of partitions with one pi^i per
    vertex, the terms
        prod_{arrows i->j} q^<pi^i,pi^j> / prod_i q^<pi^i,pi^i> b_{pi^i}(1/q) X^|pi|,
    with <l,m> = sum_k l'_k m'_k over the conjugate partitions and
    b_l(t) = prod_j phi_{m_j(l)}(t), phi_m(t) = (1 - t)...(1 - t^m).  The
    logarithm follows from |beta| L_beta = |beta| P_beta - sum_{0<g<beta}
    |g| L_g P_{beta-g}, with |.| the total dimension.
    """
    inv_q = Fraction(1, q)
    shapes = {}  # per size: (conjugate, q^<l,l> b_l(1/q)) for each partition l
    for k in range(cap + 1):
        shapes[k] = []
        for lam in _partitions(k):
            conj = [sum(1 for part in lam if part > j) for j in range(lam[0] if lam else 0)]
            b = math.prod(
                math.prod(1 - inv_q**e for e in range(1, lam.count(j) + 1)) for j in set(lam)
            )
            shapes[k].append((conj, q ** sum(c * c for c in conj) * b))

    def pairing(shape, other):  # <l,m> from the conjugates of two shapes
        return sum(x * y for x, y in zip(shape[0], other[0]))

    vectors = [c for total in range(cap + 1) for c in _compositions(total, quiver.n_vertices)]
    P = {
        beta: sum(
            Fraction(q) ** sum(pairing(pis[s - 1], pis[t - 1]) for s, t, _ in quiver.arrows)
            / math.prod(w for _, w in pis)
            for pis in itertools.product(*(shapes[k] for k in beta))
        )
        for beta in vectors
    }
    L = {}
    for beta in vectors[1:]:
        acc = sum(beta) * P[beta]
        for gamma, value in L.items():
            rest = tuple(b - g for b, g in zip(beta, gamma))
            if min(rest) >= 0 and any(rest):
                acc -= sum(gamma) * value * P[rest]
        L[beta] = acc / sum(beta)
    return L


def _mobius(n: int) -> int:
    """The Moebius function of a positive integer."""
    sign, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            sign = -sign
        k += 1
    return -sign if n > 1 else sign


def _common_divisors(alpha):
    """The positive integers dividing every entry of alpha."""
    g = math.gcd(*alpha)
    return [r for r in range(1, g + 1) if g % r == 0]


def _absolute_counts(quiver, q: int, cap: int):
    """Kac's A_alpha(q) for every nonzero alpha with |alpha| <= cap.

    A_alpha(q) counts the absolutely indecomposable representations of
    dimension vector alpha over F_q (Kac, Invent. Math. 56, 1980), and
    by Hua (J. Algebra 226, 2000)
        A_alpha(q) / (q - 1) = sum_{r | alpha} mu(r)/r [X^{alpha/r}] log P(q^r, X).
    The values are exact Fractions; q need only be a prime power.
    """
    logs = {r: _log_hua(quiver, q**r, cap // r) for r in range(1, cap + 1)}
    return {
        alpha: (q - 1) * sum(
            Fraction(_mobius(r), r) * logs[r][tuple(a // r for a in alpha)]
            for r in _common_divisors(alpha)
        )
        for alpha in logs[1]
    }


def _kac_counts(quiver, p: int, cap: int):
    """I_alpha(p), the number of indecomposables of dimension vector alpha
    over GF(p), for every nonzero alpha with |alpha| <= cap.

    An indecomposable over GF(p) is a Galois orbit of d absolutely
    indecomposables defined over GF(p^d) and no smaller field, so
        I_alpha(p) = sum_{d | alpha} (1/d) sum_{r | d} mu(d/r) A_{alpha/d}(p^r).
    Nothing is kept between calls.
    """
    absolute = {r: _absolute_counts(quiver, p**r, cap // r) for r in range(1, cap + 1)}
    counts = {}
    for alpha in absolute[1]:
        value = sum(
            Fraction(1, d) * sum(
                _mobius(d // r) * absolute[r][tuple(a // d for a in alpha)]
                for r in _common_divisors((d,))
            )
            for d in _common_divisors(alpha)
        )
        if value.denominator != 1 or value < 0:
            raise ModuleError(f"Hua's formula gave {value} indecomposables at {alpha}")
        counts[alpha] = int(value)
    return counts


def enumerate_indecomposables(algebra: Algebra, cap: int, budget: int = 10**7,
                              seed: int = 0) -> Inventory:
    """Inventory of all indecomposables of dimension <= cap.

    Enumerates the action-matrix assignments of each dimension within the
    budget, keeps certified indecomposables, and appends each one that is
    isomorphic to no member found before it.  For the path algebra of a
    quiver without relations, each dimension vector alpha is walked on its
    own, against its own members only, and its walk stops as soon as it
    holds Kac's count I_alpha(p) of members (a vector whose count is 0 is
    skipped): the candidates after the last member add none, so the
    members and their order are those of the full walk.  A vector whose
    candidates run out below its count raises ModuleError.  Other algebras
    walk every candidate of each dimension.
    """
    if cap < 0:
        raise ValueError(f"inventory cap must be non-negative, got {cap}")
    if not algebra.field.is_prime_field:
        raise ModuleError("exhaustive enumeration needs a finite prime field")
    candidates, count = _candidates(algebra)
    estimate = sum(count(d) for d in range(1, cap + 1))
    if estimate > budget:
        raise BudgetExceeded(
            f"enumeration needs about {estimate} candidates, budget is {budget};"
            " raise --budget or lower the cap"
        )
    q = algebra.quiver
    if q is not None and not q.relations:
        # without relations a quiver builds only when it has no path of
        # length cap, so the algebra is its whole path algebra
        kac = _kac_counts(q, algebra.field.p, cap)

        def walks(d):
            return [
                (comp, _vector_candidates(algebra, comp), kac[comp])
                for comp in _compositions(d, q.n_vertices)
            ]
    else:
        def walks(d):
            return [(d, candidates(d), None)]

    members, decided = [], 0
    for d in range(1, cap + 1):
        for label, walk, expected in walks(d):
            if expected == 0:
                continue
            found = []
            for cand in walk:
                decided += 1
                res = indecomposability(cand, seed)
                if res.status == "probably-indecomposable":
                    raise BudgetExceeded(
                        "cannot certify a candidate as indecomposable within budget"
                    )
                if res.status != "indecomposable":
                    continue
                if not any(iso_test(cand, m, seed, res) for m in found):
                    found.append(cand)
                    if len(found) == expected:
                        break
            if expected is not None and len(found) < expected:
                raise ModuleError(
                    f"dimension vector {label} has {len(found)} indecomposables,"
                    f" fewer than its Kac count {expected}"
                )
            members.extend(found)
    return Inventory(algebra, cap, members, exhaustive=True, decided=decided,
                     assignments=estimate)


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
    candidates = _candidates(inv.algebra)[0]
    report = {"check": "inventory-completeness", "dims": [], "ok": True}
    for d in range(1, max_dim + 1):
        expected = {
            combo for combo in sum_combos(inv, d, d)
            if sum(inv.members[i].dim for i in combo) == d
        }
        observed = set()
        ok = True
        for cand in candidates(d):
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
