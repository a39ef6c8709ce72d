"""Exhaustive enumeration of indecomposable modules over a finite prime field.

Quiver-built algebras are enumerated by dimension vector (one matrix per
arrow, relations checked on products); other algebras by assigning
matrices to a computed generating set of the basis.  Every returned
member is certified indecomposable and the list is pairwise
non-isomorphic, in a deterministic order.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import Algebra
from .linalg import Mat, Subspace
from .modules import (
    FDModule,
    ModuleError,
    direct_sum_many,
    decompose,
    indecomposability,
    iso_test,
    validate_module,
    _first_iso,
)

__all__ = [
    "Inventory",
    "BudgetExceeded",
    "enumerate_indecomposables",
    "direct_sums_up_to",
    "verify_completeness",
]

_BATCH_LIMIT = 4096


class BudgetExceeded(ModuleError):
    pass


class Inventory:
    """Certified indecomposables of dimension <= cap, pairwise non-isomorphic."""

    def __init__(self, algebra: Algebra, cap: int, members, exhaustive: bool):
        self.algebra = algebra
        self.cap = cap
        self.members = list(members)
        self.exhaustive = exhaustive

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
    """All tuples of non-negative ints of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _digits(start: int, stop: int, base: int, width: int) -> np.ndarray:
    """The base-`base` digits of start..stop-1, one row each, digit 0 first."""
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, width), dtype=np.int64)
    for k in range(width):
        out[:, k] = idx % base
        idx //= base
    return out


def _quiver_candidates(algebra: Algebra, d: int):
    """All modules of dimension d, via arrow-matrix assignments.

    Assignments are numbered in base p with digit 0 fastest and tested
    against the relations in blocks of _BATCH_LIMIT, so memory does not
    grow with their number.
    """
    q = algebra.quiver
    p = algebra.field.p
    nv = q.n_vertices
    arrows = q.arrows
    by_label = {arrows[i][2]: i for i in range(len(arrows))}
    for comp in _compositions(d, nv):
        offs = [0]
        for c in comp:
            offs.append(offs[-1] + c)
        shapes = [(comp[s - 1], comp[t - 1]) for (s, t, _) in arrows]
        k_total = sum(r * c for r, c in shapes)
        count = p**k_total

        def embed(arrow_idx, small: np.ndarray) -> np.ndarray:
            s, t, _ = arrows[arrow_idx]
            full = np.zeros((d, d), dtype=np.int64)
            r, c = shapes[arrow_idx]
            full[offs[s - 1] : offs[s - 1] + r, offs[t - 1] : offs[t - 1] + c] = small
            return full

        def build(full_mats) -> FDModule:
            action = []
            for src, word in algebra.paths:
                mat = np.zeros((d, d), dtype=np.int64)
                mat[offs[src - 1] : offs[src - 1] + comp[src - 1],
                    offs[src - 1] : offs[src - 1] + comp[src - 1]] = np.eye(
                    comp[src - 1], dtype=np.int64
                )
                for lab in word:
                    mat = (mat @ full_mats[by_label[lab]]) % p
                action.append(Mat.of_array(algebra.field, mat))
            return FDModule(algebra, d, action)

        for start in range(0, count, _BATCH_LIMIT):
            digits = _digits(start, min(count, start + _BATCH_LIMIT), p, k_total)
            n = len(digits)
            smalls = []
            pos = 0
            for r, c in shapes:
                smalls.append(digits[:, pos : pos + r * c].reshape(n, r, c))
                pos += r * c
            mask = np.ones(n, dtype=bool)
            for rel in q.relations:
                acc = 0
                for coeff, word in rel:
                    prod = smalls[by_label[word[0]]]
                    for lab in word[1:]:
                        prod = np.einsum("nij,njk->nik", prod, smalls[by_label[lab]]) % p
                    acc = (acc + int(coeff) * prod) % p
                mask &= ~acc.reshape(n, -1).any(axis=1)
            for idx in np.flatnonzero(mask):
                yield build([embed(i, smalls[i][idx]) for i in range(len(arrows))])


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
    """All modules of dimension d from generator matrix assignments."""
    gens, recipes, coords = gen_data
    field = algebra.field
    p = field.p
    n_entries = len(gens) * d * d
    for combo in itertools.product(range(p), repeat=n_entries):
        gmats = []
        for g in range(len(gens)):
            block = combo[g * d * d : (g + 1) * d * d]
            gmats.append(
                Mat.from_rows(field, [list(block[i * d : (i + 1) * d]) for i in range(d)])
            )
        mats = []
        for recipe in recipes:
            if recipe[0] == "one":
                mats.append(Mat.identity(field, d))
            elif recipe[0] == "gen":
                mats.append(gmats[recipe[1]])
            else:
                mats.append(mats[recipe[1]] @ mats[recipe[2]])
        flat = coords @ Mat.flat_stack(mats)
        cand = FDModule(algebra, d, [flat.row(b).reshape(d, d) for b in range(algebra.dim)])
        if validate_module(cand).ok:
            yield cand


def _estimate(algebra: Algebra, cap: int) -> int:
    p = algebra.field.p
    total = 0
    if algebra.quiver is not None:
        q = algebra.quiver
        for d in range(1, cap + 1):
            for comp in _compositions(d, q.n_vertices):
                k_total = sum(
                    comp[s - 1] * comp[t - 1] for (s, t, _) in q.arrows
                )
                total += p**k_total
    else:
        n_gens = len(_generating_data(algebra)[0])
        for d in range(1, cap + 1):
            total += p ** (d * d * n_gens)
    return total


def enumerate_indecomposables(algebra: Algebra, cap: int, budget: int = 10**7,
                              seed: int = 0) -> Inventory:
    """Inventory of all indecomposables of dimension <= cap.

    Enumerates all action-matrix assignments per dimension within the
    budget, keeps certified indecomposables, and groups them by
    isomorphism.
    """
    if not algebra.field.is_prime_field:
        raise ModuleError("exhaustive enumeration needs a finite prime field")
    estimate = _estimate(algebra, cap)
    if estimate > budget:
        raise BudgetExceeded(
            f"enumeration needs about {estimate} candidates, budget is {budget};"
            " raise --budget or lower the cap"
        )
    gen_data = None if algebra.quiver is not None else _generating_data(algebra)
    members = []
    for d in range(1, cap + 1):
        source = (
            _quiver_candidates(algebra, d)
            if algebra.quiver is not None
            else _naive_candidates(algebra, d, gen_data)
        )
        for cand in source:
            res = indecomposability(cand, seed)
            if res.status == "probably-indecomposable":
                raise BudgetExceeded(
                    "cannot certify a candidate as indecomposable within budget"
                )
            if res.status != "indecomposable":
                continue
            if not any(iso_test(cand, m, seed, res) for m in members if m.dim == d):
                members.append(cand)
    return Inventory(algebra, cap, members, exhaustive=True)


def direct_sums_up_to(inv: Inventory, max_summands: int, max_dim: int):
    """All direct sums of <= max_summands members with total dim <= max_dim.

    Yields (module, member index multiset) in a deterministic order,
    starting with the empty sum (the zero module).
    """
    idx = range(len(inv.members))
    for size in range(max_summands + 1):
        for combo in itertools.combinations_with_replacement(idx, size):
            total = sum(inv.members[i].dim for i in combo)
            if total <= max_dim:
                mods = [inv.members[i] for i in combo]
                total_mod, _, _ = direct_sum_many(mods, algebra=inv.algebra)
                yield total_mod, combo


def verify_completeness(inv: Inventory, max_dim: int, seed: int = 0):
    """Count all modules per dimension against multisets of members.

    Every enumerated module of dimension <= max_dim must decompose into
    inventory members, and every multiset of members must occur; the
    report records the per-dimension counts.
    """
    algebra = inv.algebra
    gen_data = None if algebra.quiver is not None else _generating_data(algebra)
    report = {"check": "inventory-completeness", "dims": [], "ok": True}
    for d in range(1, max_dim + 1):
        expected = set()
        for size in range(0, d + 1):
            for combo in itertools.combinations_with_replacement(
                range(len(inv.members)), size
            ):
                if sum(inv.members[i].dim for i in combo) == d:
                    expected.add(combo)
        observed = set()
        source = (
            _quiver_candidates(algebra, d)
            if algebra.quiver is not None
            else _naive_candidates(algebra, d, gen_data)
        )
        ok = True
        for cand in source:
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
