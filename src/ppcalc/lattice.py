"""The lattice map induced by a bimodule with a chosen generating tuple.

Given an (S, R)-bimodule B whose right module is generated by an n-tuple
t, every pp formula in one free variable over S is sent to the pp-n-
formula over R generating the pp-type of c tensor t inside C tensor B,
for (C, c) a free realisation.  This map is a lattice homomorphism; when
tensoring with B is a representation embedding it is a lattice embedding.
verify_lattice_hom and verify_embedding machine-check both statements on
a finite sample of formulas.
"""

from __future__ import annotations

from functools import cache

from .formulas import (
    FormulaError,
    FreeRealisation,
    PpFormula,
    conj,
    free_realisation,
    meet_and_sum_pairs,
    pair_equivalent,
    pair_implies,
    pp_type_generator,
    sum_formula,
    zero_formula,
)
from .modules import Bimodule, tensor_over

__all__ = [
    "BetaMap",
    "beta",
    "order_table",
    "standard_sample",
    "verify_lattice_hom",
    "verify_embedding",
]


class BetaMap:
    """The pp-lattice map attached to a bimodule and its generating tuple."""

    def __init__(self, bimodule: Bimodule):
        self.bimodule = bimodule
        self.n = len(bimodule.generators)

    def __call__(self, phi: PpFormula) -> PpFormula:
        return beta(self, phi)

    def __repr__(self):
        return f"BetaMap(pp1 over {self.bimodule.S!r} -> pp{self.n} over {self.bimodule.R!r})"


def beta(bmap: BetaMap, phi: PpFormula) -> PpFormula:
    """Image of a one-variable formula under the lattice map.

    Takes a free realisation (C, c), tensors it with the bimodule
    (tensored_pair), and returns a generator of the pp-type of the tuple
    c tensor t, with (C tensor B, c tensor t) as its free realisation.
    """
    return pp_type_generator(*tensored_pair(bmap, free_realisation(phi)))


def tensored_pair(bmap: BetaMap, real: FreeRealisation) -> FreeRealisation:
    """The free realisation of the image of the formula that real realises.

    real is (C, (c,)), a free realisation of a one-variable formula over
    S; the image's is (C tensor B, (c tensor t_1, ..., c tensor t_n)).
    """
    module, tup = real
    if len(tup) != 1:
        raise FormulaError("beta is defined on formulas of arity 1")
    if module.algebra != bmap.bimodule.S:
        raise FormulaError("formula must live over the bimodule's left algebra")
    t = tensor_over(module, bmap.bimodule)
    return FreeRealisation(t.module, tuple(t.pure_tensor(tup[0], g) for g in bmap.bimodule.generators))


def standard_sample(algebra, modules, close: bool = True):
    """pp-type generators of all elements (up to scalar) of the given
    modules, optionally closed once under conj and sum.

    Deterministic order; duplicates are removed syntactically, not up to
    equivalence.  Prime fields only (elements are enumerated).
    """
    field = algebra.field
    if not field.is_prime_field:
        raise FormulaError("sample generation enumerates elements: prime fields only")
    base = [zero_formula(algebra, 1)]
    seen = {base[0].key()}
    for m in modules:
        for vec in m.elements():
            if vec.is_zero():
                continue
            # normalise: first nonzero coordinate = 1 (scalar orbits coincide)
            lead = next(
                vec.entry(0, j) for j in range(m.dim) if vec.entry(0, j) != 0
            )
            vec = vec.scale(field.inv(lead))
            gen = pp_type_generator(m, [vec])
            if gen.key() not in seen:
                seen.add(gen.key())
                base.append(gen)
    if not close:
        return base
    out = list(base)
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            for made in (conj(base[i], base[j]), sum_formula(base[i], base[j])):
                if made.key() not in seen:
                    seen.add(made.key())
                    out.append(made)
    return out


def order_table(formulas):
    """The order on a list of formulas: entry [i][j] is implies(formulas[i], formulas[j]).

    implies reads a formula only through its free realisation, so it is
    decided once per pair of distinct realisations (see _distinct).
    """
    index, pairs = _distinct(formulas)
    implied = cache(lambda a, b: pair_implies(pairs[a], pairs[b]))
    return [[implied(a, b) for b in index] for a in index]


def _distinct(formulas):
    """The distinct free realisations of formulas, and each formula's position.

    Returns (index, pairs): formula i is realised by pairs[index[i]], the
    first realisation in formulas equal to its own (a FreeRealisation is
    equal and hashed by content).
    A formula without a realisation gets its finitely presented one,
    built once here.  beta and implies read a formula only through its
    realisation, and conj and sum_formula build the realisation they
    attach from their arguments' realisations alone, so a verdict decided
    on positions holds for every formula at them.
    """
    first = {}  # realisation -> its position; equal ones keep the first
    index = [first.setdefault(free_realisation(f), len(first)) for f in formulas]
    return index, list(first)


def _failure(sample, i, j, law=None):
    """A report's failure entry: the violated law, if named, the pair and its formulas."""
    from .io import formula_to_json  # io, the serialisation layer, sits above this one

    entry = {} if law is None else {"law": law}
    entry["pair"] = [i, j]
    entry["witness_formulas"] = [formula_to_json(sample[i]), formula_to_json(sample[j])]
    return entry


def verify_lattice_hom(bmap: BetaMap, sample, betas=None, order=None):
    """Check meet/join/order preservation of the map on all sample pairs.

    betas and order, when passed, must be [beta(bmap, f) for f in sample]
    and order_table(sample); they are computed when not passed.  Returns
    a report dict; failures carry the witnessing pair of sample indices
    and the violated law, ordered by pair with meet before join, then the
    order failures.

    Every pair (i <= j) is checked: the image of conj(f_i, f_j) against
    conj(beta f_i, beta f_j), and likewise for sum_formula.  Each verdict
    depends only on the free realisations of f_i, f_j and their images,
    so it is decided once per distinct tuple of their positions among
    the distinct realisations (see _distinct; laws_decided counts these
    for meet and join) and given to every pair that shares it.  The laws
    are decided on the realisations alone: per side, one direct sum gives
    the meet's and the sum's (see meet_and_sum_pairs), the S side's are
    tensored with the bimodule, and pair_equivalent compares the two
    sides, so no formula matrix is built.  The positions include the
    images' as passed, so betas that are not beta of the sample are still
    checked as given.  The tensor runs once per distinct realisation of
    the pair formulas (images_built counts them).
    """
    if betas is None:
        betas = [beta(bmap, f) for f in sample]
    if order is None:
        order = order_table(sample)
    images = {}  # realisation of a pair formula -> its image's realisation

    def image(real):
        if real not in images:
            images[real] = tensored_pair(bmap, real)
        return images[real]

    index, pairs = _distinct(sample)
    image_index, image_pairs = _distinct(betas)

    @cache
    def laws(a, b, x, y):
        # raises what conj, beta and implies would, in their order
        s_meet, s_sum = meet_and_sum_pairs(pairs[a], pairs[b])
        image_meet = image(s_meet)
        r_meet, r_sum = meet_and_sum_pairs(image_pairs[x], image_pairs[y])
        return pair_equivalent(image_meet, r_meet), pair_equivalent(image(s_sum), r_sum)

    implied = cache(lambda x, y: pair_implies(image_pairs[x], image_pairs[y]))
    failures = []
    for i in range(len(sample)):
        for j in range(i, len(sample)):
            verdicts = laws(index[i], index[j], image_index[i], image_index[j])
            failed = [law for law, ok in zip(("meet", "join"), verdicts) if not ok]
            failures += [_failure(sample, i, j, law) for law in failed]
    for i in range(len(sample)):
        for j in range(len(sample)):
            if i != j and order[i][j] and not implied(image_index[i], image_index[j]):
                failures.append(_failure(sample, i, j, "order"))
    return {
        "check": "lattice-homomorphism",
        "sample_size": len(sample),
        "pairs_checked": len(sample) * (len(sample) + 1) // 2,
        "images_built": len(images),
        "laws_decided": laws.cache_info().currsize,
        "failures": failures,
        "ok": not failures,
    }


def verify_embedding(bmap: BetaMap, sample, betas=None, order=None):
    """Check that strict inequalities map to strict inequalities.

    betas and order, when passed, must be [beta(bmap, f) for f in sample]
    and order_table(sample); they are computed when not passed.  Each
    implication between images is decided once per pair of positions
    among the distinct image realisations, as in verify_lattice_hom.
    """
    if betas is None:
        betas = [beta(bmap, f) for f in sample]
    if order is None:
        order = order_table(sample)
    image_index, image_pairs = _distinct(betas)
    implied = cache(lambda x, y: pair_implies(image_pairs[x], image_pairs[y]))
    failures = []
    strict = 0
    for i in range(len(sample)):
        for j in range(len(sample)):
            if i == j:
                continue
            if order[i][j] and not order[j][i]:
                strict += 1
                if implied(image_index[j], image_index[i]):
                    failures.append(_failure(sample, i, j))
    return {
        "check": "lattice-embedding",
        "sample_size": len(sample),
        "strict_pairs": strict,
        "failures": failures,
        "ok": not failures,
    }
