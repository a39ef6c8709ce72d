"""Block-built sums, one-elimination spans and pushout-free meets.

direct_sum_many fills one block-diagonal array, submodule_generated
spins its vectors once, and meet_realisation reads the meet off
C_phi + C_psi without building A^n.  The references below are the
constructions they replaced: the pairwise fold of zero-padded block sums,
the span grown to a fixpoint, and the pushout of the two maps out of the
free module.  The results must be equal, not only isomorphic.
"""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcalc import formulas, modules
from ppcalc.formulas import FreeRealisation, conj, free_realisation, meet_realisation, pp_type_generator
from ppcalc.linalg import Mat, Subspace
from ppcalc.modules import (
    FDModule,
    ModuleError,
    ModuleMap,
    direct_sum,
    direct_sum_many,
    free_module,
    identity_map,
    pushout,
    submodule_generated,
    zero_module,
)
from test_modules import (
    ORACLE,
    ORACLE_FIELDS,
    kronecker_modules,
    lambda_modules,
    oracle_algebras,
    oracle_mats,
)


def ref_direct_sum(m, n):
    """The two-summand block sum, each action padded with zero blocks."""
    if m.algebra != n.algebra:
        raise ModuleError("direct sum over different algebras")
    field = m.field
    d = m.dim + n.dim
    action = []
    for l in range(m.algebra.dim):
        top = Mat.hstack([m.action[l], Mat.zeros(field, m.dim, n.dim)]) if m.dim else None
        bot = Mat.hstack([Mat.zeros(field, n.dim, m.dim), n.action[l]]) if n.dim else None
        parts = [x for x in (top, bot) if x is not None]
        action.append(Mat.vstack(parts) if parts else Mat.zeros(field, 0, 0))
    p = FDModule(m.algebra, d, action)
    i1 = Mat.hstack([Mat.identity(field, m.dim), Mat.zeros(field, m.dim, n.dim)]) if m.dim else Mat.zeros(field, 0, d)
    i2 = Mat.hstack([Mat.zeros(field, n.dim, m.dim), Mat.identity(field, n.dim)]) if n.dim else Mat.zeros(field, 0, d)
    i1, i2 = ModuleMap(m, p, i1, check=False), ModuleMap(n, p, i2, check=False)
    p1 = ModuleMap(p, m, i1.matrix.transpose(), check=False)
    p2 = ModuleMap(p, n, i2.matrix.transpose(), check=False)
    return p, i1, i2, p1, p2


def ref_direct_sum_many(mods, algebra=None):
    """The iterated fold of ref_direct_sum, recomposing every map at each step."""
    if not mods:
        return zero_module(algebra), [], []
    total = mods[0]
    incls = [identity_map(mods[0])]
    projs = [identity_map(mods[0])]
    for m in mods[1:]:
        total2, i1, i2, p1, p2 = ref_direct_sum(total, m)
        incls = [i.then(i1) for i in incls] + [i2]
        projs = [p1.then(p) for p in projs] + [p2]
        total = total2
    return total, incls, projs


def ref_submodule_generated(m, vectors):
    """The span of the vectors, grown by their images until it stops growing."""
    rows = [v.to_rows()[0] if isinstance(v, Mat) else list(v) for v in vectors]
    span = Subspace.from_vectors(m.field, m.dim, rows)
    while True:
        images = Mat.vstack([span.basis] + [span.basis @ act for act in m.action])
        bigger = Subspace.from_vectors(m.field, m.dim, images)
        if bigger.dim == span.dim:
            return span
        span = bigger


def ref_map_from_free(fr: FreeRealisation):
    """The map A^n -> C sending the free generators to the tuple."""
    c_mod = fr.module
    a = c_mod.algebra
    free, _ = free_module(a, fr.formula.n)
    rows = [(t @ act).to_rows()[0] for t in fr.tuple for act in c_mod.action]
    mat = Mat.from_rows(c_mod.field, rows) if rows else Mat.zeros(c_mod.field, 0, c_mod.dim)
    return ModuleMap(free, c_mod, mat)


def ref_meet_realisation(phi, psi):
    """The pushout of the two maps out of A^n, with the images of c_phi."""
    fr_phi, fr_psi = free_realisation(phi), free_realisation(psi)
    p, hf, _ = pushout(ref_map_from_free(fr_phi), ref_map_from_free(fr_psi))
    return p, [hf(t) for t in fr_phi.tuple]


def module_kinds(field):
    """Lambda-modules (the zero module among them) and Kronecker modules."""
    lam, kron = oracle_algebras(field)[:2]
    return [
        (lam, st.one_of(st.just(zero_module(lam)), lambda_modules(field, max_dim=3))),
        (kron, kronecker_modules(field, max_side=1)),
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_direct_sum_many_matches_fold(case, data):
    for algebra, mods in module_kinds(ORACLE_FIELDS[case]):
        summands = data.draw(st.lists(mods, max_size=3))
        total, incls, projs = direct_sum_many(summands, algebra=algebra)
        ref_total, ref_incls, ref_projs = ref_direct_sum_many(summands, algebra)
        assert total.action == ref_total.action
        assert incls == ref_incls and projs == ref_projs
        if len(summands) == 2:
            assert direct_sum(*summands) == ref_direct_sum(*summands)


def test_direct_sum_rejects_different_algebras(reg2, bim2):
    for sum_of in (lambda m, n: direct_sum(m, n), lambda m, n: direct_sum_many([m, n])):
        with pytest.raises(ModuleError, match="different algebras"):
            sum_of(reg2, bim2.right_module())
    with pytest.raises(ModuleError, match="needs the algebra"):
        direct_sum_many([])


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_submodule_generated_matches_fixpoint(case, data):
    field = ORACLE_FIELDS[case]
    for _, mods in module_kinds(field):
        m = data.draw(mods)
        vectors = data.draw(oracle_mats(field, data.draw(st.integers(0, 3)), m.dim))
        rows = vectors.to_rows()
        as_mats = [vectors.row(i) for i in range(vectors.rows)]
        expected = ref_submodule_generated(m, rows)
        assert submodule_generated(m, rows) == expected
        assert submodule_generated(m, as_mats) == expected


@st.composite
def realised_pairs(draw, field):
    """Two pp-type generators of one arity (1 or 2) over one algebra."""
    n = draw(st.integers(1, 2))
    _, mods = draw(st.sampled_from(module_kinds(field)))
    out = []
    for _ in range(2):
        m = draw(mods)
        tup = draw(oracle_mats(field, n, m.dim))
        out.append(pp_type_generator(m, [tup.row(i) for i in range(n)]))
    return out


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_meet_realisation_matches_pushout_from_free(case, data):
    phi, psi = data.draw(realised_pairs(ORACLE_FIELDS[case]))
    q, tup = meet_realisation(phi, psi)
    ref_q, ref_tup = ref_meet_realisation(phi, psi)
    assert q.action == ref_q.action
    assert tup == ref_tup


def test_conj_builds_no_free_module_and_no_pushout(reg2, s1_2):
    x, y = reg2.element([0, 1]), s1_2.element([1])
    phi, psi = pp_type_generator(reg2, [x]), pp_type_generator(s1_2, [y])
    ref_q, ref_tup = ref_meet_realisation(phi, psi)
    boom = mock.Mock(side_effect=AssertionError("the meet must not build this"))
    with mock.patch.object(formulas, "free_module", boom), mock.patch.object(modules, "pushout", boom):
        meet = conj(phi, psi)
    boom.assert_not_called()
    assert meet.realisation.module.action == ref_q.action
    assert meet.realisation.tuple == ref_tup
