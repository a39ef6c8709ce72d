"""Functor data built from blocks.

welldef_condition_pairs, axiom_pairs, pullback_formula and sum_formula
count their substitution slots in m-blocks and build each substitution
as B kron I_m, and embedding_bimodule is the functor applied to the
regular module Lambda_Lambda.  The references below are the
constructions they replaced: substitution matrices filled slot by slot
from scalar offsets, the stacked [0; I] and [I; -I] of sum_formula, and
the literal 4 x 4 action matrices.  The results must be equal, key for
key and matrix for matrix.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcalc.acceptance import _vertex2_sort_data
from ppcalc.examples import embedding_bimodule, kronecker_algebra, lambda_algebra
from ppcalc.formulas import (
    PpFormula,
    PpPair,
    _subst_blocks,
    assemble,
    conj,
    pp_type_generator,
    sum_formula,
    zero_formula,
)
from ppcalc.interp import InterpData, axiom_pairs, hom_interp_data, pullback_formula
from ppcalc.linalg import Mat
from ppcalc.modules import Bimodule, direct_sum
from test_constructions import bimodules, dict_pullback_formula, ref_block_subst
from test_formulas import as_dict, assert_matches, dict_formulas, module_tuples, storage_kinds
from test_modules import ORACLE, ORACLE_FIELDS, oracle_scalars


def ref_welldef_condition_pairs(data, k):
    m = data.m
    field = data.R.field
    rho = data.rhos[k]
    c_phi_y = ref_block_subst(field, 2 * m, m, [([(m, 1)], m)])
    c_rho_xy = ref_block_subst(field, 2 * m, 2 * m, [([(0, 1)], m), ([(m, 1)], m)])
    exists_part = assemble(data.R, m, m, [(data.phi, c_phi_y), (rho, c_rho_xy)])
    pair1 = PpPair(data.phi, conj(data.phi, exists_part), justification="conj-with-top")
    c_psi_x = ref_block_subst(field, 2 * m, m, [([(m, 1)], m)])
    c_rho = ref_block_subst(field, 2 * m, 2 * m, [([(m, 1)], m), ([(0, 1)], m)])
    reach = assemble(data.R, m, m, [(data.psi, c_psi_x), (rho, c_rho)])
    pair2 = PpPair(reach, conj(reach, data.psi), justification="conj-with-top")
    return pair1, pair2


def ref_axiom_pairs(data):
    """axiom_pairs with the slots counted as scalar offsets."""
    m = data.m
    p = data.S.dim
    field = data.R.field
    out = []
    for k, label in enumerate(data.S.labels):
        pair1, pair2 = ref_welldef_condition_pairs(data, k)
        out.append((f"welldef1[{label}]", pair1))
        out.append((f"welldef2[{label}]", pair2))
    n_slots = m * (3 + p)
    x_off, u_off, v_off = 0, m, 2 * m

    def w_off(l):
        return (3 + l) * m

    for i in range(p):
        for j in range(p):
            alphas = data.S.mul[i][j]
            instances = [
                (data.rhos[i], ref_block_subst(field, n_slots, 2 * m, [([(x_off, 1)], m), ([(u_off, 1)], m)])),
                (data.rhos[j], ref_block_subst(field, n_slots, 2 * m, [([(u_off, 1)], m), ([(v_off, 1)], m)])),
            ]
            for l in range(p):
                instances.append(
                    (data.rhos[l], ref_block_subst(field, n_slots, 2 * m, [([(x_off, 1)], m), ([(w_off(l), 1)], m)]))
                )
            parts = [(v_off, 1)]
            for l in range(p):
                a = alphas.entry(0, l)
                if a != 0:
                    parts.append((w_off(l), field.neg(a)))
            instances.append((data.psi, ref_block_subst(field, n_slots, m, [(parts, m)])))
            comp = assemble(data.R, m, n_slots - m, instances)
            pair = PpPair(data.phi, conj(data.phi, comp), justification="conj-with-top")
            out.append((f"compose[{data.S.labels[i]},{data.S.labels[j]}]", pair))
    return out


def ref_sum_formula(phi, psi):
    """sum_formula with the substitutions stacked from identity blocks."""
    n = phi.n
    field = phi.algebra.field
    ident = Mat.identity(field, n)
    zero = Mat.zeros(field, n, n)
    c_phi = Mat.vstack([zero, ident])
    c_psi = Mat.vstack([ident, -ident])
    fr_phi, fr_psi = phi.realisation, psi.realisation
    real = None
    if fr_phi is not None and fr_psi is not None:
        total, i1, i2, _, _ = direct_sum(fr_phi.module, fr_psi.module)
        real = (total, [i1(a) + i2(b) for a, b in zip(fr_phi.tuple, fr_psi.tuple)])
    return assemble(phi.algebra, n, n, [(phi, c_phi), (psi, c_psi)], realisation=real)


def ref_embedding_bimodule(lam, kron):
    """The dim-4 bimodule of M |-> (M => M; 1, x) from its literal matrices."""
    f = lam.field

    def rows(*vals):
        return Mat.from_rows(f, [list(v) for v in vals])

    left = {
        "e1": Mat.identity(f, 4),
        "x": rows([0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]),
    }
    right = {
        "e1": rows([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
        "e2": rows([0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]),
        "a": rows([0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]),
        "b": rows([0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
    }
    gens = [rows([1, 0, 0, 0]), rows([0, 1, 0, 0])]
    return Bimodule(
        lam, kron, 4, [left[g] for g in lam.labels], [right[g] for g in kron.labels], gens
    )


def pair_keys(pairs):
    return [(name, p.top.key(), p.bottom.key(), p.justification) for name, p in pairs]


@st.composite
def interp_data(draw, field):
    """InterpData with random phi, psi and rhos over R, for a random S."""
    kinds = storage_kinds(field)
    r = draw(st.sampled_from(kinds))[0]
    s = draw(st.sampled_from(kinds))[0]
    m = draw(st.integers(1, 2))
    phi = draw(dict_formulas(r, m))[0]
    psi = draw(dict_formulas(r, m))[0]
    rhos = [draw(dict_formulas(r, 2 * m))[0] for _ in range(s.dim)]
    return InterpData(r, s, m, PpPair(phi, psi, justification="conj-with-top"), rhos)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_subst_blocks_matches_slot_loop(case, data):
    field = ORACLE_FIELDS[case]
    n_blocks, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 3))
    block = st.integers(0, n_blocks - 1)
    combination = st.dictionaries(block, oracle_scalars(field), min_size=1, max_size=3)
    cols = data.draw(st.lists(st.one_of(block, combination), max_size=3))
    parts = [list(c.items()) if isinstance(c, dict) else [(c, 1)] for c in cols]
    want = ref_block_subst(field, n_blocks * m, len(cols) * m, [([(i * m, a) for i, a in p], m) for p in parts])
    got = _subst_blocks(field, n_blocks, m, *cols)
    assert got.key() == want.key()


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_axiom_pairs_match_slot_offsets_on_hom_data(case, data):
    homdata = hom_interp_data(data.draw(bimodules(ORACLE_FIELDS[case])))
    assert pair_keys(axiom_pairs(homdata)) == pair_keys(ref_axiom_pairs(homdata))


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_axiom_pairs_and_pullback_match_slot_offsets_on_random_data(case, data):
    idata = data.draw(interp_data(ORACLE_FIELDS[case]))
    assert pair_keys(axiom_pairs(idata)) == pair_keys(ref_axiom_pairs(idata))
    gamma = data.draw(dict_formulas(idata.S, 1))[0]
    assert_matches(pullback_formula(idata, gamma), dict_pullback_formula(idata, as_dict(gamma)))


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
def test_axiom_pairs_match_slot_offsets_on_vertex2_sort(case):
    field = ORACLE_FIELDS[case]
    vdata = _vertex2_sort_data(lambda_algebra(field), kronecker_algebra(field))
    assert pair_keys(axiom_pairs(vdata)) == pair_keys(ref_axiom_pairs(vdata))


def ref_vertex2_sort_data(lam, kron):
    """The vertex-2 data of Lambda into Kronecker, written out formula by formula."""
    one = kron.one_element()
    e1, e2, a, b = (kron.basis_element(label) for label in ("e1", "e2", "a", "b"))
    phi = PpFormula(kron, 1, 0, 1, {(0, 0): e1})  # x e1 = 0, i.e. x = x e2
    rho_unit = PpFormula(kron, 2, 0, 1, {(0, 0): one, (1, 0): -one})  # y = x
    rho_x = PpFormula(
        kron,
        2,
        1,
        3,
        {
            (2, 0): e2,  # z e2 = 0: the witness sits at vertex 1
            (2, 1): a, (0, 1): -one,  # z a = x
            (2, 2): b, (1, 2): -one,  # z b = y
        },
    )
    rhos = {"e1": rho_unit, "x": rho_x}
    return InterpData(kron, lam, 1, PpPair(phi, zero_formula(kron, 1)), [rhos[l] for l in lam.labels])


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
def test_vertex2_sort_data_is_the_hand_written_one(case):
    field = ORACLE_FIELDS[case]
    lam, kron = lambda_algebra(field), kronecker_algebra(field)
    got, want = _vertex2_sort_data(lam, kron), ref_vertex2_sort_data(lam, kron)
    assert (got.R, got.S, got.m, len(got.rhos)) == (want.R, want.S, want.m, len(want.rhos))
    formulas = [got.phi, got.psi, *got.rhos]
    assert [f.key() for f in formulas] == [f.key() for f in [want.phi, want.psi, *want.rhos]]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_sum_formula_matches_stacked_blocks(case, data):
    field = ORACLE_FIELDS[case]
    algebra, mods = data.draw(st.sampled_from(storage_kinds(field)))
    n = data.draw(st.integers(0, 2))
    phi, psi = data.draw(dict_formulas(algebra, n))[0], data.draw(dict_formulas(algebra, n))[0]
    assert sum_formula(phi, psi).key() == ref_sum_formula(phi, psi).key()
    m, m2 = data.draw(mods), data.draw(mods)
    gen = pp_type_generator(m, data.draw(module_tuples(m, n)))
    gen2 = pp_type_generator(m2, data.draw(module_tuples(m2, n)))
    got, want = sum_formula(gen, gen2), ref_sum_formula(gen, gen2)
    assert got.key() == want.key()
    (gm, gt), (wm, wt) = got._pair, want._pair
    assert [x.key() for x in gm.action] == [x.key() for x in wm.action]
    assert [v.key() for v in gt] == [v.key() for v in wt]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
def test_embedding_bimodule_is_the_literal_one(case):
    field = ORACLE_FIELDS[case]
    lam, kron = lambda_algebra(field), kronecker_algebra(field)
    got, want = embedding_bimodule(lam, kron), ref_embedding_bimodule(lam, kron)
    assert (got.S, got.R, got.dim) == (want.S, want.R, want.dim)
    for mats, refs in [
        (got.left_action, want.left_action),
        (got.right_action, want.right_action),
        (got.generators, want.generators),
    ]:
        assert [x.key() for x in mats] == [x.key() for x in refs]
