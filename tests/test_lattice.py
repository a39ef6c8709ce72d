import pytest

from ppcalc.formulas import (
    PpFormula,
    conj,
    equivalent,
    eval_formula,
    free_realisation,
    implies,
    pp_type_generator,
    sum_formula,
    top_formula,
    zero_formula,
)
from ppcalc.lattice import (
    BetaMap,
    beta,
    meet_via_pushout,
    standard_sample,
    verify_embedding,
    verify_lattice_hom,
)
from ppcalc.linalg import GF, Mat
from ppcalc.modules import Bimodule, direct_sum, iso_test, regular_module

from test_formulas import ann_formula, div_formula

F2 = GF(2)


@pytest.fixture(scope="module")
def identity_bimodule(lam2):
    reg = regular_module(lam2)
    return Bimodule(
        lam2, lam2, 2,
        [reg.act(lam2.basis_element(i)) for i in range(2)],
        reg.action,
        [lam2.one],
    )


@pytest.fixture(scope="module")
def bmap2(bim2):
    return BetaMap(bim2)


def test_beta_identity_bimodule_fixes_formulas(lam2, identity_bimodule):
    bm = BetaMap(identity_bimodule)
    for phi in (div_formula(lam2), ann_formula(lam2), top_formula(lam2, 1)):
        assert equivalent(beta(bm, phi), phi)


def test_beta_of_zero_formula(lam2, bmap2):
    bz = beta(bmap2, zero_formula(lam2, 1))
    assert equivalent(bz, zero_formula(bmap2.bimodule.R, 2))


def test_beta_of_top_is_generator_of_bimodule_tuple(lam2, kron2, bim2, bmap2):
    bt = beta(bmap2, top_formula(lam2, 1))
    direct = pp_type_generator(bim2.right_module(), bim2.generators)
    assert equivalent(bt, direct)


def test_beta_arity_guard(lam2, bmap2):
    from ppcalc.formulas import FormulaError

    with pytest.raises(FormulaError, match="arity 1"):
        beta(bmap2, top_formula(lam2, 2))


def test_beta_strictness_hand_examples(lam2, bmap2):
    div, ann = div_formula(lam2), ann_formula(lam2)
    b_div, b_ann = beta(bmap2, div), beta(bmap2, ann)
    assert implies(b_div, b_ann)
    assert not implies(b_ann, b_div)  # strictness survives the embedding
    b_top = beta(bmap2, top_formula(lam2, 1))
    b_zero = beta(bmap2, zero_formula(lam2, 1))
    assert implies(b_div, b_top) and not implies(b_top, b_div)
    assert implies(b_zero, b_div) and not implies(b_div, b_zero)


def test_beta_monotone(lam2, bmap2):
    sample = [
        top_formula(lam2, 1),
        zero_formula(lam2, 1),
        div_formula(lam2),
        ann_formula(lam2),
    ]
    betas = [beta(bmap2, f) for f in sample]
    for i, fi in enumerate(sample):
        for j, fj in enumerate(sample):
            if implies(fi, fj):
                assert implies(betas[i], betas[j])


def test_meet_via_pushout_idempotent(lam2):
    div = div_formula(lam2)
    fr = meet_via_pushout(div, div)
    base = free_realisation(div, via="fp")
    assert iso_test(fr.module, base.module)
    assert equivalent(pp_type_generator(fr.module, fr.tuple), div)


def test_meet_via_pushout_vs_conj(lam2):
    div, ann = div_formula(lam2), ann_formula(lam2)
    fr = meet_via_pushout(div, ann)
    assert equivalent(pp_type_generator(fr.module, fr.tuple), conj(div, ann))


def test_meet_with_top_is_neutral(lam2):
    div = div_formula(lam2)
    fr = meet_via_pushout(div, top_formula(lam2, 1))
    assert equivalent(pp_type_generator(fr.module, fr.tuple), div)


def test_beta_independent_of_realisation_route(lam2, bmap2):
    # fp-presentation route vs the attached small-realisation route
    div, ann = div_formula(lam2), ann_formula(lam2)
    for phi in (conj(div, ann), sum_formula(div, ann), conj(ann, ann)):
        fresh = PpFormula(lam2, phi.n, phi.c, phi.e, phi.dense())
        assert fresh._realisation is None  # fp route will be used
        assert equivalent(beta(bmap2, fresh), beta(bmap2, phi))


def test_beta_independent_of_padding(lam2, s1_2, bmap2):
    # (C + junk, (c, 0)) realises the same formula; beta must not change
    div = div_formula(lam2)
    fr = free_realisation(div)
    padded_mod, i1, _, _, _ = direct_sum(fr.module, s1_2)
    fresh = PpFormula(lam2, div.n, div.c, div.e, div.dense())
    fresh.with_realisation(padded_mod, [i1(fr.tuple[0])])
    assert equivalent(beta(bmap2, fresh), beta(bmap2, div))


def test_standard_sample_shape(lam2, s1_2, reg2):
    base = standard_sample(lam2, [s1_2, reg2], close=False)
    # zero formula, plus generators of: 1 in S1; 1, x, 1+x in the regular
    assert len(base) == 5
    closed = standard_sample(lam2, [s1_2, reg2])
    assert len(closed) >= 10
    assert len({f.key() for f in closed}) == len(closed)


def test_verify_lattice_hom_identity(lam2, identity_bimodule, s1_2, reg2):
    sample = standard_sample(lam2, [s1_2, reg2], close=False)
    report = verify_lattice_hom(BetaMap(identity_bimodule), sample)
    assert report["ok"]
    report = verify_embedding(BetaMap(identity_bimodule), sample)
    assert report["ok"] and report["strict_pairs"] > 0


def test_verify_lattice_hom_embedding_bimodule_base(lam2, bmap2, s1_2, reg2):
    sample = standard_sample(lam2, [s1_2, reg2], close=False)
    report = verify_lattice_hom(bmap2, sample)
    assert report["ok"], report["failures"]
    report = verify_embedding(bmap2, sample)
    assert report["ok"], report["failures"]


def test_beta_agrees_with_hom_functor_route(lam2, kron2, bim2, bmap2, s1_2, reg2):
    # Independent oracle via the tensor-hom adjunction: solutions of the
    # image formula in N are exactly the tuple evaluations of solutions of
    # the original formula in Hom(B, N).
    from ppcalc.interp import apply_interp, hom_interp_data
    from ppcalc.inventory import enumerate_indecomposables

    homdata = hom_interp_data(bim2)
    inv = enumerate_indecomposables(kron2, 3, seed=0)
    sample = standard_sample(lam2, [s1_2, reg2], close=False)
    sample += [conj(sample[2], sample[3]), sum_formula(sample[2], sample[3])]
    for n_mod in inv.members:
        img = apply_interp(homdata, n_mod, check=False)
        amb = 2 * n_mod.dim
        if img.module.dim:
            lift = Mat.vstack([r for r in img.reps])
        for phi in sample:
            direct = eval_formula(beta(bmap2, phi), n_mod)
            through = eval_formula(phi, img.module)
            rows = [
                (through.basis.row(i) @ lift).to_rows()[0]
                for i in range(through.dim)
            ]
            from ppcalc.linalg import Subspace

            expected = Subspace.from_vectors(GF(2), amb, rows)
            assert direct == expected, (phi, n_mod.dim)


def test_order_table_is_pairwise_implies(lam2, s1_2, reg2):
    from ppcalc.lattice import order_table

    sample = standard_sample(lam2, [s1_2, reg2], close=False)
    sample += [conj(sample[2], sample[3]), sum_formula(sample[2], sample[3])]
    table = order_table(sample)
    assert table == [[implies(a, b) for b in sample] for a in sample]
    assert any(not row[0] for row in table)  # not every formula implies zero


@pytest.mark.parametrize("bimodule", ["bmap2", "identity_bimodule"])
def test_verifiers_agree_with_passed_betas_and_order(request, lam2, s1_2, reg2, bimodule):
    from ppcalc.lattice import order_table

    fixture = request.getfixturevalue(bimodule)
    bmap = fixture if isinstance(fixture, BetaMap) else BetaMap(fixture)
    sample = standard_sample(lam2, [s1_2, reg2], close=False)
    betas = [beta(bmap, f) for f in sample]
    order = order_table(sample)
    assert verify_lattice_hom(bmap, sample, betas, order) == verify_lattice_hom(bmap, sample)
    assert verify_embedding(bmap, sample, betas, order) == verify_embedding(bmap, sample)
    assert verify_embedding(bmap, sample, order=order)["strict_pairs"] > 0
