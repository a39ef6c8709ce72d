import pytest

from ppcalc.examples import kronecker_rep, lambda_algebra, simple_lambda_module
from ppcalc.formulas import (
    PpFormula,
    PpPair,
    equivalent,
    eval_formula,
    pair_open,
    pp_type_generator,
    top_formula,
    zero_formula,
)
from ppcalc.interp import (
    BoundReport,
    InterpData,
    InterpError,
    apply_interp,
    apply_map,
    axiom_pairs,
    bounds,
    check_welldefined,
    closure_report,
    hom_interp_data,
    isolating_pair,
    pullback_pair,
)
from ppcalc.linalg import GF, Mat
from ppcalc.modules import (
    hom_space,
    identity_map,
    is_direct_summand,
    iso_test,
    regular_module,
    zero_map,
    zero_module,
)

from test_formulas import ann_formula, div_formula

F2 = GF(2)


@pytest.fixture(scope="module")
def homdata(bim2):
    return hom_interp_data(bim2)


@pytest.fixture(scope="module")
def fs1(kron2, bim2, s1_2):
    return kronecker_rep(kron2, Mat.identity(F2, 1), Mat.zeros(F2, 1, 1))


@pytest.fixture(scope="module")
def s2_kron(kron2):
    # simple module at the second vertex: not in the functor's image
    return kronecker_rep(kron2, Mat.zeros(F2, 0, 1), Mat.zeros(F2, 0, 1))


def test_hom_data_shape(homdata, kron2, lam2):
    assert homdata.m == 2
    assert homdata.R == kron2 and homdata.S == lam2
    assert len(homdata.rhos) == 2
    for rho in homdata.rhos:
        assert rho.n == 4 and rho.c == 0  # quantifier-free actions


def test_hom_data_welldefined_everywhere(homdata, bim2, fs1, s2_kron, kron2):
    for m in (bim2.right_module(), fs1, s2_kron, regular_module(kron2)):
        assert check_welldefined(homdata, m)["ok"]


def test_hom_data_axioms_closed(homdata, bim2, fs1, s2_kron):
    pairs = axiom_pairs(homdata)
    assert len(pairs) == 2 * 2 + 2 * 2  # p^2 + 2p with p = 2
    for m in (bim2.right_module(), fs1, s2_kron):
        assert closure_report(pairs, m)["ok"]


def test_apply_to_bimodule_gives_regular(homdata, bim2, lam2, reg2):
    img = apply_interp(homdata, bim2.right_module())
    assert img.module.dim == 2
    assert iso_test(img.module, reg2)


def test_apply_to_small_rep_gives_simple(homdata, fs1, s1_2):
    img = apply_interp(homdata, fs1)
    assert img.module.dim == 1
    assert iso_test(img.module, s1_2)


def test_apply_to_zero_and_to_nonimage(homdata, kron2, s2_kron):
    assert apply_interp(homdata, zero_module(kron2)).module.dim == 0
    assert apply_interp(homdata, s2_kron).module.dim == 0


def test_apply_respects_direct_sums(homdata, bim2, fs1):
    from ppcalc.modules import direct_sum

    d, _, _, _, _ = direct_sum(bim2.right_module(), fs1)
    img = apply_interp(homdata, d)
    assert img.module.dim == 3
    parts = sorted(
        p.dim for p, _, _ in __import__("ppcalc.modules", fromlist=["decompose"]).decompose(img.module, 0)
    )
    assert parts == [1, 2]


def test_apply_map_identity_and_zero(homdata, fs1, bim2):
    img = apply_interp(homdata, fs1)
    ident = apply_map(homdata, identity_map(fs1), img, img)
    assert ident.matrix == Mat.identity(F2, img.module.dim)
    imgb = apply_interp(homdata, bim2.right_module())
    z = apply_map(homdata, zero_map(fs1, bim2.right_module()), img, imgb)
    assert z.is_zero()


def test_apply_map_functorial(homdata, fs1, bim2):
    b_right = bim2.right_module()
    img_s, img_b = apply_interp(homdata, fs1), apply_interp(homdata, b_right)
    for f in hom_space(fs1, b_right):
        for g in hom_space(b_right, fs1):
            lhs = apply_map(homdata, f.then(g), img_s, img_s)
            rhs = apply_map(homdata, f, img_s, img_b).then(
                apply_map(homdata, g, img_b, img_s)
            )
            assert lhs.matrix == rhs.matrix


def test_apply_map_split_pair(homdata, fs1, bim2):
    from ppcalc.modules import direct_sum

    total, _, _, _, _ = direct_sum(bim2.right_module(), fs1)
    ok, (f, g) = is_direct_summand(fs1, total)
    assert ok
    img_s, img_t = apply_interp(homdata, fs1), apply_interp(homdata, total)
    comp = apply_map(homdata, f, img_s, img_t).then(apply_map(homdata, g, img_t, img_s))
    assert comp.matrix == Mat.identity(F2, img_s.module.dim)


def test_welldefined_failure_is_reported(lam2, reg2):
    # rho with no link between input and output fails condition (2)
    top = top_formula(lam2, 1)
    free_pair = PpPair(top, zero_formula(lam2, 1))
    loose = top_formula(lam2, 2)  # relates everything to everything
    data = InterpData(lam2, lam2, 1, free_pair, [loose, loose])
    report = check_welldefined(data, reg2)
    assert not report["ok"]
    gen = report["generators"][0]
    assert gen["cond1"] and not gen["cond2"]
    assert "cond2_witness" in gen
    with pytest.raises(InterpError, match="not well-defined"):
        apply_interp(data, reg2)


def test_axiom_pairs_catch_wrong_composition(lam2, reg2):
    # "x acts as the identity" is well-defined but violates x*x = 0
    one = lam2.one_element()
    graph = PpFormula(lam2, 2, 0, 1, {(0, 0): one, (1, 0): -one})  # y = x
    pair = PpPair(top_formula(lam2, 1), zero_formula(lam2, 1))
    data = InterpData(lam2, lam2, 1, pair, [graph, graph])
    assert check_welldefined(data, reg2)["ok"]
    report = closure_report(axiom_pairs(data), reg2)
    assert not report["ok"]
    open_names = [e["pair"] for e in report["pairs"] if not e["closed"]]
    assert any(name.startswith("compose[x,x]") for name in open_names)
    with pytest.raises(InterpError, match="axiom pairs open"):
        apply_interp(data, reg2)


def test_identity_interpretation(lam2, reg2, s1_2):
    # phi = (x = x), psi = (x = 0), rho_s the graph of the s-action
    one = lam2.one_element()
    x = lam2.basis_element("x")
    rho_one = PpFormula(lam2, 2, 0, 1, {(0, 0): one, (1, 0): -one})
    rho_x = PpFormula(lam2, 2, 0, 1, {(0, 0): x, (1, 0): -one})
    pair = PpPair(top_formula(lam2, 1), zero_formula(lam2, 1))
    data = InterpData(lam2, lam2, 1, pair, [rho_one, rho_x])
    for m in (reg2, s1_2):
        img = apply_interp(data, m)
        assert img.module.dim == m.dim
        assert iso_test(img.module, m)


# -- isolation ----------------------------------------------------------


def test_isolating_pair_simple(lam2, s1_2, reg2):
    iso = isolating_pair(s1_2, s1_2.element([1]), [s1_2, reg2])
    assert equivalent(iso.pair.top, ann_formula(lam2))
    assert equivalent(iso.pair.bottom, div_formula(lam2))
    assert iso.pair.top.c == 1 and iso.pair.top.e <= 1 * 2 + 1
    assert iso.open_on(s1_2)
    assert not iso.open_on(reg2)


def test_isolating_pair_regular_over_f3():
    lam = lambda_algebra(GF(3))
    s1 = simple_lambda_module(lam)
    reg = regular_module(lam)
    iso = isolating_pair(reg, reg.element([1, 0]), [s1, reg])
    assert iso.open_on(reg)
    assert not iso.open_on(s1)
    from ppcalc.modules import direct_sum

    both, _, _, _, _ = direct_sum(s1, reg)
    assert iso.open_on(both)
    twice_s1, _, _, _, _ = direct_sum(s1, s1)
    assert not iso.open_on(twice_s1)


def test_isolating_pair_open_on_subject(lam2, s1_2, reg2):
    for vec in ([1],):
        iso = isolating_pair(s1_2, s1_2.element(vec), [s1_2, reg2])
        assert iso.open_on(s1_2)


def test_isolating_pair_rejects_zero_element(lam2, s1_2, reg2):
    with pytest.raises(InterpError, match="nonzero"):
        isolating_pair(s1_2, s1_2.zero_vector(), [s1_2, reg2])


# -- pullback and bounds -------------------------------------------------


def test_bounds_reference_values():
    rep = bounds(1, 2, 2, 0, 0, [0, 0], 4)
    assert rep.n_d == 16
    assert rep.b_d == 72


def test_bounds_degenerate_and_monotone():
    assert bounds(1, 1, 1, 0, 0, [0], 1).n_d == 5
    prev = 0
    for d in range(1, 6):
        nd = bounds(d, 2, 2, 3, 1, [2, 2], 4).n_d
        assert nd > prev
        prev = nd


def test_pullback_pair_matches_summand_oracle(homdata, lam2, s1_2, reg2, bim2, fs1, s2_kron, kron2):
    iso = isolating_pair(s1_2, s1_2.element([1]), [s1_2, reg2])
    sigma_tau, report = pullback_pair(homdata, iso.pair, d=1)
    assert report.c_sigma <= report.n_d
    assert report.n_d == bounds(1, 2, 2, homdata.phi.c, 0, [0, 0], 4).n_d
    for m in (fs1, s2_kron, bim2.right_module(), regular_module(kron2)):
        img = apply_interp(homdata, m, check=False)
        expected = is_direct_summand(s1_2, img.module)[0]
        assert pair_open(sigma_tau, m) == expected


def test_pullback_shape_guard(homdata, lam2):
    top = top_formula(lam2, 1)  # c = 0, not the required presentation shape
    pair = PpPair(top, zero_formula(lam2, 1))
    with pytest.raises(InterpError, match="presentation shape"):
        pullback_pair(homdata, pair, d=1)


def test_zero_action_rho_is_welldefined(lam2, reg2):
    # the graph y = 0 always defines the zero endomorphism of the sort
    one = lam2.one_element()
    y_zero = PpFormula(lam2, 2, 0, 1, {(1, 0): one})
    pair = PpPair(top_formula(lam2, 1), zero_formula(lam2, 1))
    rho_one = PpFormula(lam2, 2, 0, 1, {(0, 0): one, (1, 0): -one})
    data = InterpData(lam2, lam2, 1, pair, [rho_one, y_zero])
    assert check_welldefined(data, reg2)["ok"]
    img = apply_interp(data, reg2)
    x_idx = lam2.labels.index("x")
    assert img.module.action[x_idx].is_zero()


def test_identity_bimodule_hom_data_is_identity_functor(lam2, reg2, s1_2):
    from ppcalc.modules import Bimodule

    reg = regular_module(lam2)
    idbim = Bimodule(
        lam2, lam2, 2,
        [reg.act(lam2.basis_element(i)) for i in range(2)],
        reg.action,
        [lam2.one],
    )
    data = hom_interp_data(idbim)
    for m in (reg2, s1_2):
        img = apply_interp(data, m)
        assert iso_test(img.module, m)


def test_apply_dim_matches_hom_dim_oracle(homdata, bim2, kron2, fs1, s2_kron):
    b_right = bim2.right_module()
    for m in (b_right, fs1, s2_kron, regular_module(kron2)):
        img = apply_interp(homdata, m, check=False)
        assert img.module.dim == len(hom_space(b_right, m))


def test_apply_additive_on_all_inventory_pairs(homdata, lam2, kron2):
    from ppcalc.inventory import enumerate_indecomposables
    from ppcalc.modules import decompose, direct_sum

    inv = enumerate_indecomposables(kron2, 3, seed=0)
    for i, m in enumerate(inv.members):
        for n in inv.members[i:]:
            d, _, _, _, _ = direct_sum(m, n)
            img_sum = apply_interp(homdata, d, check=False)
            dims = sorted(
                p.dim for p, _, _ in decompose(img_sum.module, 0)
            ) if img_sum.module.dim else []
            img_m = apply_interp(homdata, m, check=False)
            img_n = apply_interp(homdata, n, check=False)
            parts = sorted(
                p.dim
                for mod in (img_m.module, img_n.module)
                if mod.dim
                for p, _, _ in decompose(mod, 0)
            )
            assert img_sum.module.dim == img_m.module.dim + img_n.module.dim
            assert dims == parts


def test_pullback_pair_d2_regular_subject():
    # pull back the pair isolating the two-dimensional regular module
    # (d = 2: several witness blocks per bound variable of the input pair)
    from ppcalc.examples import embedding_bimodule, kronecker_algebra, lambda_algebra
    from ppcalc.inventory import enumerate_indecomposables

    lam = lambda_algebra(GF(3))
    kron = kronecker_algebra(GF(3))
    bim = embedding_bimodule(lam, kron)
    data = hom_interp_data(bim)
    lam_inv = enumerate_indecomposables(lam, 2, seed=0)
    reg = lam_inv.by_dim(2)[0]
    iso = isolating_pair(reg, reg.basis_vector(0), lam_inv.members, 0)
    sigma_tau, report = pullback_pair(data, iso.pair, d=2)
    assert report.c_sigma <= report.n_d
    kron_inv = enumerate_indecomposables(kron, 3, seed=0)
    # the bimodule itself is the essential positive case: its value is the
    # regular module
    probes = list(kron_inv.members) + [bim.right_module()]
    hits = 0
    for m in probes:
        img = apply_interp(data, m, check=False)
        expected = is_direct_summand(reg, img.module)[0]
        hits += expected
        assert pair_open(sigma_tau, m) == expected
    assert hits >= 1
