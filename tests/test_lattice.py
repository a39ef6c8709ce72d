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
    order_table,
    standard_sample,
    verify_embedding,
    verify_lattice_hom,
)
from ppcalc.linalg import GF, Mat
from ppcalc.modules import Bimodule, direct_sum, regular_module

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
    fresh = fresh.with_realisation(padded_mod, [i1(fr.tuple[0])])
    assert equivalent(beta(bmap2, fresh), beta(bmap2, div))


def test_sample_path_keeps_its_realisations(lam2, bmap2, monkeypatch):
    # every formula standard_sample, beta, conj and sum_formula build carries
    # a realisation, so the order table and the lattice checks never fall
    # back to a finitely presented build per call
    import ppcalc.formulas
    from ppcalc.inventory import enumerate_indecomposables

    def refuse(*args):
        raise AssertionError("a formula on the sample path lost its realisation")

    monkeypatch.setattr(ppcalc.formulas, "fp_module", refuse)
    sample = standard_sample(lam2, enumerate_indecomposables(lam2, 2).members)
    order = order_table(sample)
    assert all(order[i][i] for i in range(len(sample)))
    betas = [beta(bmap2, f) for f in sample]
    for i, bi in enumerate(betas):
        for bj in betas[i:]:
            for made in (conj(bi, bj), sum_formula(bi, bj)):
                assert implies(made, made)


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


def reference_verify_lattice_hom(bmap, sample, betas, order):
    """The per-pair check with nothing shared: beta of every pair formula
    and conj/sum_formula of the two images built anew for every pair."""
    from ppcalc.io import formula_to_json

    def witness(law, i, j):
        return {
            "law": law,
            "pair": [i, j],
            "witness_formulas": [formula_to_json(sample[i]), formula_to_json(sample[j])],
        }

    failures, pairs = [], 0
    for i in range(len(sample)):
        for j in range(i, len(sample)):
            pairs += 1
            if not equivalent(beta(bmap, conj(sample[i], sample[j])), conj(betas[i], betas[j])):
                failures.append(witness("meet", i, j))
            if not equivalent(beta(bmap, sum_formula(sample[i], sample[j])), sum_formula(betas[i], betas[j])):
                failures.append(witness("join", i, j))
    for i in range(len(sample)):
        for j in range(len(sample)):
            if i != j and order[i][j] and not implies(betas[i], betas[j]):
                failures.append(witness("order", i, j))
    return {
        "check": "lattice-homomorphism",
        "sample_size": len(sample),
        "pairs_checked": pairs,
        "failures": failures,
        "ok": not failures,
    }


def without_work_counts(report):
    return {k: v for k, v in report.items() if k not in ("images_built", "laws_decided")}


@pytest.fixture(scope="module")
def acceptance_sample(lam2, bmap2):
    """The sample of acceptance criteria 1-2: Lambda's indecomposables to dim 3."""
    from ppcalc.inventory import enumerate_indecomposables

    sample = standard_sample(lam2, enumerate_indecomposables(lam2, 3, seed=0).members)
    return sample, [beta(bmap2, f) for f in sample], order_table(sample)


def test_verify_lattice_hom_matches_reference_on_acceptance_sample(bmap2, acceptance_sample, monkeypatch):
    import ppcalc.lattice

    sample, betas, order = acceptance_sample
    want = reference_verify_lattice_hom(bmap2, sample, betas, order)
    calls = {"beta": 0, "equivalent": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(ppcalc.lattice, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(ppcalc.lattice, name, counted)
    got = verify_lattice_hom(bmap2, sample, betas, order)
    assert (len(sample), got["pairs_checked"]) == (25, 325)
    assert got["ok"] and without_work_counts(got) == want
    # 650 pair formulas with 113 distinct free realisations; one equivalent
    # per law and distinct tuple of sample and image representatives
    assert calls == {"beta": 113, "equivalent": 206}
    assert got["images_built"] == 113


def test_verify_lattice_hom_matches_reference_with_rotated_betas(bmap2, acceptance_sample):
    # wrong images: meet, join and order all fail, and the failures must
    # come in the reference's order (by pair, meet before join, then order)
    sample, betas, order = acceptance_sample
    rotated = betas[1:] + betas[:1]
    want = reference_verify_lattice_hom(bmap2, sample, rotated, order)
    got = verify_lattice_hom(bmap2, sample, rotated, order)
    assert without_work_counts(got) == want
    assert len(got["failures"]) == 645
    assert {f["law"] for f in got["failures"]} == {"meet", "join", "order"}


def test_verify_lattice_hom_matches_reference_without_realisations(lam2, bmap2, s1_2, reg2, monkeypatch):
    import ppcalc.formulas

    base = standard_sample(lam2, [s1_2, reg2], close=False)
    base += [conj(base[2], base[3]), sum_formula(base[2], base[3])]
    sample = [PpFormula(lam2, f.n, f.c, f.e, f.matrix) for f in base]
    assert all(f.realisation is None for f in sample)
    betas = [beta(bmap2, f) for f in sample]
    order = order_table(sample)
    want = reference_verify_lattice_hom(bmap2, sample, betas, order)
    built = []
    fp_module = ppcalc.formulas.fp_module
    monkeypatch.setattr(ppcalc.formulas, "fp_module", lambda *a: built.append(a) or fp_module(*a))
    got = verify_lattice_hom(bmap2, sample, betas, order)
    assert without_work_counts(got) == want and got["ok"]
    # each sample formula's finitely presented realisation is built once;
    # the pair formulas of its representative carry theirs
    assert len(built) == len(sample) == 7


def test_forget_x_bimodule_is_a_lattice_hom_but_not_an_embedding(forget_x2, acceptance_sample):
    # negative control for criterion 2: the embedding check must catch a
    # functor that is exact (so the homomorphism check passes) yet loses x
    sample, _, order = acceptance_sample
    bmap = BetaMap(forget_x2)
    betas = [beta(bmap, f) for f in sample]
    hom = verify_lattice_hom(bmap, sample, betas, order)
    assert hom["ok"] and hom["pairs_checked"] == 325
    emb = verify_embedding(bmap, sample, betas, order)
    assert not emb["ok"]
    assert (emb["strict_pairs"], len(emb["failures"])) == (225, 25)
    assert emb["failures"][0]["pair"] == [3, 1]


def test_pair_realisations_depend_only_on_representatives(acceptance_sample):
    # what makes per-representative verdicts exact: conj and sum_formula of
    # a pair have the realisation of the same construction on the pair's
    # representatives
    from ppcalc.lattice import _realised, _representatives

    sample = acceptance_sample[0]
    reps = _representatives(sample)
    assert len({id(r) for r in reps}) == 12
    for i in range(len(sample)):
        assert _realised(reps[i])[1] == _realised(sample[i])[1]
        for j in range(i, len(sample)):
            for make in (conj, sum_formula):
                assert _realised(make(sample[i], sample[j]))[1] == _realised(make(reps[i], reps[j]))[1]


def test_order_table_is_pairwise_implies_on_acceptance_sample(lam2, acceptance_sample, monkeypatch):
    import ppcalc.formulas
    import ppcalc.lattice

    sample, _, order = acceptance_sample
    assert order == [[implies(a, b) for b in sample] for a in sample]
    bare = [PpFormula(lam2, f.n, f.c, f.e, f.matrix) for f in sample]
    assert all(f.realisation is None for f in bare)
    want = [[implies(a, b) for b in bare] for a in bare]
    calls, built = [], []
    monkeypatch.setattr(ppcalc.lattice, "implies", lambda *a: calls.append(a) or implies(*a))
    fp_module = ppcalc.formulas.fp_module
    monkeypatch.setattr(ppcalc.formulas, "fp_module", lambda *a: built.append(a) or fp_module(*a))
    assert order_table(bare) == want == order
    # one implies per pair of the 12 distinct realisations, and each
    # formula's finitely presented realisation built once
    assert (len(calls), len(built)) == (144, 25)


def test_laws_decided_counts_distinct_key_pairs(bmap2, acceptance_sample):
    # 25 sample formulas (and their images) fall into 12 realisations, and
    # the 325 pairs i <= j into 103 distinct pairs of representatives
    sample, betas, order = acceptance_sample
    report = verify_lattice_hom(bmap2, sample, betas, order)
    assert (report["pairs_checked"], report["laws_decided"]) == (325, 103)


def test_pointwise_check_without_the_regular_module_disagrees(lam2, acceptance_sample):
    # negative control for criterion 3: Lambda's dim-2 member is what
    # separates the formulas the order table separates
    from ppcalc.acceptance import _pointwise_mismatches
    from ppcalc.inventory import enumerate_indecomposables

    sample, _, order = acceptance_sample
    members = enumerate_indecomposables(lam2, 4, seed=0).members
    assert [m.dim for m in members] == [1, 2]
    assert _pointwise_mismatches(sample, order, members) == []
    mismatches = _pointwise_mismatches(sample, order, [m for m in members if m.dim != 2])
    assert len(mismatches) == 75
    assert mismatches[0] == [2, 1]


def loop_embedding_bimodule(s, r):
    """The bimodule of F(M) = (M => M => M; 1, x, y) on S_S, for S = k<x,y>/(x,y)^2.

    r is the 3-Kronecker algebra (arrows a, b, c).  Built as
    embedding_bimodule is: the right action is F on the regular module,
    left multiplications act in both vertex blocks, and the generators
    are the vertex-1 basis.
    """
    f, d = s.field, s.dim
    reg = regular_module(s)
    one, zero = Mat.identity(f, d), Mat.zeros(f, d, d)

    def blocks(top_left, top_right, bottom_right):
        return Mat.vstack([Mat.hstack([top_left, top_right]), Mat.hstack([zero, bottom_right])])

    x, y = (reg.action[s.labels.index(name)] for name in "xy")
    named = {
        "e1": blocks(one, zero, zero),
        "e2": blocks(zero, zero, one),
        "a": blocks(zero, one, zero),
        "b": blocks(zero, x, zero),
        "c": blocks(zero, y, zero),
    }
    left = [Mat.identity(f, 2).kron(s.left_mult_matrix(s.basis_element(i).coeffs)) for i in range(d)]
    gens = [Mat.identity(f, 2 * d).row(i) for i in range(d)]
    return Bimodule(s, r, 2 * d, left, [named[label] for label in r.labels], gens)


def test_wild_three_kronecker_lattice_embedding():
    # the wild case: S = k<x,y>/(x,y)^2 into the 3-Kronecker quiver over GF(2)
    from ppcalc.algebra import QuiverSpec, algebra_from_quiver
    from ppcalc.inventory import enumerate_indecomposables

    square = [[(1, [a, b])] for a in "xy" for b in "xy"]
    s = algebra_from_quiver(QuiverSpec(1, [(1, 1, "x"), (1, 1, "y")], relations=square), F2)
    k3 = algebra_from_quiver(QuiverSpec(2, [(1, 2, "a"), (1, 2, "b"), (1, 2, "c")]), F2)
    bmap = BetaMap(loop_embedding_bimodule(s, k3))
    sample = standard_sample(s, enumerate_indecomposables(s, 2, seed=0).members, close=False)
    betas = [beta(bmap, f) for f in sample]
    order = order_table(sample)
    hom = verify_lattice_hom(bmap, sample, betas, order)
    assert (len(sample), hom["pairs_checked"]) == (11, 66)
    assert hom["ok"], hom["failures"]
    assert without_work_counts(hom) == reference_verify_lattice_hom(bmap, sample, betas, order)
    emb = verify_embedding(bmap, sample, betas, order)
    assert emb["ok"] and emb["strict_pairs"] == 37


def wild_algebras(field):
    """S = k<x,y>/(x,y)^2 and the 3-Kronecker algebra (arrows a, b, c) over field."""
    from ppcalc.algebra import QuiverSpec, algebra_from_quiver

    square = [[(1, [a, b])] for a in "xy" for b in "xy"]
    s = algebra_from_quiver(QuiverSpec(1, [(1, 1, "x"), (1, 1, "y")], relations=square), field)
    k3 = algebra_from_quiver(QuiverSpec(2, [(1, 2, "a"), (1, 2, "b"), (1, 2, "c")]), field)
    return s, k3


@pytest.mark.parametrize("p", [2, 3])
def test_embedding_bimodule_on_two_loops_is_the_loop_bimodule(p):
    # embedding_bimodule reads the loops and arrows from the quivers, so on
    # S and K_3 it is the bimodule written out above, matrix for matrix
    from ppcalc.examples import embedding_bimodule

    s, k3 = wild_algebras(GF(p))
    got, want = embedding_bimodule(s, k3), loop_embedding_bimodule(s, k3)
    assert (got.S, got.R, got.dim) == (want.S, want.R, want.dim) == (s, k3, 6)
    for mats, refs in [
        (got.left_action, want.left_action),
        (got.right_action, want.right_action),
        (got.generators, want.generators),
    ]:
        assert [x.key() for x in mats] == [x.key() for x in refs]
