import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcalc.formulas import (
    FormulaError,
    PpFormula,
    PpPair,
    _formula_matrix,
    conj,
    equivalent,
    eval_formula,
    free_realisation,
    implies,
    pair_open,
    pp_type_generator,
    sum_formula,
    top_formula,
    zero_formula,
)
from ppcalc.lattice import BetaMap, minimize_realisation
from ppcalc.linalg import GF, QQ, Mat, Subspace
from ppcalc.modules import (
    direct_sum,
    hom_space,
    iso_test,
    regular_module,
    zero_module,
)

from test_modules import (
    ORACLE,
    ORACLE_FIELDS,
    kronecker_modules,
    lambda_modules,
    module_maps,
    oracle_algebras,
    oracle_mats,
)

F2 = GF(2)


def div_formula(lam):
    """exists y: x - y*x = 0 (divisibility by x)."""
    one = lam.one_element()
    x = lam.basis_element("x")
    return PpFormula(lam, 1, 1, 1, {(0, 0): one, (1, 0): -x})


def ann_formula(lam):
    """x * x = 0 (annihilated by x)."""
    return PpFormula(lam, 1, 0, 1, {(0, 0): lam.basis_element("x")})


@pytest.fixture(scope="module")
def phis(lam2):
    return div_formula(lam2), ann_formula(lam2)


def test_eval_div_on_regular(lam2, reg2, phis):
    div, _ = phis
    sol = eval_formula(div, reg2)
    assert sol == Subspace.from_vectors(F2, 2, [[0, 1]])


def test_eval_ann(lam2, reg2, s1_2, phis):
    _, ann = phis
    assert eval_formula(ann, reg2) == Subspace.from_vectors(F2, 2, [[0, 1]])
    assert eval_formula(ann, s1_2) == Subspace.full(F2, 1)


def test_eval_top_and_zero(lam2, reg2):
    assert eval_formula(top_formula(lam2, 1), reg2) == Subspace.full(F2, 2)
    assert eval_formula(zero_formula(lam2, 1), reg2).dim == 0


def test_conj_intersects(lam2, reg2, s1_2, phis):
    div, ann = phis
    both = conj(div, ann)
    assert eval_formula(both, reg2) == Subspace.from_vectors(F2, 2, [[0, 1]])
    # semantics on every test module: intersection of the two solution sets
    for m in (reg2, s1_2):
        assert eval_formula(both, m) == eval_formula(div, m).intersect(
            eval_formula(ann, m)
        )


def test_sum_is_subspace_sum(lam2, reg2, s1_2, phis):
    div, ann = phis
    s = sum_formula(div, ann)
    for m in (reg2, s1_2):
        assert eval_formula(s, m) == eval_formula(div, m).sum_with(
            eval_formula(ann, m)
        )
    assert eval_formula(s, s1_2) == Subspace.full(F2, 1)


def test_sum_with_zero_is_neutral(lam2, phis):
    div, _ = phis
    assert equivalent(sum_formula(div, zero_formula(lam2, 1)), div)


def test_free_realisation_div(lam2, reg2, phis):
    div, _ = phis
    fr = free_realisation(div, via="fp")
    assert fr.module.dim == 2
    assert iso_test(fr.module, reg2)
    # the tuple is a generator image satisfying div: x-divisible
    assert eval_formula(div, fr.module).contains_vector(fr.tuple_flat())


def test_free_realisation_zero_formula(lam2):
    fr = free_realisation(zero_formula(lam2, 1), via="fp")
    assert fr.module.dim == 0


def test_free_realisation_top(lam2, reg2):
    fr = free_realisation(top_formula(lam2, 1), via="fp")
    assert fr.module.dim == 2
    assert iso_test(fr.module, reg2)
    # tuple is a free generator: its annihilator is zero
    t = fr.tuple[0]
    for elt_coeffs in ([1, 0], [0, 1], [1, 1]):
        elt = lam2.element(elt_coeffs)
        assert not (t @ fr.module.act(elt)).is_zero()


def test_pp_type_generator_simple(lam2, s1_2, phis):
    _, ann = phis
    gen = pp_type_generator(s1_2, [s1_2.element([1])])
    assert equivalent(gen, ann)
    assert gen.c == 1 and gen.e <= 1 * 2 + 1


def test_pp_type_generator_socle_element(lam2, reg2, phis):
    div, _ = phis
    gen = pp_type_generator(reg2, [reg2.element([0, 1])])
    assert equivalent(gen, div)
    assert gen.c == 2 and gen.e <= 2 * 2 + 1


def test_pp_type_generator_zero_tuple(lam2, reg2):
    gen = pp_type_generator(reg2, [reg2.zero_vector()])
    assert equivalent(gen, zero_formula(lam2, 1))


def test_pp_type_generator_eval_is_hom_orbit(lam2, reg2, s1_2):
    # eval(gen, L) = {f(a) : f in Hom(M, L)} for every pair of test modules
    mods = [reg2, s1_2, direct_sum(reg2, s1_2)[0]]
    for m in mods[:2]:
        for a_vec in m.elements():
            gen = pp_type_generator(m, [a_vec])
            for l_mod in mods:
                images = [
                    (a_vec @ f.matrix).to_rows()[0] for f in hom_space(m, l_mod)
                ]
                expected = Subspace.from_vectors(F2, l_mod.dim, images)
                assert eval_formula(gen, l_mod) == expected


def test_implies_div_ann(lam2, phis):
    div, ann = phis
    assert implies(div, ann)  # x | v forces v x = 0 since x^2 = 0
    assert not implies(ann, div)
    assert implies(div, div) and implies(ann, ann)


def test_implies_counterexample_is_simple(lam2, s1_2, phis):
    div, ann = phis
    fr = free_realisation(ann)
    assert iso_test(fr.module, s1_2)
    # inclusion fails there pointwise
    assert not eval_formula(div, fr.module).contains(eval_formula(ann, fr.module))


def test_implies_matches_pointwise_on_small_modules(lam2, reg2, s1_2, phis):
    div, ann = phis
    sample = [
        top_formula(lam2, 1),
        zero_formula(lam2, 1),
        div,
        ann,
        conj(div, ann),
        sum_formula(div, ann),
    ]
    mods = [reg2, s1_2, direct_sum(reg2, s1_2)[0], direct_sum(s1_2, s1_2)[0]]
    for a in sample:
        for b in sample:
            claimed = implies(a, b)
            pointwise = all(
                eval_formula(b, m).contains(eval_formula(a, m)) for m in mods
            )
            assert claimed == pointwise


def test_morphisms_preserve_solutions(lam2, reg2, s1_2, phis):
    div, ann = phis
    for phi in (div, ann, conj(div, ann), sum_formula(div, ann)):
        for m, n in [(reg2, s1_2), (s1_2, reg2), (reg2, reg2)]:
            sol = eval_formula(phi, m)
            for f in hom_space(m, n):
                for i in range(sol.dim):
                    v = sol.basis.row(i)
                    assert eval_formula(phi, n).contains_vector(v @ f.matrix)


def test_eval_additive_over_direct_sum(lam2, reg2, s1_2, phis):
    div, ann = phis
    d, i1, i2, _, _ = direct_sum(reg2, s1_2)
    for phi in (div, ann):
        sd = eval_formula(phi, d)
        s1 = eval_formula(phi, reg2)
        s2 = eval_formula(phi, s1_2)
        assert sd.dim == s1.dim + s2.dim
        for i in range(s1.dim):
            assert sd.contains_vector(s1.basis.row(i) @ i1.matrix)
        for i in range(s2.dim):
            assert sd.contains_vector(s2.basis.row(i) @ i2.matrix)


def test_free_realisation_universal_property(lam2, reg2, s1_2, phis):
    div, ann = phis
    for phi in (div, ann, sum_formula(div, ann)):
        fr = free_realisation(phi)
        for m in (reg2, s1_2):
            sol = eval_formula(phi, m)
            homs = hom_space(fr.module, m)
            for i in range(sol.dim):
                target = sol.basis.row(i)
                rows = [(fr.tuple[0] @ h.matrix).to_rows()[0] for h in homs]
                mat = Mat.from_rows(F2, rows) if rows else Mat.zeros(F2, 0, m.dim)
                assert mat.solve_left(target) is not None


def test_equivalence_is_congruence_spot(lam2, phis):
    div, ann = phis
    # ann ~ ann' where ann' has a duplicated equation
    x = lam2.basis_element("x")
    ann2 = PpFormula(lam2, 1, 0, 2, {(0, 0): x, (0, 1): x})
    assert equivalent(ann, ann2)
    assert equivalent(conj(div, ann), conj(div, ann2))
    assert equivalent(sum_formula(div, ann), sum_formula(div, ann2))


def test_pair_validation_and_openness(lam2, reg2, s1_2, phis):
    div, ann = phis
    pair = PpPair(ann, div)  # ann >= div
    assert pair_open(pair, s1_2)
    assert not pair_open(pair, reg2)
    assert not pair_open(PpPair(div, div), s1_2)
    with pytest.raises(FormulaError, match="rejected"):
        PpPair(div, ann)


def test_pair_open_on_zero_module(lam2, phis):
    div, ann = phis
    assert not pair_open(PpPair(ann, div), zero_module(lam2))


def test_formula_arity_checks(lam2, phis):
    div, _ = phis
    with pytest.raises(FormulaError):
        conj(div, top_formula(lam2, 2))
    with pytest.raises(FormulaError):
        implies(div, top_formula(lam2, 2))


def test_zero_columns_dropped(lam2):
    z = lam2.zero_element()
    x = lam2.basis_element("x")
    f = PpFormula(lam2, 1, 0, 3, {(0, 0): z, (0, 2): x})
    assert f.e == 1


def test_formula_pipeline_over_rationals(lamq):
    # the whole calculus also runs with exact rational arithmetic
    from ppcalc.modules import regular_module

    reg = regular_module(lamq)
    one = lamq.one_element()
    x = lamq.basis_element("x")
    div = PpFormula(lamq, 1, 1, 1, {(0, 0): one, (1, 0): -x})
    ann = PpFormula(lamq, 1, 0, 1, {(0, 0): x})
    assert eval_formula(div, reg).dim == 1
    assert implies(div, ann) and not implies(ann, div)
    gen = pp_type_generator(reg, [reg.element([0, 1])])
    assert equivalent(gen, div)
    assert equivalent(conj(div, ann), div)
    assert pair_open(PpPair(ann, div), free_realisation(ann, via="fp").module)


# -- implies against the direct system -----------------------------------
#
# implies looks for a map C_phi -> C_psi sending c_phi to c_psi.  The
# reference solves phi's own system inside C_psi at c_psi instead, so it
# reads phi's matrix and only psi's realisation.


def ref_implies(psi, phi):
    """psi <= phi iff c_psi lies in phi(C_psi), by phi's whole system."""
    fr = free_realisation(psi)
    c_mod = fr.module
    d = c_mod.dim
    big = _formula_matrix(phi, c_mod)
    tflat = fr.tuple_flat()
    if big.cols == 0:
        return True
    x_part = big.take_rows(range(phi.n * d))
    rhs = -(tflat @ x_part) if phi.n * d else Mat.zeros(c_mod.field, 1, big.cols)
    if phi.c * d == 0:
        return rhs.is_zero()
    y_part = big.take_rows(range(phi.n * d, (phi.n + phi.c) * d))
    return y_part.solve_left(rhs) is not None


def unrealised(phi):
    """The same formula with no realisation attached: implies takes the fp route."""
    return PpFormula(phi.algebra, phi.n, phi.c, phi.e, phi.coeffs)


@st.composite
def module_tuples(draw, m, n):
    return [draw(oracle_mats(m.field, 1, m.dim)) if m.dim else m.zero_vector() for _ in range(n)]


@st.composite
def generators(draw, modules, n):
    """A pp-type generator of a random n-tuple in a random module."""
    m = draw(modules)
    return pp_type_generator(m, draw(module_tuples(m, n)))


@st.composite
def realised_formulas(draw, field, kind, n):
    """An n-ary formula over Lambda ("lam") or Kronecker ("kron"), by one
    of the routes that attach a realisation, or with none attached."""
    lam, kron, emb, _ = oracle_algebras(field)
    modules = lambda_modules(field, max_dim=3) if kind == "lam" else kronecker_modules(field)
    routes = ["gen", "conj", "sum", "minimized", "fp", "top", "zero"]
    if kind == "kron" and n == len(emb.generators):
        routes.append("beta")
    route = draw(st.sampled_from(routes))
    if route == "gen":
        return draw(generators(modules, n))
    if route in ("conj", "sum"):
        both = (draw(generators(modules, n)), draw(generators(modules, n)))
        return conj(*both) if route == "conj" else sum_formula(*both)
    if route == "minimized":
        # the second summand's tuple is zero, so minimize_realisation drops it
        m = draw(modules)
        phi = sum_formula(draw(generators(modules, n)), pp_type_generator(m, [m.zero_vector()] * n))
        fr = minimize_realisation(free_realisation(phi))
        return unrealised(phi).with_realisation(fr.module, fr.tuple)
    if route == "fp":
        return unrealised(draw(generators(modules, n)))
    if route == "beta":
        return BetaMap(emb)(draw(generators(lambda_modules(field, max_dim=3), 1)))
    algebra = lam if kind == "lam" else kron
    return top_formula(algebra, n) if route == "top" else zero_formula(algebra, n)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_implies_matches_direct_system(case, data):
    field = ORACLE_FIELDS[case]
    kind, n = data.draw(st.sampled_from([("lam", 1), ("lam", 2), ("kron", 1), ("kron", 2)]))
    psi = data.draw(realised_formulas(field, kind, n))
    phi = data.draw(realised_formulas(field, kind, n))
    assert implies(psi, phi) == ref_implies(psi, phi)
    assert implies(phi, psi) == ref_implies(phi, psi)
    assert implies(psi, psi)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_implies_along_an_endomorphism(case, data):
    # gen(v f) <= gen(v) for f in End m; the converse is decided both ways
    field = ORACLE_FIELDS[case]
    m = data.draw(st.one_of(lambda_modules(field), kronecker_modules(field)))
    tup = data.draw(module_tuples(m, 2))
    f = data.draw(module_maps(m, m))
    image = pp_type_generator(m, [f(v) for v in tup])
    phi = pp_type_generator(m, tup)
    assert implies(image, phi) and ref_implies(image, phi)
    assert implies(phi, image) == ref_implies(phi, image)


def ref_pp_type_generator(m, tup):
    """pp_type_generator with the relation matrix and its kernel read row
    by row and block by block."""
    a, field, d = m.algebra, m.field, m.dim
    tup = [m.element(t) for t in tup]
    n = len(tup)
    if d:
        rel = Mat.vstack([m.action[l].row(i) for i in range(d) for l in range(a.dim)])
        ker = rel.kernel()
    else:
        ker = Mat.zeros(field, 0, 0)
    coeffs = {}
    for t in range(n):
        coeffs[(t, t)] = a.one_element()
        for i in range(d):
            g = tup[t].entry(0, i)
            if g != 0:
                coeffs[(n + i, t)] = a.scalar_element(field.neg(g))
    for j in range(ker.rows):
        for i in range(d):
            vec = ker.row(j).take_columns(range(i * a.dim, (i + 1) * a.dim))
            if not vec.is_zero():
                coeffs[(n + i, n + j)] = a.element(vec)
    return PpFormula(a, n, d, n + ker.rows, coeffs)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_pp_type_generator_matches_blockwise_reference(case, data):
    field = ORACLE_FIELDS[case]
    m = data.draw(st.one_of(lambda_modules(field), kronecker_modules(field)))
    tup = data.draw(module_tuples(m, data.draw(st.integers(0, 2))))
    gen, ref = pp_type_generator(m, tup), ref_pp_type_generator(m, tup)
    assert gen.key() == ref.key()
    assert list(gen.coeffs) == list(ref.coeffs)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_implies_top_and_zero_on_both_sides(field):
    lam = oracle_algebras(field)[0]
    for n in (0, 1, 2):
        top, zero = top_formula(lam, n), zero_formula(lam, n)
        assert free_realisation(zero).module.dim == 0
        assert implies(top, top) and implies(zero, zero) and implies(zero, top)
        assert implies(top, zero) == (n == 0)
        for psi, phi in ((top, top), (top, zero), (zero, top), (zero, zero)):
            assert implies(psi, phi) == ref_implies(psi, phi)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_implies_psi_realised_in_the_zero_module(field):
    lam = oracle_algebras(field)[0]
    reg, z = regular_module(lam), zero_module(lam)
    in_zero = pp_type_generator(z, [z.zero_vector()])
    socle = pp_type_generator(reg, [reg.element([0, 1])])
    for phi in (socle, top_formula(lam, 1), zero_formula(lam, 1), in_zero):
        assert implies(in_zero, phi)
    assert not implies(socle, in_zero)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_implies_phi_realised_in_dimension_zero(field):
    # C_phi = 0, so psi <= phi iff c_psi = 0, however large C_psi is
    lam = oracle_algebras(field)[0]
    reg, z = regular_module(lam), zero_module(lam)
    for phi in (zero_formula(lam, 1), pp_type_generator(z, [z.zero_vector()])):
        assert free_realisation(phi).module.dim == 0
        assert implies(pp_type_generator(reg, [reg.zero_vector()]), phi)
        assert not implies(pp_type_generator(reg, [reg.element([0, 1])]), phi)
        assert not implies(top_formula(lam, 1), phi)


def test_implies_does_not_call_hom_space(lam2, reg2, s1_2, phis, monkeypatch):
    # the benchmark times hom_space by its outermost calls, so implies
    # builds its own system instead of calling it
    import ppcalc.formulas
    import ppcalc.modules

    def refuse(*args):
        raise AssertionError("implies called hom_space")

    monkeypatch.setattr(ppcalc.modules, "hom_space", refuse)
    monkeypatch.setattr(ppcalc.formulas, "hom_space", refuse, raising=False)
    div, ann = phis
    gen = pp_type_generator(reg2, [reg2.element([0, 1])])
    assert implies(div, ann) and implies(gen, div) and not implies(ann, gen)
