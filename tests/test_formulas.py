import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcalc.formulas import (
    FormulaError,
    PpFormula,
    PpPair,
    _formula_matrix,
    assemble,
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
from ppcalc.lattice import BetaMap
from ppcalc.linalg import GF, QQ, Mat, Subspace
from ppcalc.modules import (
    FDModule,
    direct_sum,
    fp_module,
    hom_space,
    iso_test,
    regular_module,
    tensor_over,
    zero_module,
)

from test_linalg import assert_canonical, old_kernel_basis
from test_modules import (
    ORACLE,
    ORACLE_FIELDS,
    kronecker_modules,
    lambda_modules,
    module_maps,
    oracle_algebras,
    oracle_mats,
    truncated_algebra,
    truncated_modules,
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
    fr = free_realisation(div)
    assert fr.module.dim == 2
    assert iso_test(fr.module, reg2)
    # the tuple is a generator image satisfying div: x-divisible
    assert eval_formula(div, fr.module).contains_vector(Mat.hstack(fr.tuple))


def test_free_realisation_zero_formula(lam2):
    fr = free_realisation(unrealised(zero_formula(lam2, 1)))
    assert fr.module.dim == 0


def test_free_realisation_top(lam2, reg2):
    fr = free_realisation(unrealised(top_formula(lam2, 1)))
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
    assert pair_open(PpPair(ann, div), free_realisation(ann).module)


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
    tflat = Mat.hstack([Mat.zeros(c_mod.field, 1, 0), *fr.tuple])
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
    routes = ["gen", "conj", "sum", "fp", "top", "zero"]
    if kind == "kron" and n == len(emb.generators):
        routes.append("beta")
    route = draw(st.sampled_from(routes))
    if route == "gen":
        return draw(generators(modules, n))
    if route in ("conj", "sum"):
        both = (draw(generators(modules, n)), draw(generators(modules, n)))
        return conj(*both) if route == "conj" else sum_formula(*both)
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


def test_with_realisation_leaves_the_original_unrealised(lam2, reg2, phis):
    div, _ = phis
    x = reg2.element([0, 1])
    realised = div.with_realisation(reg2, [x])
    assert div._realisation is None
    assert realised == div and realised is not div
    assert realised._realisation.module is reg2 and realised._realisation.tuple == (x,)


def test_free_realisation_writes_nothing(lam2, phis):
    div, _ = phis
    fr = free_realisation(div)
    assert div._realisation is None
    # built anew on each call, with the same content
    assert free_realisation(div) is not fr and free_realisation(div) == fr


def test_a_realisation_handed_out_cannot_be_rewritten(reg2):
    # the realisation is one immutable value: no caller can change the
    # tuple that implies reads
    one, x = reg2.element([1, 0]), reg2.element([0, 1])
    phi, psi = pp_type_generator(reg2, [x]), pp_type_generator(reg2, [one])
    assert phi.realisation is free_realisation(phi)
    with pytest.raises(TypeError):
        free_realisation(phi).tuple[0] = one
    assert not implies(psi, phi)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_zero_and_top_realisations_agree_with_fp(field):
    lam = oracle_algebras(field)[0]
    for n in (0, 1, 2):
        for phi in (zero_formula(lam, n), top_formula(lam, n)):
            attached, fp = phi._realisation, free_realisation(unrealised(phi))
            assert attached is not None
            assert attached.module.dim == fp.module.dim
            # implies reads the attached realisation of phi, the fp one of the copy
            assert implies(phi, unrealised(phi)) and implies(unrealised(phi), phi)


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


def test_pair_implies_takes_the_identity_only_for_equal_pairs(lam2, reg2, s1_2, monkeypatch):
    # equal pairs are decided without a system; pairs that agree in
    # dimension and tuple but not in action are still solved: 1 in Lambda
    # and e_1 in S + S are both the vector (1, 0), and 1 |-> e_1 extends
    # to Lambda -> S + S, while e_1 |-> 1 does not extend (e_1 x = 0, 1 x != 0)
    import ppcalc.formulas
    from ppcalc.formulas import pair_equivalent, pair_implies

    ss = direct_sum(s1_2, s1_2)[0]
    lam_one, ss_e1 = (reg2, [reg2.element([1, 0])]), (ss, [ss.element([1, 0])])
    assert (lam_one[0].dim, lam_one[1]) == (ss_e1[0].dim, ss_e1[1])
    systems = []
    hom_system = ppcalc.formulas._hom_system
    monkeypatch.setattr(ppcalc.formulas, "_hom_system", lambda *a, **k: systems.append(a) or hom_system(*a, **k))
    copy = (FDModule(lam2, 2, list(reg2.action)), [reg2.element([1, 0])])
    assert pair_implies(lam_one, lam_one) and pair_equivalent(lam_one, copy)
    assert systems == []
    assert pair_implies(ss_e1, lam_one) and not pair_implies(lam_one, ss_e1)
    assert len(systems) == 2
    with pytest.raises(FormulaError, match="implies needs equal arities"):
        pair_implies(lam_one, (reg2, []))


# -- one coefficient matrix against the dict of entries -------------------
#
# PpFormula stores its (n+c) x e matrix over A as one (n+c) x (e * dim A)
# Mat.  DictFormula and the dict_* functions are the storage it replaced:
# one AlgebraElement per nonzero entry, substituted entry by entry.  Both
# must give the same formulas, entry for entry, with the same columns
# dropped in the same order.


class DictFormula:
    """A formula as a dict {(i, j): AlgebraElement}; zero entries and
    identically zero columns dropped, the remaining columns renumbered in
    order."""

    def __init__(self, algebra, n, c, e, coeffs, realisation=None):
        self.algebra, self.n, self.c = algebra, n, c
        cleaned = {}
        for (i, j), elt in coeffs.items():
            if not (0 <= i < n + c and 0 <= j < e):
                raise FormulaError(f"entry index {(i, j)} out of range")
            if not elt.is_zero():
                cleaned[(i, j)] = elt
        live = sorted({j for (_, j) in cleaned})
        remap = {j: k for k, j in enumerate(live)}
        self.e = len(live)
        self.coeffs = {(i, remap[j]): elt for (i, j), elt in cleaned.items()}
        self.realisation = realisation

    def dense(self):
        zero = self.algebra.zero_element()
        return [[self.coeffs.get((i, j), zero) for j in range(self.e)] for i in range(self.n + self.c)]

    def key(self):
        return (
            self.n,
            self.c,
            self.e,
            tuple(sorted(((i, j), elt.key()) for (i, j), elt in self.coeffs.items())),
        )


def dict_assemble(algebra, n_free, n_aux, instances, raw_cols=()):
    """assemble, substituting entry by entry with AlgebraElement arithmetic."""
    n_slots = n_free + n_aux
    total_c = n_aux + sum(f.c for f, _ in instances)
    total_e = sum(f.e for f, _ in instances) + len(raw_cols)
    coeffs = {}
    col_off = 0
    bound_off = n_slots
    for f, cmat in instances:
        for (i, j), elt in f.coeffs.items():
            if i < f.n:
                for s in range(n_slots):
                    cs = cmat.entry(s, i)
                    if cs != 0:
                        key = (s, col_off + j)
                        term = elt * cs
                        coeffs[key] = coeffs[key] + term if key in coeffs else term
            else:
                coeffs[(bound_off + (i - f.n), col_off + j)] = elt
        col_off += f.e
        bound_off += f.c
    for col in raw_cols:
        for s, elt in enumerate(col):
            if not elt.is_zero():
                coeffs[(s, col_off)] = elt
        col_off += 1
    return DictFormula(algebra, n_free, total_c, total_e, coeffs)


def dict_conj(phi, psi):
    ident = Mat.identity(phi.algebra.field, phi.n)
    return dict_assemble(phi.algebra, phi.n, 0, [(phi, ident), (psi, ident)])


def dict_sum(phi, psi):
    field, n = phi.algebra.field, phi.n
    ident, zero = Mat.identity(field, n), Mat.zeros(field, n, n)
    c_phi, c_psi = Mat.vstack([zero, ident]), Mat.vstack([ident, -ident])
    return dict_assemble(phi.algebra, n, n, [(phi, c_phi), (psi, c_psi)])


def dict_formula_matrix(phi, m):
    """_formula_matrix read from the dict: one product for all entries."""
    d, field = m.dim, m.field
    big = Mat.zeros(field, (phi.n + phi.c) * d, phi.e * d).array().copy()
    if phi.coeffs:
        coeffs = Mat.vstack([elt.coeffs for elt in phi.coeffs.values()])
        blocks = (coeffs @ Mat.flat_stack(m.action)).array().reshape(len(phi.coeffs), d, d)
        i, j = zip(*phi.coeffs)
        big.reshape(phi.n + phi.c, d, phi.e, d)[i, :, j, :] = blocks
    return Mat.of_array(field, big)


def dict_pp_type_generator(m, tup):
    """pp_type_generator filling the dict entry by entry."""
    a, field, d = m.algebra, m.field, m.dim
    tup = [m.element(t) for t in tup]
    n = len(tup)
    if d:
        ker = Mat.hstack(m.action).reshape(d * a.dim, d).kernel()
    else:
        ker = Mat.zeros(field, 0, 0)
    coeffs = {}
    one = a.one_element()
    for t in range(n):
        coeffs[(t, t)] = one
        for i in range(d):
            g = tup[t].entry(0, i)
            if g != 0:
                coeffs[(n + i, t)] = a.scalar_element(field.neg(g))
    blocks = ker.reshape(ker.rows * d, a.dim)
    for k in np.flatnonzero((blocks.array() != 0).any(axis=1)):
        j, i = divmod(int(k), d)
        coeffs[(n + i, n + j)] = a.element(blocks.row(k))
    return DictFormula(a, n, d, n + ker.rows, coeffs, (m, tup))


def dict_beta(bmap, phi):
    """beta: a free realisation (the attached one, else the fp module of
    the dict's dense matrix), tensored, and its dict pp-type generator."""
    if phi.realisation is not None:
        module, tup = phi.realisation
    else:
        q, gens, _ = fp_module(phi.algebra, phi.dense())
        module, tup = q, gens[: phi.n]
    t = tensor_over(module, bmap.bimodule)
    return dict_pp_type_generator(t.module, [t.pure_tensor(tup[0], g) for g in bmap.bimodule.generators])


def as_dict(phi):
    """The DictFormula of a PpFormula's entries (its realisation kept)."""
    real = None if phi.realisation is None else (phi.realisation.module, phi.realisation.tuple)
    return DictFormula(phi.algebra, phi.n, phi.c, phi.e, dict(phi.coeffs), real)


def dense_key(ref):
    """The key of ref's entries laid out as one (n+c) x (e * dim A) matrix."""
    a = ref.algebra
    zero = [0] * a.dim
    rows = [
        [x for j in range(ref.e) for x in (ref.coeffs[(i, j)].coeffs.to_rows()[0] if (i, j) in ref.coeffs else zero)]
        for i in range(ref.n + ref.c)
    ]
    return Mat.from_rows(a.field, rows).key()


def assert_matches(phi, ref):
    """phi holds exactly ref's entries, in the matrix layout and as a view."""
    assert (phi.n, phi.c, phi.e) == (ref.n, ref.c, ref.e)
    assert phi.matrix.shape == (phi.n + phi.c, phi.e * phi.algebra.dim)
    assert phi.key() == (ref.n, ref.c, ref.e, dense_key(ref))
    got = {cell: elt.key() for cell, elt in phi.coeffs.items()}
    assert got == {cell: elt.key() for cell, elt in ref.coeffs.items()}
    assert list(phi.coeffs) == sorted(ref.coeffs)  # row-major order
    for (i, j), elt in ref.coeffs.items():
        assert phi.entry(i, j) == elt
    assert_canonical(phi.matrix)


@st.composite
def dict_formulas(draw, algebra, n=None):
    """(PpFormula, DictFormula) from one random dict of entries, some of
    them zero: 0-2 free (unless n is given) and bound variables and up to
    3 equations.  The PpFormula takes the dict or the dense list of rows."""
    n = draw(st.integers(0, 2)) if n is None else n
    c, e = draw(st.integers(0, 2)), draw(st.integers(0, 3))
    cells = st.tuples(st.integers(0, max(n + c - 1, 0)), st.integers(0, max(e - 1, 0)))
    picked = draw(st.lists(cells, max_size=6)) if n + c and e else []
    field = algebra.field
    coeffs = {cell: algebra.element(draw(oracle_mats(field, 1, algebra.dim))) for cell in picked}
    ref = DictFormula(algebra, n, c, e, coeffs)
    if draw(st.booleans()):
        zero = algebra.zero_element()
        coeffs = [[coeffs.get((i, j), zero) for j in range(e)] for i in range(n + c)]
    return PpFormula(algebra, n, c, e, coeffs), ref


def storage_kinds(field):
    """(algebra, module strategy): Lambda, Kronecker and k[x]/(x^3)."""
    lam, kron = oracle_algebras(field)[:2]
    return [
        (lam, lambda_modules(field, max_dim=3)),
        (kron, kronecker_modules(field, max_side=1)),
        (truncated_algebra(field), truncated_modules(field)),
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_eval_formula_matches_the_projected_kernel(case, data):
    # the kernel of the whole system, then its first n*d columns
    field = ORACLE_FIELDS[case]
    for algebra, mods in storage_kinds(field):
        phi, _ = data.draw(dict_formulas(algebra))
        m = data.draw(mods)
        k = phi.n * m.dim
        ref = old_kernel_basis(_formula_matrix(phi, m))[:, :k]
        got = eval_formula(phi, m)
        assert got == Subspace.from_vectors(field, k, Mat._of(field, ref))
        assert_canonical(got.basis)
    kind, n = data.draw(st.sampled_from([("lam", 1), ("lam", 2), ("kron", 1), ("kron", 2)]))
    phi = data.draw(realised_formulas(field, kind, n))
    m = data.draw(lambda_modules(field, max_dim=3) if kind == "lam" else kronecker_modules(field))
    ref = old_kernel_basis(_formula_matrix(phi, m))[:, : n * m.dim]
    assert eval_formula(phi, m) == Subspace.from_vectors(field, n * m.dim, Mat._of(field, ref))


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_formula_matrix_matches_dict_of_entries(case, data):
    field = ORACLE_FIELDS[case]
    for algebra, mods in storage_kinds(field):
        (phi, ref), (psi, ref2) = data.draw(dict_formulas(algebra)), data.draw(dict_formulas(algebra))
        assert_matches(phi, ref)
        assert (phi == psi) == (ref.key() == ref2.key())
        if phi == psi:
            assert hash(phi) == hash(psi)
        m = data.draw(mods)
        got, want = _formula_matrix(phi, m), dict_formula_matrix(ref, m)
        assert got.shape == want.shape and got.array().dtype == want.array().dtype
        assert got.key() == want.key()
        # a copy through the matrix, the dict view and the dense rows
        for coeffs in (phi.matrix, phi.coeffs, phi.dense()):
            assert PpFormula(algebra, phi.n, phi.c, phi.e, coeffs) == phi


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_assemble_matches_entrywise_substitution(case, data):
    field = ORACLE_FIELDS[case]
    algebra, _ = data.draw(st.sampled_from(storage_kinds(field)))
    n_free, n_aux = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    n_slots = n_free + n_aux
    pairs = data.draw(st.lists(dict_formulas(algebra), max_size=3))
    cmats = [data.draw(oracle_mats(field, n_slots, f.n)) for f, _ in pairs]
    raw_cols = [
        [algebra.element(data.draw(oracle_mats(field, 1, algebra.dim))) for _ in range(n_slots)]
        for _ in range(data.draw(st.integers(0, 2)))
    ]
    raw = Mat.zeros(field, n_slots, len(raw_cols) * algebra.dim).array().copy()
    for j, col in enumerate(raw_cols):
        for s, elt in enumerate(col):
            raw[s, j * algebra.dim : (j + 1) * algebra.dim] = elt.coeffs.array()[0]
    got = assemble(algebra, n_free, n_aux, [(f, c) for (f, _), c in zip(pairs, cmats)],
                   Mat.of_array(field, raw))
    want = dict_assemble(algebra, n_free, n_aux, [(r, c) for (_, r), c in zip(pairs, cmats)], raw_cols)
    assert_matches(got, want)
    if not raw_cols:
        assert assemble(algebra, n_free, n_aux, [(f, c) for (f, _), c in zip(pairs, cmats)]) == got


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_conj_and_sum_match_entrywise_substitution(case, data):
    field = ORACLE_FIELDS[case]
    algebra, mods = data.draw(st.sampled_from(storage_kinds(field)))
    n = data.draw(st.integers(0, 2))
    (phi, rphi), (psi, rpsi) = data.draw(dict_formulas(algebra, n)), data.draw(dict_formulas(algebra, n))
    assert_matches(conj(phi, psi), dict_conj(rphi, rpsi))
    assert_matches(sum_formula(phi, psi), dict_sum(rphi, rpsi))
    # realised inputs: pp-type generators, whose realisations conj and sum combine
    m, m2 = data.draw(mods), data.draw(mods)
    tup, tup2 = data.draw(module_tuples(m, n)), data.draw(module_tuples(m2, n))
    gen, gen2 = pp_type_generator(m, tup), pp_type_generator(m2, tup2)
    rgen, rgen2 = dict_pp_type_generator(m, tup), dict_pp_type_generator(m2, tup2)
    assert_matches(gen, rgen)
    assert_matches(conj(gen, gen2), dict_conj(rgen, rgen2))
    assert_matches(sum_formula(gen, gen2), dict_sum(rgen, rgen2))


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_beta_matches_dict_pp_type_generator(case, data):
    field = ORACLE_FIELDS[case]
    lam, _, emb, _ = oracle_algebras(field)
    bmap = BetaMap(emb)
    route = data.draw(st.sampled_from(["gen", "conj", "fp"]))
    if route == "fp":
        phi = data.draw(dict_formulas(lam, 1))[0]
    else:
        phi = data.draw(generators(lambda_modules(field, max_dim=3), 1))
        if route == "conj":
            phi = conj(phi, data.draw(generators(lambda_modules(field, max_dim=3), 1)))
    assert_matches(bmap(phi), dict_beta(bmap, as_dict(phi)))


def test_storage_edge_cases(lam2):
    one, x = lam2.one_element(), lam2.basis_element("x")
    z = lam2.zero_element()
    # every column zero: e drops to 0, and the matrix to (n+c) x 0
    phi = PpFormula(lam2, 1, 1, 2, {(0, 0): z, (1, 1): z})
    assert phi.e == 0 and phi.matrix.shape == (2, 0) and phi == PpFormula(lam2, 1, 1, 0, {})
    # a middle column dropped, the others kept in order
    psi = PpFormula(lam2, 1, 0, 3, {(0, 0): x, (0, 2): one})
    assert psi.e == 2 and psi.entry(0, 0) == x and psi.entry(0, 1) == one
    assert psi.matrix.to_rows() == [[0, 1, 1, 0]]
    # arity 0 and no rows at all
    assert PpFormula(lam2, 0, 0, 2, {}).matrix.shape == (0, 0)
    for bad in ({(2, 0): one}, {(0, 3): one}, {(-1, 0): one}):
        with pytest.raises(FormulaError, match="out of range"):
            PpFormula(lam2, 1, 1, 3, bad)
    with pytest.raises(FormulaError, match="shape"):
        PpFormula(lam2, 1, 0, 1, Mat.zeros(lam2.field, 1, 3))
    with pytest.raises(FormulaError, match="out of range"):
        psi.entry(0, 2)
    with pytest.raises(TypeError):
        psi.coeffs[(0, 0)] = one
    with pytest.raises(ValueError):
        psi.matrix.array()[0, 0] = 1


def test_negated_unit_is_canonical_at_a_large_prime():
    # -1 must be stored as p - 1, or equal formulas get different keys
    field = GF(1048573)
    lam = oracle_algebras(field)[0]
    reg = regular_module(lam)
    gen = pp_type_generator(reg, [reg.element([1, 0])])
    assert_canonical(gen.matrix)
    assert gen == PpFormula(lam, gen.n, gen.c, gen.e, dict(gen.coeffs))
    assert zero_formula(lam, 2) == PpFormula(lam, 2, 0, 2, {(0, 0): lam.one_element(), (1, 1): lam.one_element()})


def test_realised_formula_is_freed_without_the_cycle_collector(lam2):
    # the realisation holds no reference to the formula, so refcounting
    # alone frees both
    gc.disable()
    try:
        m = regular_module(lam2)
        phi = pp_type_generator(m, [m.element([0, 1])])
        assert phi.realisation.module is m
        module_ref, formula_ref = weakref.ref(m), weakref.ref(phi)
        del m, phi
        assert module_ref() is None and formula_ref() is None
    finally:
        gc.enable()


def test_realisation_arity_is_checked_at_construction(lam2, reg2):
    phi = ann_formula(lam2)
    with pytest.raises(FormulaError, match="arity"):
        phi.with_realisation(reg2, [])
    with pytest.raises(FormulaError, match="arity"):
        PpFormula(lam2, 2, 0, 0, {}, (reg2, [reg2.zero_vector()]))
