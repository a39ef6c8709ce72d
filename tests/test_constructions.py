"""Block-built sums, one-elimination spans, pushout-free meets, and
linear combinations and solves done once per family.

direct_sum_many fills one block-diagonal array, submodule_generated
spins its vectors once, and meet_and_sum_pairs reads the meet off
C_phi + C_psi without building A^n.  Linear combinations of basis
matrices (act, left_mult, right_mult_matrix, _formula_matrix, rad_end)
are one product with the flattened matrices, and quotient_basis,
apply_interp, apply_map and hom_interp_data make one elimination per
family of right-hand sides.  The references below are the constructions
they replaced: the pairwise fold of zero-padded block sums, the span
grown to a fixpoint, the pushout of the two maps out of the free module,
sums of scaled matrices, and one solve per vector.  The results must be
equal, not only isomorphic.
"""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcalc import formulas, modules
from ppcalc.algebra import Algebra, QuiverSpec, ValidationReport, algebra_from_quiver, validate_algebra
from ppcalc.examples import simple_lambda_module
from ppcalc.formulas import (
    FreeRealisation,
    PpFormula,
    conj,
    eval_formula,
    free_realisation,
    meet_and_sum_pairs,
    pp_type_generator,
    sum_formula,
)
from ppcalc.interp import (
    apply_interp,
    apply_map,
    hom_interp_data,
    isolating_pair,
    pullback_formula,
)
from ppcalc.linalg import GF, DimensionMismatch, Mat, Subspace, quotient_basis
from ppcalc.modules import (
    Bimodule,
    FDModule,
    ModuleError,
    ModuleMap,
    UnsupportedCharacteristicError,
    direct_sum,
    direct_sum_many,
    free_module,
    hom_space,
    identity_map,
    quotient_module,
    rad_end,
    regular_module,
    submodule_generated,
    validate_module,
    zero_module,
)
from test_formulas import as_dict, assert_matches, dict_assemble, dict_formulas
from test_modules import (
    ORACLE,
    ORACLE_FIELDS,
    kronecker_modules,
    lambda_modules,
    module_maps,
    oracle_algebras,
    oracle_mats,
    oracle_scalars,
    summed,
    truncated_algebra,
    truncated_modules,
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
    free, _ = free_module(a, len(fr.tuple))
    rows = [(t @ act).to_rows()[0] for t in fr.tuple for act in c_mod.action]
    mat = Mat.from_rows(c_mod.field, rows) if rows else Mat.zeros(c_mod.field, 0, c_mod.dim)
    return ModuleMap(free, c_mod, mat)


def pushout(f: ModuleMap, g: ModuleMap):
    """Pushout of two maps with a shared source.

    Returns (P, from target(f), from target(g)) with the square commuting.
    """
    if f.source != g.source:
        raise ModuleError("pushout needs a shared source")
    d, i1, i2, _, _ = direct_sum(f.target, g.target)
    u = Subspace.from_vectors(d.field, d.dim, f.matrix @ i1.matrix - g.matrix @ i2.matrix)
    # the span of these rows is the image of a module map, hence invariant
    p, proj = quotient_module(d, u)
    return p, i1.then(proj), i2.then(proj)


def ref_meet_realisation(phi, psi):
    """The pushout of the two maps out of A^n, with the images of c_phi."""
    fr_phi, fr_psi = free_realisation(phi), free_realisation(psi)
    p, hf, _ = pushout(ref_map_from_free(fr_phi), ref_map_from_free(fr_psi))
    return p, tuple(hf(t) for t in fr_phi.tuple)


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
    (q, tup), (total, added) = meet_and_sum_pairs(free_realisation(phi), free_realisation(psi))
    ref_q, ref_tup = ref_meet_realisation(phi, psi)
    assert q.action == ref_q.action
    assert tup == ref_tup
    # the sum's realisation is the direct sum with the tuples added, and
    # conj and sum_formula attach the same two pairs
    ref_total, i1, i2, _, _ = direct_sum(phi.realisation.module, psi.realisation.module)
    assert total.action == ref_total.action
    assert added == tuple(i1(a) + i2(b) for a, b in zip(phi.realisation.tuple, psi.realisation.tuple))
    for made, (module, made_tup) in [(conj(phi, psi), (q, tup)), (sum_formula(phi, psi), (total, added))]:
        assert made.realisation.module.action == module.action
        assert made.realisation.tuple == made_tup


def test_conj_builds_no_free_module_and_no_pushout(reg2, s1_2):
    x, y = reg2.element([0, 1]), s1_2.element([1])
    phi, psi = pp_type_generator(reg2, [x]), pp_type_generator(s1_2, [y])
    ref_q, ref_tup = ref_meet_realisation(phi, psi)
    boom = mock.Mock(side_effect=AssertionError("the meet must not build this"))
    with mock.patch.object(formulas, "free_module", boom):
        meet = conj(phi, psi)
    boom.assert_not_called()
    assert meet.realisation.module.action == ref_q.action
    assert meet.realisation.tuple == ref_tup


# -- linear combinations of basis matrices ------------------------------


def same(a, b):
    """Equal bit for bit: shape, dtype and every entry."""
    return a.shape == b.shape and a.array().dtype == b.array().dtype and a.key() == b.key()


def ref_combination(mats, coeffs, rows, cols):
    """sum_l coeffs[l] mats[l], one scaled matrix at a time."""
    out = Mat.zeros(coeffs.field, rows, cols)
    for l, mat in enumerate(mats):
        c = coeffs.entry(0, l)
        if c != 0:
            out = out + mat.scale(c)
    return out


def right_mults(a):
    """The matrices of v -> v * basis_j, from the structure constants."""
    return [Mat.vstack([a.mul[i][j] for i in range(a.dim)]) for j in range(a.dim)]


@st.composite
def bimodules(draw, field):
    """The embedding or the regular Kronecker bimodule in a random basis,
    with up to two redundant generators appended."""
    b = draw(st.sampled_from(oracle_algebras(field)[2:]))
    a = draw(oracle_mats(field, b.dim, b.dim)).array()
    ident = Mat.identity(field, b.dim)
    p = (Mat.of_array(field, np.tril(a, -1)) + ident) @ (Mat.of_array(field, np.triu(a, 1)) + ident)
    pinv = p.inverse()
    extra = draw(oracle_mats(field, draw(st.integers(0, 2)), b.dim))
    return Bimodule(
        b.S, b.R, b.dim,
        [p @ x @ pinv for x in b.left_action],
        [p @ x @ pinv for x in b.right_action],
        [g @ pinv for g in b.generators] + [extra.row(i) for i in range(extra.rows)],
    )


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_action_matrices_match_scaled_sums(case, data):
    field = ORACLE_FIELDS[case]
    for algebra, mods in module_kinds(field):
        m = data.draw(mods)
        y = data.draw(oracle_mats(field, 1, algebra.dim))
        assert same(m.act(y), ref_combination(m.action, y, m.dim, m.dim))
        assert same(m.act(algebra.element(y)), m.act(y))
        expected = ref_combination(right_mults(algebra), y, algebra.dim, algebra.dim)
        assert same(algebra.right_mult_matrix(y), expected)
    b = data.draw(bimodules(field))
    s = data.draw(oracle_mats(field, 1, b.S.dim))
    assert same(b.left_mult(s), ref_combination(b.left_action, s, b.dim, b.dim))


def ref_formula_matrix(phi, m):
    """The system of phi in m, one d x d block per coefficient."""
    d = m.dim
    big = Mat.zeros(m.field, (phi.n + phi.c) * d, phi.e * d).array().copy()
    for (i, j), elt in phi.coeffs.items():
        block = ref_combination(m.action, elt.coeffs, d, d)
        big[i * d : (i + 1) * d, j * d : (j + 1) * d] = block.array()
    return Mat.of_array(m.field, big)


@st.composite
def formulas_over(draw, algebra):
    """A formula with 0-2 free and bound variables and up to 3 equations."""
    n, c, e = draw(st.integers(0, 2)), draw(st.integers(0, 2)), draw(st.integers(0, 3))
    cells = st.tuples(st.integers(0, max(n + c - 1, 0)), st.integers(0, max(e - 1, 0)))
    picked = draw(st.lists(cells, max_size=5)) if n + c and e else []
    field = algebra.field
    coeffs = {cell: algebra.element(draw(oracle_mats(field, 1, algebra.dim))) for cell in picked}
    return PpFormula(algebra, n, c, e, coeffs)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_formula_matrix_matches_block_loop(case, data):
    for algebra, mods in module_kinds(ORACLE_FIELDS[case]):
        m, phi = data.draw(mods), data.draw(formulas_over(algebra))
        assert same(formulas._formula_matrix(phi, m), ref_formula_matrix(phi, m))


def test_formula_matrix_edge_cases(lam2, reg2):
    one, x = lam2.one_element(), lam2.basis_element("x")
    cases = [
        PpFormula(lam2, 0, 1, 1, {(0, 0): x}),  # arity 0
        PpFormula(lam2, 2, 0, 2, {(0, 0): one, (1, 0): x, (1, 1): one}),  # c = 0
        PpFormula(lam2, 1, 1, 0, {}),  # no equations
    ]
    for phi in cases:
        for m in (reg2, zero_module(lam2)):
            assert same(formulas._formula_matrix(phi, m), ref_formula_matrix(phi, m))


def ref_rad_end(x):
    """rad End(x): Gram entries tr(f_i f_j) one product at a time, and the
    kernel's combinations as sums of scaled maps."""
    end = hom_space(x, x)
    e = len(end)
    if e <= 1:
        return []
    field = x.field
    if field.is_prime_field and field.p <= e:
        raise UnsupportedCharacteristicError("p <= dim End")
    gram = Mat.from_rows(
        field, [[(end[i].matrix @ end[j].matrix).trace() for j in range(e)] for i in range(e)]
    )
    coeffs = gram.kernel()
    return [
        ref_combination([f.matrix for f in end], coeffs.row(r), x.dim, x.dim)
        for r in range(coeffs.rows)
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_rad_end_matches_trace_loop(case, data):
    field = ORACLE_FIELDS[case]
    _, mods = data.draw(st.sampled_from(module_kinds(field)))
    m = data.draw(summed(mods))
    try:
        expected = ref_rad_end(m)
    except UnsupportedCharacteristicError:
        with pytest.raises(UnsupportedCharacteristicError):
            rad_end(m)
        return
    try:
        got = rad_end(m)
    except UnsupportedCharacteristicError as exc:  # the unchanged nilpotency check
        assert "not nilpotent" in str(exc)
        return
    assert len(got) == len(expected)
    assert all(same(f.matrix, g) for f, g in zip(got, expected))


def ref_fitting_split(m, f_mat):
    """The projection as T^-1 diag(0, 1) T, T = [ker; img]."""
    k = 1
    while (1 << k) < max(m.dim, 1):
        k += 1
    power = f_mat.power(1 << k)
    ker = Subspace.from_vectors(m.field, m.dim, power.kernel_basis())
    if ker.dim == 0 or ker.dim == m.dim:
        return None
    img = Subspace.from_vectors(m.field, m.dim, power)
    if ker.dim + img.dim != m.dim or ker.intersect(img).dim != 0:
        return None
    t = Mat.vstack([ker.basis, img.basis])
    block = Mat.zeros(m.field, m.dim, m.dim).to_rows()
    for i in range(ker.dim, m.dim):
        block[i][i] = 1
    return t.inverse() @ Mat.from_rows(m.field, block) @ t


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_fitting_split_matches_block_projection(case, data):
    field = ORACLE_FIELDS[case]
    _, mods = data.draw(st.sampled_from(module_kinds(field)))
    m = data.draw(summed(mods))
    for f in hom_space(m, m) + [data.draw(module_maps(m, m))]:
        split, expected = modules._fitting_split(m, f.matrix), ref_fitting_split(m, f.matrix)
        assert (split is None) == (expected is None)
        if split is not None:
            assert same(split.matrix, expected)


def test_fitting_split_projects_onto_the_image(s1_2):
    # on S + S the idempotent diag(1, 0) is its own projection
    m = direct_sum(s1_2, s1_2)[0]
    f = Mat.from_rows(m.field, [[1, 0], [0, 0]])
    split = modules._fitting_split(m, f)
    assert same(split.matrix, ref_fitting_split(m, f)) and split.matrix == f


# -- one elimination per family of right-hand sides ---------------------


def ref_quotient_basis(inner, outer):
    """Outer's basis rows kept greedily, one membership test per row."""
    if inner.ambient != outer.ambient:
        raise DimensionMismatch("ambient mismatch")
    if not outer.contains(inner):
        raise DimensionMismatch("quotient_basis requires inner <= outer")
    current, reps = inner, []
    for i in range(outer.dim):
        v = outer.basis.row(i)
        if not current.contains_vector(v):
            reps.append(v)
            current = current.sum_with(Subspace.from_vectors(current.field, current.ambient, v))
    return reps


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_quotient_basis_matches_greedy_loop(case, data):
    field = ORACLE_FIELDS[case]
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    vectors = data.draw(oracle_mats(field, k, n))
    outer = Subspace.from_vectors(field, n, vectors)
    inside = data.draw(oracle_mats(field, data.draw(st.integers(0, 3)), k)) @ vectors
    anywhere = data.draw(oracle_mats(field, data.draw(st.integers(0, 2)), n))
    for inner in (Subspace.from_vectors(field, n, inside), Subspace.from_vectors(field, n, anywhere)):
        if outer.contains(inner):
            got, expected = quotient_basis(inner, outer), ref_quotient_basis(inner, outer)
            assert len(got) == len(expected) and all(map(same, got, expected))
        else:
            with pytest.raises(DimensionMismatch, match="inner <= outer"):
                quotient_basis(inner, outer)


def ref_class(psi_space, reps, v):
    """Quotient coordinates of one vector of phi(M), by its own solve."""
    stack = Mat.vstack([psi_space.basis] + reps)
    return stack.solve_left(v).take_columns(range(psi_space.dim, stack.rows)).to_rows()[0]


def ref_apply_interp(data, module):
    """(coset representatives, action matrices), two solves per representative."""
    field = module.field
    phi_space, psi_space = eval_formula(data.phi, module), eval_formula(data.psi, module)
    reps = ref_quotient_basis(psi_space, phi_space)
    amb = phi_space.ambient
    mats = []
    for rho in data.rhos:
        rho_space = eval_formula(rho, module)
        pad = Mat.hstack([Mat.zeros(field, phi_space.dim, amb), phi_space.basis])
        system = Mat.vstack([rho_space.basis, -pad])
        b2 = rho_space.basis.take_columns(range(amb, 2 * amb))
        rows = []
        for rep in reps:
            x = system.solve_left(Mat.hstack([rep, Mat.zeros(field, 1, amb)]))
            rows.append(ref_class(psi_space, reps, x.take_columns(range(rho_space.dim)) @ b2))
        mats.append(Mat.from_rows(field, rows) if reps else Mat.zeros(field, 0, 0))
    return reps, mats


def ref_apply_map(data, f, img_src, img_tgt):
    """The induced map, one class solve per source representative."""
    field = f.source.field
    big = Mat.identity(field, data.m).kron(f.matrix)
    rows = [ref_class(img_tgt.psi_space, img_tgt.reps, rep @ big) for rep in img_src.reps]
    if rows and img_tgt.module.dim:
        return Mat.from_rows(field, rows)
    return Mat.zeros(field, img_src.module.dim, img_tgt.module.dim)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_apply_interp_and_map_match_per_representative_solves(case, data):
    field = ORACLE_FIELDS[case]
    homdata = hom_interp_data(oracle_algebras(field)[2])
    mods = summed(kronecker_modules(field, max_side=1))
    m, n = data.draw(mods), data.draw(mods)
    img_m, img_n = apply_interp(homdata, m), apply_interp(homdata, n, check=False)
    for module, img in ((m, img_m), (n, img_n)):
        reps, mats = ref_apply_interp(homdata, module)
        assert img.module is not None and img.source is module
        assert len(img.reps) == len(reps) and all(map(same, img.reps, reps))
        assert all(map(same, img.module.action, mats))
    f = data.draw(module_maps(m, n))
    got = apply_map(homdata, f, img_m, img_n)
    assert got.source is img_m.module and got.target is img_n.module
    assert same(got.matrix, ref_apply_map(homdata, f, img_m, img_n))


def ref_hom_rhos(b):
    """The rho formulas of hom_interp_data, one solve per generator."""
    n = len(b.generators)
    rows = [(g @ r).to_rows()[0] for g in b.generators for r in b.right_action]
    gen_mat = Mat.from_rows(b.field, rows)
    one = b.R.one_element()
    rhos = []
    for lmat in b.left_action:
        coeffs = {}
        for i in range(n):
            sol = gen_mat.solve_left(b.generators[i] @ lmat)
            for j in range(n):
                r_ji = sol.take_columns(range(j * b.R.dim, (j + 1) * b.R.dim))
                if not r_ji.is_zero():
                    coeffs[(j, i)] = b.R.element(r_ji)
            coeffs[(n + i, i)] = -one
        rhos.append(PpFormula(b.R, 2 * n, 0, n, coeffs))
    return rhos


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_hom_interp_data_matches_per_generator_solves(case, data):
    b = data.draw(bimodules(ORACLE_FIELDS[case]))
    rhos, expected = hom_interp_data(b).rhos, ref_hom_rhos(b)
    assert [r.key() for r in rhos] == [r.key() for r in expected]
    assert [list(r.coeffs) for r in rhos] == [list(r.coeffs) for r in expected]


def ref_block_subst(field, n_slots: int, arity: int, blocks) -> Mat:
    """Slots -> formula variables; blocks lists (slot_offset, coeff) per
    m-block making up the formula's variables in order."""
    rows = [[0] * arity for _ in range(n_slots)]
    col = 0
    for parts, width in blocks:
        for off, coeff in parts:
            for t in range(width):
                rows[off + t][col + t] = coeff
        col += width
    return Mat.from_rows(field, rows)


def dict_pullback_formula(data, gamma):
    """pullback_formula on DictFormulas: the raw columns built slot by slot
    from gamma's entries, then the entrywise assemble."""
    m, p = data.m, data.S.dim
    field = data.R.field
    d, e = gamma.c, gamma.e
    y_off = m
    z_off = y_off + d * m
    w_off = z_off + p * m
    u_off = w_off + e * m
    n_slots = u_off + d * p * m

    def u_block(j, k):
        return u_off + (j * p + k) * m

    def subst(arity, blocks):
        return ref_block_subst(field, n_slots, arity, blocks)

    phi, psi, rhos = as_dict(data.phi), as_dict(data.psi), [as_dict(r) for r in data.rhos]
    instances = [(phi, subst(m, [([(0, 1)], m)]))]
    instances += [(phi, subst(m, [([(z_off + k * m, 1)], m)])) for k in range(p)]
    instances += [(phi, subst(m, [([(y_off + j * m, 1)], m)])) for j in range(d)]
    instances += [(phi, subst(m, [([(u_block(j, k), 1)], m)])) for j in range(d) for k in range(p)]
    instances += [(rhos[k], subst(2 * m, [([(0, 1)], m), ([(z_off + k * m, 1)], m)])) for k in range(p)]
    instances += [
        (rhos[k], subst(2 * m, [([(y_off + j * m, 1)], m), ([(u_block(j, k), 1)], m)]))
        for j in range(d)
        for k in range(p)
    ]
    instances += [(psi, subst(m, [([(w_off + i * m, 1)], m)])) for i in range(e)]
    zero, one = data.R.zero_element(), data.R.one_element()
    s_zero = data.S.zero_element()
    raw_cols = []
    for i in range(e):
        b_i = gamma.coeffs.get((0, i), s_zero).coeffs
        alphas = [gamma.coeffs.get((1 + j, i), s_zero).coeffs for j in range(d)]
        for t in range(m):
            col = [zero] * n_slots
            for k in range(p):
                beta = b_i.entry(0, k)
                if beta != 0:
                    col[z_off + k * m + t] = one * beta
                for j in range(d):
                    alpha = alphas[j].entry(0, k)
                    if alpha != 0:
                        col[u_block(j, k) + t] = one * alpha
            col[w_off + i * m + t] = -one
            raw_cols.append(col)
    return dict_assemble(data.R, m, n_slots - m, instances, raw_cols)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_pullback_formula_matches_raw_column_loop(case, data):
    homdata = hom_interp_data(data.draw(bimodules(ORACLE_FIELDS[case])))
    gamma, ref = data.draw(dict_formulas(homdata.S, 1))
    assert_matches(pullback_formula(homdata, gamma), dict_pullback_formula(homdata, ref))


def test_pullback_formula_matches_raw_column_loop_on_presentations():
    # the isolating pair of criterion 7: gamma and delta of the simple module
    field = GF(2)
    lam, kron, emb, _ = oracle_algebras(field)
    homdata = hom_interp_data(emb)
    s = simple_lambda_module(lam)
    pair = isolating_pair(s, s.basis_vector(0), [s, regular_module(lam)]).pair
    for gamma in (pair.top, pair.bottom):
        assert_matches(pullback_formula(homdata, gamma), dict_pullback_formula(homdata, as_dict(gamma)))


def ref_validate_algebra(a):
    """validate_algebra's associativity check as the triple loop of 2 dim^3 multiplications."""
    problems = []
    ident = Mat.identity(a.field, a.dim)
    if a.right_mult_matrix(a.one) != ident:
        problems.append("unit fails on the right")
    if a.left_mult_matrix(a.one) != ident:
        problems.append("unit fails on the left")
    if problems:
        return ValidationReport(False, problems)
    for i in range(a.dim):
        bi = a.basis_element(i).coeffs
        for j in range(a.dim):
            for l in range(a.dim):
                bl = a.basis_element(l).coeffs
                if a.multiply(a.mul[i][j], bl) != a.multiply(bi, a.mul[j][l]):
                    witness = (a.labels[i], a.labels[j], a.labels[l])
                    return ValidationReport(False, [f"associativity fails on triple {witness}"])
    return ValidationReport(True)


def square_zero_algebra(field):
    """k<x, y>/(x, y)^2 from its quiver: dim 3, every product of arrows 0."""
    words = [["x", "x"], ["x", "y"], ["y", "x"], ["y", "y"]]
    q = QuiverSpec(1, [(1, 1, "x"), (1, 1, "y")], [[(1, w)] for w in words], cap=2)
    return algebra_from_quiver(q, field)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_validate_algebra_matches_triple_loop(case, data):
    field = ORACLE_FIELDS[case]
    lam, kron = oracle_algebras(field)[:2]
    base = data.draw(st.sampled_from([lam, kron, truncated_algebra(field), square_zero_algebra(field)]))
    assert validate_algebra(base).ok and ref_validate_algebra(base).ok
    # corrupt the coefficient of b_k in b_i b_j, for one or two random triples
    mul = [list(row) for row in base.mul]
    for _ in range(data.draw(st.integers(1, 2))):
        i, j, k = (data.draw(st.integers(0, base.dim - 1)) for _ in range(3))
        unit_k = Mat.identity(field, base.dim).row(k)
        mul[i][j] = mul[i][j] + unit_k.scale(data.draw(oracle_scalars(field)))
    a = Algebra(field, base.labels, base.one, mul)
    got, want = validate_algebra(a), ref_validate_algebra(a)
    assert (got.ok, got.problems) == (want.ok, want.problems)


def test_validate_algebra_names_the_first_failing_triple():
    # x y = x breaks (x y) y = x y = x against x (y y) = 0 first at (x, y, y)
    field = GF(3)
    base = square_zero_algebra(field)
    x, y = base.labels.index("x"), base.labels.index("y")
    mul = [list(row) for row in base.mul]
    mul[x][y] = base.basis_element(x).coeffs
    report = validate_algebra(Algebra(field, base.labels, base.one, mul))
    assert not report.ok
    assert report.problems == ["associativity fails on triple ('x', 'y', 'y')"]
    assert report.problems == ref_validate_algebra(Algebra(field, base.labels, base.one, mul)).problems


# -- module axioms as stacked products -------------------------------------


def ref_validate_module(m):
    """validate_module as the loop over the dim A^2 basis pairs."""
    a = m.algebra
    if m.act(a.one) != Mat.identity(m.field, m.dim):
        return ValidationReport(False, ["unit does not act as identity"])
    for i in range(a.dim):
        for j in range(a.dim):
            if m.action[i] @ m.action[j] != m.act(a.mul[i][j]):
                return ValidationReport(False, [f"action not multiplicative on ({a.labels[i]}, {a.labels[j]})"])
    return ValidationReport(True)


def ref_bimodule_error(s, r, dim, left, right, gens):
    """The first message of Bimodule's checks, made by pair loops, or None."""
    rep = ref_validate_module(FDModule(r, dim, right))
    if not rep.ok:
        return f"right action invalid: {rep.problems[0]}"

    def left_mult(coeffs):
        return (coeffs @ Mat.flat_stack(left)).reshape(dim, dim)

    if left_mult(s.one) != Mat.identity(s.field, dim):
        return "left action: unit does not act as identity"
    for i in range(s.dim):
        for j in range(s.dim):
            if left[j] @ left[i] != left_mult(s.mul[i][j]):
                return f"left action not multiplicative on ({s.labels[i]}, {s.labels[j]})"
    for i in range(s.dim):
        for j in range(r.dim):
            if left[i] @ right[j] != right[j] @ left[i]:
                return f"actions do not commute on ({s.labels[i]}, {r.labels[j]})"
    if submodule_generated(FDModule(r, dim, right), gens).dim != dim:
        return "generating tuple does not generate the right module"
    return None


def ref_intertwines(f):
    """ModuleMap.intertwines as the loop over the algebra's basis."""
    return all(
        f.source.action[l] @ f.matrix == f.matrix @ f.target.action[l]
        for l in range(f.source.algebra.dim)
    )


def corrupted(draw, mats):
    """mats with one or two random entries shifted by random scalars."""
    mats = list(mats)
    field = mats[0].field
    for _ in range(draw(st.integers(1, 2))):
        l = draw(st.integers(0, len(mats) - 1))
        rows, cols = mats[l].shape
        if rows and cols:
            delta = np.full((rows, cols), field.zero(), dtype=field.dtype)
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
            delta[i, j] = field.coerce(draw(oracle_scalars(field)))
            mats[l] = mats[l] + Mat.of_array(field, delta)
    return mats


def axiom_modules(field):
    """Module strategies over Lambda, Kronecker, k[x]/(x^3) and k<x,y>/(x,y)^2."""
    square_zero = regular_module(square_zero_algebra(field))
    return [
        summed(lambda_modules(field)),
        summed(kronecker_modules(field)),
        truncated_modules(field),
        st.just(square_zero),
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_validate_module_matches_pair_loop(case, data):
    m = data.draw(data.draw(st.sampled_from(axiom_modules(ORACLE_FIELDS[case]))))
    assert validate_module(m).ok and ref_validate_module(m).ok
    bad = FDModule(m.algebra, m.dim, corrupted(data.draw, m.action))
    got, want = validate_module(bad), ref_validate_module(bad)
    assert (got.ok, got.problems) == (want.ok, want.problems)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_bimodule_checks_match_pair_loops(case, data):
    b = data.draw(bimodules(ORACLE_FIELDS[case]))
    left, right = b.left_action, b.right_action
    side = data.draw(st.sampled_from(["left", "right", "both", "rebased"]))
    if side == "rebased":
        # still a left module, in another basis than the right action's
        p = data.draw(oracle_mats(b.field, b.dim, b.dim))
        if p.is_invertible():
            left = [p @ x @ p.inverse() for x in left]
    else:
        if side != "right":
            left = corrupted(data.draw, left)
        if side != "left":
            right = corrupted(data.draw, right)
    want = ref_bimodule_error(b.S, b.R, b.dim, left, right, b.generators)
    try:
        Bimodule(b.S, b.R, b.dim, left, right, b.generators)
        got = None
    except ModuleError as exc:
        got = str(exc)
    assert got == want


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_intertwines_matches_basis_loop(case, data):
    modules = data.draw(st.sampled_from(axiom_modules(ORACLE_FIELDS[case])))
    m, n = data.draw(modules), data.draw(modules)
    f = data.draw(module_maps(m, n))
    assert f.intertwines() and ref_intertwines(f)
    if m.dim and n.dim:
        g = ModuleMap(m, n, corrupted(data.draw, [f.matrix])[0], check=False)
        assert g.intertwines() == ref_intertwines(g)


def test_module_and_bimodule_checks_name_the_first_failing_pair(lam2, kron2, bim2):
    one = Mat.identity(GF(2), 1)
    # x acting as the identity fails only x x = 0
    report = validate_module(FDModule(lam2, 1, [one, one]))
    assert report.problems == ["action not multiplicative on (x, x)"]
    # x acting on the left as the identity commutes with every arrow, and
    # fails only x x = 0
    left = [bim2.left_action[0], Mat.identity(GF(2), 4)]
    with pytest.raises(ModuleError, match=re.escape("left action not multiplicative on (x, x)")):
        Bimodule(lam2, kron2, 4, left, bim2.right_action, bim2.generators)
    # the arrow a as the left action of x squares to 0, but does not commute
    # with e1, the first pair that fails
    left = [bim2.left_action[0], bim2.right_action[kron2.labels.index("a")]]
    want = "actions do not commute on (x, e1)"
    assert ref_bimodule_error(lam2, kron2, 4, left, bim2.right_action, bim2.generators) == want
    with pytest.raises(ModuleError, match=re.escape(want)):
        Bimodule(lam2, kron2, 4, left, bim2.right_action, bim2.generators)
