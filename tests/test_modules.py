import functools
import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcalc.examples import (
    embedding_bimodule,
    functor_image,
    kronecker_algebra,
    kronecker_rep,
    lambda_algebra,
    simple_lambda_module,
)
from ppcalc.algebra import Algebra
from ppcalc.linalg import GF, QQ, Mat, Subspace
from ppcalc.modules import (
    Bimodule,
    FDModule,
    IndecResult,
    ModuleError,
    UnsupportedCharacteristicError,
    decompose,
    direct_sum,
    fp_module,
    free_module,
    hom_space,
    identity_map,
    indecomposability,
    is_direct_summand,
    iso_test,
    maps_subspace,
    pushout,
    quotient_module,
    rad_end,
    rad_hom,
    regular_module,
    submodule_generated,
    submodule_module,
    tensor_hom,
    tensor_over,
    validate_module,
    zero_map,
    zero_module,
    ModuleMap,
    _fitting_split,
)

F2 = GF(2)


# -- regular module and validation ------------------------------------


def test_regular_module_lambda(lam2, reg2):
    assert reg2.dim == 2
    x = lam2.basis_element("x")
    # right multiplication by x in basis {e1, x}: 1 -> x, x -> 0
    assert reg2.act(x) == Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert reg2.act(lam2.one) == Mat.identity(F2, 2)
    assert validate_module(reg2).ok


def test_regular_module_kronecker_idempotents(kron2):
    reg = regular_module(kron2)
    e1 = reg.act(kron2.basis_element("e1"))
    e2 = reg.act(kron2.basis_element("e2"))
    assert e1 + e2 == Mat.identity(F2, 4)
    assert validate_module(reg).ok


def test_validate_catches_bad_action(lam2):
    from ppcalc.modules import FDModule

    bad = FDModule(lam2, 1, [Mat.identity(F2, 1), Mat.identity(F2, 1)])
    assert not validate_module(bad).ok  # x*x = 0 but action of x is invertible


# -- hom spaces --------------------------------------------------------


def test_hom_regular_regular_dim2(reg2):
    assert len(hom_space(reg2, reg2)) == 2


def test_hom_simple_to_regular(s1_2, reg2):
    maps = hom_space(s1_2, reg2)
    assert len(maps) == 1
    # the image of 1 must be annihilated by x: spanned by 1 -> x
    assert maps[0].matrix == Mat.from_rows(F2, [[0, 1]])


def test_hom_to_zero(reg2, lam2):
    assert hom_space(reg2, zero_module(lam2)) == []


def test_hom_additive_in_first_argument(s1_2, reg2):
    m, _, _, _, _ = direct_sum(s1_2, reg2)
    for n in (s1_2, reg2):
        assert len(hom_space(m, n)) == len(hom_space(s1_2, n)) + len(
            hom_space(reg2, n)
        )


# -- constructions -----------------------------------------------------


def test_fp_module_single_relation_x(lam2, s1_2):
    x = lam2.basis_element("x")
    q, gens, _ = fp_module(lam2, [[x]])
    assert q.dim == 1
    assert iso_test(q, s1_2)
    assert not gens[0].is_zero()


def test_free_module_rank_two(lam2, reg2):
    f, gens = free_module(lam2, 2)
    assert f.dim == 4
    d, _, _, _, _ = direct_sum(reg2, reg2)
    assert f == d
    assert len(gens) == 2


def test_submodule_generated_socle(lam2, reg2):
    x_vec = reg2.element([0, 1])
    socle = submodule_generated(reg2, [x_vec])
    assert socle.dim == 1
    sub, incl = submodule_module(reg2, socle)
    assert validate_module(sub).ok
    assert incl(sub.basis_vector(0)) == x_vec


def test_quotient_by_noninvariant_fails(reg2):
    u = Subspace.from_vectors(F2, 2, [[1, 0]])  # the line through 1 is not invariant
    with pytest.raises(ModuleError, match="non-invariant"):
        quotient_module(reg2, u)


def test_quotient_socle(lam2, reg2, s1_2):
    socle = submodule_generated(reg2, [reg2.element([0, 1])])
    q, proj = quotient_module(reg2, socle)
    assert q.dim == 1
    assert iso_test(q, s1_2)
    assert proj.intertwines()


# -- tensor ------------------------------------------------------------


def test_tensor_unit(lam2, kron2, bim2, reg2):
    t = tensor_over(reg2, bim2)
    assert t.module.dim == 4
    b_right = bim2.right_module()
    assert iso_test(t.module, b_right)


def test_tensor_simple_gives_small_rep(lam2, kron2, bim2, s1_2):
    t = tensor_over(s1_2, bim2)
    assert t.module.dim == 2
    expected = kronecker_rep(
        kron2, Mat.identity(F2, 1), Mat.zeros(F2, 1, 1)
    )  # (k => k; 1, 0)
    assert iso_test(t.module, expected)


def test_tensor_zero(lam2, bim2):
    t = tensor_over(zero_module(lam2), bim2)
    assert t.module.dim == 0


def test_tensor_matches_functor_image(lam2, kron2, bim2, s1_2, reg2):
    for m in (s1_2, reg2):
        t = tensor_over(m, bim2)
        img = functor_image(kron2, m)
        assert iso_test(t.module, img)


def test_tensor_additive(lam2, kron2, bim2, s1_2, reg2):
    m, _, _, _, _ = direct_sum(s1_2, reg2)
    t = tensor_over(m, bim2)
    t1 = tensor_over(s1_2, bim2)
    t2 = tensor_over(reg2, bim2)
    d, _, _, _, _ = direct_sum(t1.module, t2.module)
    assert t.module.dim == d.dim
    # decompose both and match the pieces up to isomorphism
    left = decompose(t.module, seed=1)
    right = decompose(d, seed=1)
    used = [False] * len(right)
    for piece, _, _ in left:
        matched = False
        for j, (q, _, _) in enumerate(right):
            if not used[j] and iso_test(piece, q):
                used[j] = matched = True
                break
        assert matched
    assert all(used)


def test_tensor_hom_functorial(lam2, bim2, s1_2, reg2):
    f = hom_space(s1_2, reg2)[0]
    ts, tr = tensor_over(s1_2, bim2), tensor_over(reg2, bim2)
    tf = tensor_hom(f, bim2, ts, tr)
    assert tf.intertwines()
    tid = tensor_hom(identity_map(s1_2), bim2, ts, ts)
    assert tid.matrix == Mat.identity(F2, ts.module.dim)
    # pure tensors are respected: (f m) tensor b = (f tensor 1)(m tensor b)
    m_vec = s1_2.element([1])
    for j in range(4):
        b_vec = Mat.identity(F2, 4).row(j)
        assert tr.pure_tensor(f(m_vec), b_vec) == tf(ts.pure_tensor(m_vec, b_vec))


# -- pushout -----------------------------------------------------------


def test_pushout_identity(reg2):
    p, h1, h2 = pushout(identity_map(reg2), identity_map(reg2))
    assert p.dim == reg2.dim
    assert iso_test(p, reg2)


def test_pushout_socle_inclusion_twice(s1_2, reg2):
    f = hom_space(s1_2, reg2)[0]  # 1 -> x
    p, h1, h2 = pushout(f, f)
    assert p.dim == 3  # 2 + 2 - 1


def test_pushout_of_zero_maps(s1_2, reg2, lam2):
    z = zero_module(lam2)
    p, _, _ = pushout(zero_map(z, s1_2), zero_map(z, reg2))
    d, _, _, _, _ = direct_sum(s1_2, reg2)
    assert p.dim == d.dim


def test_pushout_universal_property(s1_2, reg2):
    # any commuting cone factors uniquely through the pushout
    f = hom_space(s1_2, reg2)[0]
    p, h1, h2 = pushout(f, f)
    assert h1.matrix == h2.matrix or (f.then(h1).matrix == f.then(h2).matrix)
    # cone: the codiagonal through reg2 itself
    cone1, cone2 = identity_map(reg2), identity_map(reg2)
    assert f.then(cone1).matrix == f.then(cone2).matrix
    # solve for the mediating map as a linear system over hom space
    basis = hom_space(p, reg2)
    amb = p.dim * reg2.dim
    rows = []
    for h in basis:
        c1 = h1.then(h).matrix
        c2 = h2.then(h).matrix
        rows.append(
            [c1.entry(u, v) for u in range(reg2.dim) for v in range(reg2.dim)]
            + [c2.entry(u, v) for u in range(reg2.dim) for v in range(reg2.dim)]
        )
    target = Mat.from_rows(
        F2,
        [
            [cone1.matrix.entry(u, v) for u in range(reg2.dim) for v in range(reg2.dim)]
            + [cone2.matrix.entry(u, v) for u in range(reg2.dim) for v in range(reg2.dim)]
        ],
    )
    sols = Mat.from_rows(F2, rows)
    x = sols.solve_left(target)
    assert x is not None  # mediating map exists
    # uniqueness: no nonzero map kills both legs
    ker = sols.kernel()
    assert ker.rows == 0


# -- summands, indecomposability, iso ----------------------------------


def test_simple_not_summand_of_regular(s1_2, reg2):
    ok, witness = is_direct_summand(s1_2, reg2)
    assert not ok and witness is None


def test_simple_summand_of_sum(s1_2, reg2):
    m, _, _, _, _ = direct_sum(reg2, s1_2)
    ok, (f, g) = is_direct_summand(s1_2, m)
    assert ok
    assert f.matrix @ g.matrix == Mat.identity(F2, 1)


def test_module_summand_of_itself(reg2):
    ok, (f, g) = is_direct_summand(reg2, reg2)
    assert ok
    assert f.matrix @ g.matrix == Mat.identity(F2, 2)


def test_summand_agrees_with_exhaustive_search(s1_2, reg2, lam2):
    # over F2, scan all pairs (f, g) for g o f = id when hom spaces are small
    candidates = [
        (s1_2, reg2),
        (s1_2, direct_sum(reg2, s1_2)[0]),
        (reg2, direct_sum(reg2, s1_2)[0]),
        (reg2, s1_2),
    ]
    for n, m in candidates:
        fs, gs = hom_space(n, m), hom_space(m, n)
        found = False
        for fc in itertools.product(range(2), repeat=len(fs)):
            for gc in itertools.product(range(2), repeat=len(gs)):
                fm = Mat.zeros(F2, n.dim, m.dim)
                for c, f in zip(fc, fs):
                    if c:
                        fm = fm + f.matrix
                gm = Mat.zeros(F2, m.dim, n.dim)
                for c, g in zip(gc, gs):
                    if c:
                        gm = gm + g.matrix
                if fm @ gm == Mat.identity(F2, n.dim):
                    found = True
        assert is_direct_summand(n, m)[0] == found


def test_indecomposability_results(s1_2, reg2, kron2):
    d, _, _, _, _ = direct_sum(s1_2, s1_2)
    res = indecomposability(d, seed=5)
    assert res.status == "decomposed"
    e = res.witness.matrix
    assert e @ e == e and e.rank() == 1

    res = indecomposability(reg2, seed=5)
    assert res.status == "indecomposable"
    assert "2^2" in res.certificate  # exhaustive over the 4 End elements

    small = kronecker_rep(kron2, Mat.identity(F2, 1), Mat.zeros(F2, 1, 1))
    res = indecomposability(small, seed=5)
    assert res.status == "indecomposable"
    assert res.certificate == "dim End = 1"


def test_indecomposability_zero_module_errors(lam2):
    with pytest.raises(ModuleError):
        indecomposability(zero_module(lam2), seed=0)


def test_decompose_mixed_sum(s1_2, reg2):
    m1, _, _, _, _ = direct_sum(s1_2, reg2)
    m, _, _, _, _ = direct_sum(m1, s1_2)
    pieces = decompose(m, seed=3)
    dims = sorted(p.dim for p, _, _ in pieces)
    assert dims == [1, 1, 2]
    for piece, incl, proj in pieces:
        assert incl.intertwines() and proj.intertwines()
        assert incl.matrix @ proj.matrix == Mat.identity(F2, piece.dim)


def test_iso_test(s1_2, reg2, lam2):
    assert iso_test(reg2, regular_module(lam2))
    socle = submodule_generated(reg2, [reg2.element([0, 1])])
    soc_mod, _ = submodule_module(reg2, socle)
    assert iso_test(s1_2, soc_mod)
    assert not iso_test(s1_2, reg2)


def test_iso_test_requires_certificate(lamq):
    # dim End = 2 over QQ: neither copy can be certified indecomposable
    a, b = regular_module(lamq), regular_module(lamq)
    with pytest.raises(ModuleError, match="certify"):
        iso_test(a, b)


def test_iso_test_refuses_an_unmatched_uncertified_summand(lamq):
    # S + Lambda against S + S + S over QQ: Lambda is only probably
    # indecomposable, so no answer can be given for it
    s, reg = simple_lambda_module(lamq), regular_module(lamq)
    m = direct_sum(s, reg)[0]
    n = direct_sum(direct_sum(s, s)[0], s)[0]
    with pytest.raises(ModuleError, match="certify"):
        iso_test(m, n)


def random_basis(m, seed):
    """m in a seeded random basis."""
    rng = random.Random(seed)
    entries = [[rng.randrange(3) for _ in range(m.dim)] for _ in range(m.dim)]
    return basis_change(m, Mat.from_rows(m.field, entries).array())


def assert_isomorphism(w, m, n):
    assert w is not None and w.source is m and w.target is n
    assert w.matrix.is_invertible() and w.intertwines()


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
def test_iso_test_matches_summands(field):
    lam = lambda_algebra(field)
    s, reg = simple_lambda_module(lam), regular_module(lam)
    s_reg = direct_sum(s, reg)[0]
    for seed in range(3):
        reg_s = random_basis(direct_sum(reg, s)[0], seed)
        assert_isomorphism(iso_test(s_reg, reg_s, seed), s_reg, reg_s)
        assert_isomorphism(iso_test(reg_s, s_reg, seed), reg_s, s_reg)
    assert iso_test(direct_sum(s, s)[0], reg) is None
    assert iso_test(direct_sum(s, s)[0], direct_sum(s, reg)[0]) is None


def test_iso_test_certifies_the_other_side(lam3):
    # a budget of 1 leaves m probably indecomposable; n certifies at the default
    m = regular_module(lam3)
    res = indecomposability(m, seed=0, budget=1)
    assert res.status == "probably-indecomposable"
    n = random_basis(regular_module(lam3), 4)
    assert_isomorphism(iso_test(m, n, indec=res), m, n)
    s = simple_lambda_module(lam3)
    with pytest.raises(ModuleError, match="certify"):
        iso_test(m, direct_sum(s, s)[0], indec=res)


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
def test_iso_test_independent_of_earlier_certification(field):
    def pairs():
        lam = lambda_algebra(field)
        s, reg = simple_lambda_module(lam), regular_module(lam)
        yield s, simple_lambda_module(lam)
        yield reg, random_basis(regular_module(lam), 1)
        yield direct_sum(s, s)[0], reg
        yield direct_sum(s, reg)[0], random_basis(direct_sum(reg, s)[0], 2)
        yield reg, direct_sum(s, s)[0]

    fresh = [iso_test(a, b) for a, b in pairs()]
    for (a, b), before in zip(pairs(), fresh):
        res = indecomposability(a, seed=0)
        after, passed = iso_test(a, b), iso_test(a, b, indec=res)
        for w in (after, passed):
            assert (w is None) == (before is None)
            assert w is None or w.matrix == before.matrix
    assert [w is None for w in fresh] == [False, False, True, False, True]


# -- radicals ----------------------------------------------------------


def test_rad_simple_is_zero(s1_2):
    assert rad_end(s1_2) == []
    assert rad_hom(s1_2, s1_2) == []


def test_rad_between_nonisomorphic_is_full(s1_2, reg2):
    rad = rad_hom(s1_2, reg2)
    assert len(rad) == len(hom_space(s1_2, reg2)) == 1


def test_rad_end_regular_over_qq(lamq):
    reg = regular_module(lamq)
    rad = rad_end(reg)
    assert len(rad) == 1
    x_action = reg.act(lamq.basis_element("x"))
    span = maps_subspace(rad, reg, reg)
    flat = Mat.from_rows(
        QQ, [[x_action.entry(u, v) for u in range(2) for v in range(2)]]
    )
    assert span.contains_vector(flat)


def test_rad_hom_regular_over_qq_via_given_decomposition(lamq):
    reg = regular_module(lamq)
    triv = [(reg, identity_map(reg), identity_map(reg))]
    rad = rad_hom(reg, reg, decomp_m=triv, decomp_n=triv)
    assert len(rad) == 1


def test_rad_end_characteristic_guard(lam2, reg2):
    with pytest.raises(UnsupportedCharacteristicError):
        rad_end(reg2)  # p = 2 = dim End is too small


def test_rad_end_lambda_over_f3():
    lam = lambda_algebra(GF(3))
    reg = regular_module(lam)
    rad = rad_end(reg)
    assert len(rad) == 1
    assert (rad[0].matrix @ rad[0].matrix).is_zero()


def test_bimodule_validation_rejects_bad_data(lam2, kron2, bim2):
    from ppcalc.modules import Bimodule

    # a non-generating tuple is rejected at construction
    with pytest.raises(ModuleError, match="generate"):
        Bimodule(
            lam2, kron2, 4,
            bim2.left_action, bim2.right_action,
            [bim2.generators[0]],  # w alone misses xw
        )
    # non-commuting actions are rejected too: swap the left x-action for
    # something that fails against the arrows
    bad_left = [bim2.left_action[0], bim2.right_action[2]]
    with pytest.raises(ModuleError):
        Bimodule(lam2, kron2, 4, bad_left, bim2.right_action, bim2.generators)


# -- whole-block constructions against their per-row references ---------
#
# tensor_over, quotient_module, submodule_generated, pushout and tensor_hom
# build their relations, actions and maps as whole matrices.  The per-row
# loops below are the reference they must match exactly: every result is a
# canonical echelon subspace or a matrix read off one.


def ref_tensor_relations(m, b):
    """The relations e_i*s (x) f_j - e_i (x) s*f_j, one row at a time."""
    field, dm, db = b.field, m.dim, b.dim
    rel_rows = []
    for i in range(dm):
        ei = Mat.identity(field, dm).row(i)
        for s in range(m.algebra.dim):
            ms = ei @ m.action[s]
            for j in range(db):
                fj = Mat.identity(field, db).row(j)
                sb = fj @ b.left_action[s]
                vec = ms.kron(fj) - ei.kron(sb)
                if not vec.is_zero():
                    rel_rows.append(vec.to_rows()[0])
    return Subspace.from_vectors(field, dm * db, rel_rows)


def ref_quotient(m, u):
    """The actions and projection matrix of m/u, one reduced vector at a time."""
    field = m.field
    nonpiv = u.nonpivot_columns()
    qdim = len(nonpiv)

    def reduce_coords(v):
        red = u.reduce(v)
        return [red.entry(0, j) for j in nonpiv]

    action = []
    for act in m.action:
        rows = [reduce_coords(m.basis_vector(j) @ act) for j in nonpiv]
        action.append(Mat.from_rows(field, rows) if qdim else Mat.zeros(field, 0, 0))
    proj_rows = [reduce_coords(m.basis_vector(i)) for i in range(m.dim)]
    proj = Mat.from_rows(field, proj_rows) if m.dim and qdim else Mat.zeros(field, m.dim, qdim)
    return action, proj


def ref_submodule_generated(m, vectors):
    span = Subspace.from_vectors(m.field, m.dim, vectors)
    while True:
        new_rows = []
        for i in range(span.dim):
            row = span.basis.row(i)
            for act in m.action:
                new_rows.append((row @ act).to_rows()[0])
        bigger = span.sum_with(Subspace.from_vectors(m.field, m.dim, new_rows))
        if bigger.dim == span.dim:
            return span
        span = bigger


def ref_pushout(f, g):
    """The pushout's actions and the matrices of its two legs."""
    d, i1, i2, _, _ = direct_sum(f.target, g.target)
    rows = []
    for i in range(f.source.dim):
        v = f.source.basis_vector(i)
        rows.append((i1(f(v)) - i2(g(v))).to_rows()[0])
    action, proj = ref_quotient(d, Subspace.from_vectors(d.field, d.dim, rows))
    return action, i1.matrix @ proj, i2.matrix @ proj


def ref_tensor_hom(f, b, t_source, t_target):
    field, db = b.field, b.dim
    big = f.matrix.kron(Mat.identity(field, db))
    rows = []
    for j in t_source.relations.nonpivot_columns():
        amb = Mat.identity(field, f.source.dim * db).row(j)
        rows.append(t_target._proj(amb @ big).to_rows()[0])
    src, tgt = t_source.module, t_target.module
    return Mat.from_rows(field, rows) if rows and tgt.dim else Mat.zeros(field, src.dim, tgt.dim)


ORACLE_FIELDS = {"gf2": GF(2), "gf3": GF(3), "gf1048573": GF(1048573), "qq": QQ}
ORACLE = settings(max_examples=25, deadline=None)


def regular_bimodule(a):
    """A as an (A, A)-bimodule: tensoring with it is the identity functor."""
    basis = [a.basis_element(i).coeffs for i in range(a.dim)]
    return Bimodule(
        a, a, a.dim,
        [a.left_mult_matrix(x) for x in basis],
        [a.right_mult_matrix(x) for x in basis],
        [a.one],
    )


@functools.cache
def oracle_algebras(field):
    """(Lambda, Kronecker, the embedding bimodule, the regular Kronecker bimodule)."""
    lam, kron = lambda_algebra(field), kronecker_algebra(field)
    return lam, kron, embedding_bimodule(lam, kron), regular_bimodule(kron)


def oracle_scalars(field):
    if field.is_prime_field:
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def oracle_mats(draw, field, rows, cols):
    entries = draw(st.lists(oracle_scalars(field), min_size=rows * cols, max_size=rows * cols))
    if not rows:
        return Mat.zeros(field, 0, cols)
    return Mat.from_rows(field, [entries[i * cols : (i + 1) * cols] for i in range(rows)])


def basis_change(m, a):
    """m with act -> P act P^-1, P = (1 + lower part of a)(1 + upper part of a)."""
    field, n = m.field, m.dim
    ident = Mat.identity(field, n)
    p = (Mat.of_array(field, np.tril(a, -1)) + ident) @ (Mat.of_array(field, np.triu(a, 1)) + ident)
    pinv = p.inverse()
    return FDModule(m.algebra, n, [p @ act @ pinv for act in m.action])


def conjugate(draw, m):
    """m in a random basis."""
    return basis_change(m, draw(oracle_mats(m.field, m.dim, m.dim)).array())


@st.composite
def lambda_modules(draw, field, max_dim=4):
    """A k[x]/(x^2)-module: x is a random square-zero matrix in a random basis."""
    lam = oracle_algebras(field)[0]
    d = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, d))
    x = np.full((d, d), field.zero(), dtype=field.dtype)
    x[: d - c, d - c :] = draw(oracle_mats(field, d - c, c)).array()
    acts = {"e1": Mat.identity(field, d), "x": Mat.of_array(field, x)}
    return conjugate(draw, FDModule(lam, d, [acts[label] for label in lam.labels]))


@st.composite
def kronecker_modules(draw, field, max_side=2):
    """A Kronecker representation with random arrow matrices, in a random basis."""
    kron = oracle_algebras(field)[1]
    d1, d2 = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    a, b = draw(oracle_mats(field, d1, d2)), draw(oracle_mats(field, d1, d2))
    return conjugate(draw, kronecker_rep(kron, a, b))


@st.composite
def module_maps(draw, source, target):
    """A random k-combination of the hom-space basis."""
    field = source.field
    mat = Mat.zeros(field, source.dim, target.dim)
    for f in hom_space(source, target):
        mat = mat + f.matrix.scale(draw(oracle_scalars(field)))
    return ModuleMap(source, target, mat)


def tensor_kinds(field):
    """(module strategy, bimodule): Lambda-modules with the embedding
    bimodule, Kronecker modules with the regular bimodule."""
    _, _, emb, reg = oracle_algebras(field)
    return [(lambda_modules(field), emb), (kronecker_modules(field), reg)]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_tensor_over_matches_per_row_reference(case, data):
    field = ORACLE_FIELDS[case]
    for modules, b in tensor_kinds(field):
        m = data.draw(modules)
        t = tensor_over(m, b)
        assert t.relations == ref_tensor_relations(m, b)
        i_m = Mat.identity(field, m.dim)
        ambient = FDModule(b.R, m.dim * b.dim, [i_m.kron(act) for act in b.right_action])
        action, proj = ref_quotient(ambient, t.relations)
        assert t.module.action == action
        assert t._proj.matrix == proj


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_submodule_and_quotient_match_per_row_reference(case, data):
    field = ORACLE_FIELDS[case]
    for m in (data.draw(lambda_modules(field)), data.draw(kronecker_modules(field))):
        vectors = data.draw(oracle_mats(field, data.draw(st.integers(0, 2)), m.dim)).to_rows()
        u = submodule_generated(m, vectors)
        assert u == ref_submodule_generated(m, vectors)
        q, proj = quotient_module(m, u)
        action, pmat = ref_quotient(m, u)
        assert q.action == action
        assert proj.matrix == pmat


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_pushout_matches_per_row_reference(case, data):
    field = ORACLE_FIELDS[case]
    x = data.draw(kronecker_modules(field, max_side=1))
    y, z = data.draw(kronecker_modules(field)), data.draw(kronecker_modules(field))
    f, g = data.draw(module_maps(x, y)), data.draw(module_maps(x, z))
    p, h1, h2 = pushout(f, g)
    action, leg1, leg2 = ref_pushout(f, g)
    assert p.action == action
    assert h1.matrix == leg1 and h2.matrix == leg2


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_tensor_hom_matches_per_row_reference(case, data):
    field = ORACLE_FIELDS[case]
    for modules, b in tensor_kinds(field):
        m, n = data.draw(modules), data.draw(modules)
        f = data.draw(module_maps(m, n))
        ts, tt = tensor_over(m, b), tensor_over(n, b)
        assert tensor_hom(f, b, ts, tt).matrix == ref_tensor_hom(f, b, ts, tt)


def test_invariance_witness_is_lowest_row_then_lowest_label(kron2):
    # row 0 escapes only under b, row 1 only under a: the witness is (row 0, b)
    m = kronecker_rep(kron2, Mat.from_rows(F2, [[0, 0], [1, 0]]), Mat.from_rows(F2, [[0, 1], [0, 0]]))
    u = Subspace.from_vectors(F2, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(ModuleError, match=re.escape("vector [1, 0, 0, 0] under b")):
        submodule_module(m, u)
    with pytest.raises(ModuleError, match=re.escape("vector [1, 0, 0, 0] escapes under b")):
        quotient_module(m, u)


# -- the lazy Fitting candidates against the eager list ------------------


def eager_indecomposability(m, seed, budget=1 << 17):
    """indecomposability with all 40 random candidates built before the search."""
    end = hom_space(m, m)
    e = len(end)
    if e == 1:
        return IndecResult("indecomposable", certificate="dim End = 1")

    def combine(coeffs):
        mat = Mat.zeros(m.field, m.dim, m.dim)
        for c, f in zip(coeffs, end):
            if c:
                mat = mat + f.matrix.scale(c)
        return mat

    rng = random.Random(seed)
    if m.field.is_prime_field:
        draw = functools.partial(rng.randrange, m.field.p)
    else:
        draw = functools.partial(rng.randint, -3, 3)
    candidates = [f.matrix for f in end]
    candidates += [combine([draw() for _ in range(e)]) for _ in range(40)]
    for mat in candidates:
        split = _fitting_split(m, mat)
        if split is not None:
            return IndecResult("decomposed", witness=split)
    if m.field.is_prime_field:
        p = m.field.p
        if p**e <= budget:
            ident = Mat.identity(m.field, m.dim)
            coeffs = [0] * e
            while True:
                mat = combine(coeffs)
                if mat @ mat == mat and not mat.is_zero() and mat != ident:
                    return IndecResult("decomposed", witness=ModuleMap(m, m, mat))
                i = 0
                while i < e and coeffs[i] == p - 1:
                    coeffs[i] = 0
                    i += 1
                if i == e:
                    break
                coeffs[i] += 1
            return IndecResult(
                "indecomposable",
                certificate=f"no nontrivial idempotent among {p}^{e} End elements",
            )
    return IndecResult("probably-indecomposable")


def indec_cases(field):
    """Decomposable modules, then indecomposable ones, in a seeded random basis."""
    lam, kron, _, _ = oracle_algebras(field)
    # in the bases this seed draws, no End basis element splits the first
    # case over GF(2), GF(3) or QQ (the test checks it)
    rng = random.Random(111)

    def seeded_basis(m):
        n = m.dim
        return basis_change(m, Mat.from_rows(field, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]).array())

    reg, simple = regular_module(lam), simple_lambda_module(lam)
    r2 = kronecker_rep(kron, Mat.identity(field, 2), Mat.from_rows(field, [[0, 1], [0, 0]]))
    brick = kronecker_rep(kron, Mat.identity(field, 1), Mat.zeros(field, 1, 1))
    # small enough for QQ, where the Fitting powers grow long fractions
    decomposable = [
        direct_sum(brick, brick)[0],
        direct_sum(reg, reg)[0],
        direct_sum(reg, simple)[0],
        direct_sum(simple, simple)[0],
    ]
    return [seeded_basis(m) for m in decomposable + [reg, r2]]


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=repr)
def test_lazy_candidates_give_the_eager_answer(field):
    cases = indec_cases(field)
    # no End basis element splits the first case, so the random candidates are reached
    first = cases[0]
    assert not any(_fitting_split(first, f.matrix) for f in hom_space(first, first))
    for m in cases:
        for seed in range(10):
            lazy, eager = indecomposability(m, seed), eager_indecomposability(m, seed)
            assert (lazy.status, lazy.certificate) == (eager.status, eager.certificate)
            if eager.witness is None:
                assert lazy.witness is None
            else:
                assert lazy.witness.matrix == eager.witness.matrix


# -- hom_space by spinning against the Kronecker system --------------------


def ref_hom_space(m, n):
    """Hom(m, n) as the left kernel of the (s*t) x (s*t*dim A) Kronecker system."""
    s, t = m.dim, n.dim
    if s == 0 or t == 0:
        return []
    field = m.field
    it, i_s = Mat.identity(field, t), Mat.identity(field, s)
    blocks = [m.action[l].transpose().kron(it) - i_s.kron(n.action[l]) for l in range(m.algebra.dim)]
    ker = Mat.hstack(blocks).kernel()
    return [ker.row(r).reshape(s, t) for r in range(ker.rows)]


@functools.cache
def truncated_algebra(field):
    """k[x]/(x^3), given by its structure constants (no quiver)."""
    unit = [[1 if k == j else 0 for k in range(3)] for j in range(3)]
    zero = Mat.zeros(field, 1, 3)
    mul = [[Mat.from_rows(field, [unit[i + j]]) if i + j < 3 else zero for j in range(3)] for i in range(3)]
    return Algebra(field, ["1", "x", "x2"], Mat.from_rows(field, [unit[0]]), mul)


@st.composite
def truncated_modules(draw, field):
    """k[x]/(x^k) for k = 0..3 in a random basis: k = 3 is the regular module."""
    reg = regular_module(truncated_algebra(field))
    k = draw(st.integers(0, 3))
    if k < 3:
        reg = quotient_module(reg, submodule_generated(reg, [[int(j == k) for j in range(3)]]))[0]
    return conjugate(draw, reg)


@st.composite
def summed(draw, modules):
    """One or two drawn modules, their direct sum in a random basis."""
    total = draw(modules)
    if draw(st.booleans()):
        total = conjugate(draw, direct_sum(total, draw(modules))[0])
    return total


def hom_kinds(field):
    """Module strategies; the two arguments of one hom_space come from the same one."""
    lam, kron = oracle_algebras(field)[:2]
    kinds = [lambda_modules(field), kronecker_modules(field), truncated_modules(field)]
    zeros = [st.just(zero_module(a)) for a in (lam, kron, truncated_algebra(field))]
    return [summed(k) for k in kinds] + [st.one_of(k, z) for k, z in zip(kinds, zeros)]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_hom_space_matches_kronecker_reference(case, data):
    field = ORACLE_FIELDS[case]
    modules = data.draw(st.sampled_from(hom_kinds(field)))
    m, n = data.draw(modules), data.draw(modules)
    maps = hom_space(m, n)
    assert [f.matrix for f in maps] == ref_hom_space(m, n)
    for f in maps:
        ModuleMap(m, n, f.matrix, check=True)


def test_hom_space_rejects_a_non_module(lam2):
    # the unit acts as zero, so the spun vectors span nothing
    bad = FDModule(lam2, 2, [Mat.zeros(F2, 2, 2)] * 2)
    # over k itself, a nilpotent "unit": one generator spins to one vector
    k = Algebra(F2, ["1"], Mat.from_rows(F2, [[1]]), [[Mat.from_rows(F2, [[1]])]])
    shift = FDModule(k, 3, [Mat.from_rows(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])])
    for m in (bad, shift):
        with pytest.raises(ModuleError, match="is it a module"):
            hom_space(m, m)
