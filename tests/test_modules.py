import functools
import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest
import hypothesis
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
from ppcalc import modules
from ppcalc.formulas import free_realisation, implies, pp_type_generator
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
    direct_sum_many,
    ext1,
    extension,
    fp_module,
    free_module,
    hom_space,
    identity_map,
    indecomposability,
    is_direct_summand,
    iso_test,
    maps_subspace,
    quotient_module,
    rad_end,
    rad_hom,
    regular_module,
    submodule_generated,
    submodule_module,
    tensor_hom,
    tensor_over,
    validate_module,
    zero_module,
    ModuleMap,
    _enumerate_idempotent,
    _fitting_split,
    _kernel_and_image,
    _krylov_minpoly,
    _roots_mod_p,
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


def kronecker_simples(field):
    """The Kronecker algebra and its simples S1 (vertex 1) and S2 (vertex 2)."""
    kron = oracle_algebras(field)[1]
    s1 = kronecker_rep(kron, Mat.zeros(field, 1, 0), Mat.zeros(field, 1, 0))
    s2 = kronecker_rep(kron, Mat.zeros(field, 0, 1), Mat.zeros(field, 0, 1))
    return kron, s1, s2


def test_summand_test_rejects_a_decomposable_first_argument():
    # End(S1 + S2) = k x k: no composite of two of its basis maps is
    # invertible, yet the identity is the sum of two of them, which the
    # local End ring of an indecomposable forbids
    _, s1, s2 = kronecker_simples(F2)
    n = direct_sum(s1, s2)[0]
    end = hom_space(n, n)
    assert not any((f.matrix @ g.matrix).is_invertible() for f in end for g in end)
    assert maps_subspace(end, n, n).contains_vector(Mat.identity(F2, 2).reshape(1, 4))
    with pytest.raises(ModuleError, match="first argument is not indecomposable"):
        is_direct_summand(n, n)


def test_summand_test_stops_at_a_zero_hom_space(monkeypatch):
    kron, s1, _ = kronecker_simples(F2)
    reg = regular_module(kron)
    # Hom(S1, A) = 0 while Hom(A, S1) is not
    assert not hom_space(s1, reg) and hom_space(reg, s1)
    calls = []

    def counted(m, n):
        calls.append((m, n))
        return hom_space(m, n)

    monkeypatch.setattr(modules, "hom_space", counted)
    assert is_direct_summand(s1, reg) == (False, None)
    assert calls == [(s1, reg)]


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
# tensor_over, quotient_module, submodule_generated and tensor_hom
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
        assert t.module.action == tuple(action)
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
        assert q.action == tuple(action)
        assert proj.matrix == pmat
        s, incl = submodule_module(m, u)
        assert (list(s.action), incl.matrix) == ([u.basis.solve_left(u.basis @ act) for act in m.action], u.basis)


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


def combine(m, end, coeffs):
    """sum c_i f_i over the End basis, one Mat addition per nonzero c_i."""
    mat = Mat.zeros(m.field, m.dim, m.dim)
    for c, f in zip(coeffs, end):
        if c:
            mat = mat + f.matrix.scale(c)
    return mat


def ref_enumerate_idempotent(m, end):
    """The first nontrivial idempotent in counter order (c_0 fastest), one element at a time."""
    p, e = m.field.p, len(end)
    ident = Mat.identity(m.field, m.dim)
    coeffs = [0] * e
    while True:
        mat = combine(m, end, coeffs)
        if mat @ mat == mat and not mat.is_zero() and mat != ident:
            return mat
        i = 0
        while i < e and coeffs[i] == p - 1:
            coeffs[i] = 0
            i += 1
        if i == e:
            return None
        coeffs[i] += 1


def eager_indecomposability(m, seed, budget=1 << 17):
    """indecomposability with each stage's candidates all built before it is searched."""
    end = hom_space(m, m)
    e = len(end)
    if e == 1:
        return IndecResult("indecomposable", certificate="dim End = 1")
    field = m.field
    for mat in [f.matrix for f in end]:
        split = _fitting_split(m, mat)
        if split is not None:
            return IndecResult("decomposed", witness=split)
    if field.is_prime_field and field.p**e <= budget:
        idem = ref_enumerate_idempotent(m, end)
        if idem is not None:
            return IndecResult("decomposed", witness=ModuleMap(m, m, idem))
        return IndecResult(
            "indecomposable",
            certificate=f"no nontrivial idempotent among {field.p}^{e} End elements",
        )
    rng = random.Random(seed)
    if field.is_prime_field:
        p, ident = field.p, Mat.identity(field, m.dim)
        draws = [combine(m, end, [rng.randrange(p) for _ in range(e)]) for _ in range(40)]
        vectors = random.Random(f"eigenvalue shifts {seed}")
        shifts = [Mat.from_rows(field, [[vectors.randrange(p) for _ in range(m.dim)]]) for _ in draws]
        candidates = []
        for f, v in zip(draws, shifts):
            roots = _roots_mod_p(_krylov_minpoly(f, v), p)
            candidates += [f] + [f - ident.scale(lam) for lam in roots if lam]
    else:
        candidates = [combine(m, end, [rng.randint(-3, 3) for _ in range(e)]) for _ in range(40)]
    for mat in candidates:
        split = _fitting_split(m, mat)
        if split is not None:
            return IndecResult("decomposed", witness=split)
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
    # no End basis element splits the first case, so over GF(2) and GF(3) it
    # reaches the enumeration, and over QQ the random candidates
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


# -- the Fitting split's kernel and image from one rref --------------------


@st.composite
def square_mats(draw, field):
    """n x n through a drawn rank; [f | I] has up to 200 entries, on both sides of 128."""
    n = draw(st.integers(1, 10))
    r = draw(st.integers(0, n))
    return draw(oracle_mats(field, n, r)) @ draw(oracle_mats(field, r, n))


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_kernel_and_image_match_their_own_eliminations(case, data):
    field = ORACLE_FIELDS[case]
    f = data.draw(square_mats(field))
    ker, img = _kernel_and_image(f)
    want_ker = Subspace.from_vectors(field, f.rows, f.kernel_basis())
    want_img = Subspace.from_vectors(field, f.rows, f)
    assert (ker, ker.pivots) == (want_ker, want_ker.pivots)
    assert (img, img.pivots) == (want_img, want_img.pivots)


def test_fitting_split_refuses_a_kernel_that_meets_the_image(monkeypatch, lam2):
    # a power of at least dim m meets its kernel only in 0 (Fitting), so the
    # refusal is reached with the map standing in for its power: x on
    # k[x]/(x^2) has kernel and image both (x)
    reg = regular_module(lam2)
    monkeypatch.setattr(Mat, "power", lambda self, k: self)
    assert _fitting_split(reg, reg.action[lam2.labels.index("x")]) is None


def ref_fitting_split(m, f_mat):
    """_fitting_split with the kernel, the image and their meet each from its own elimination."""
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
    tinv = Mat.vstack([ker.basis, img.basis]).inverse()
    return ModuleMap(m, m, tinv.take_columns(range(ker.dim, m.dim)) @ img.basis)


def ref_split(m, seed):
    """modules._split with the idempotent's kernel and image each from its own elimination."""
    res = indecomposability(m, seed)
    if res.status != "decomposed":
        return [(m, identity_map(m), identity_map(m), res)]
    e = res.witness.matrix
    img = Subspace.from_vectors(m.field, m.dim, e)
    ker = Subspace.from_vectors(m.field, m.dim, e.kernel_basis())
    tinv = Mat.vstack([ker.basis, img.basis]).inverse()
    out = []
    for offset, space in ((0, ker), (ker.dim, img)):
        sub, incl = submodule_module(m, space)
        proj = ModuleMap(m, sub, tinv.take_columns(range(offset, offset + space.dim)), check=False)
        for piece, pi, pp, r in ref_split(sub, seed):
            out.append((piece, pi.then(incl), proj.then(pp), r))
    return out


def split_cases(field):
    """Sums of regular Kronecker modules R_a(n) and of Lambda-modules, in seeded random bases."""
    lam = oracle_algebras(field)[0]
    s, reg = simple_lambda_module(lam), regular_module(lam)
    kron = [
        direct_sum(regular_kronecker(field, 0, 1), regular_kronecker(field, 1, 1))[0],
        direct_sum(regular_kronecker(field, 0, 2), regular_kronecker(field, 1, 1))[0],
        direct_sum(regular_kronecker(field, 0, 1), regular_kronecker(field, 0, 2))[0],
    ]
    lams = [direct_sum(reg, s)[0], direct_sum(reg, reg)[0], direct_sum_many([reg, s, reg])[0]]
    return [random_basis(m, seed) for seed, m in enumerate(kron + lams)]


def split_outcomes(cases):
    """Each case's indecomposability at seeds 0..2 and its decomposition (or the error)."""
    out = []
    for m in cases:
        for seed in range(3):
            res = indecomposability(m, seed)
            witness = res.witness.matrix if res.witness else None
            out.append((res.status, res.certificate, res.tried, res.enumerated, witness))
        try:
            out.append([(p.action, i.matrix, q.matrix) for p, i, q in decompose(m, 0)])
        except ModuleError as err:
            out.append(str(err))
    return out


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
def test_one_rref_split_keeps_the_witnesses(case, monkeypatch):
    field = ORACLE_FIELDS[case]
    cases = split_cases(field)
    got = split_outcomes(cases)
    # some case splits by a Fitting candidate, not by the enumeration
    assert any(o[0] == "decomposed" and o[3] == 0 for o in got if isinstance(o, tuple))
    monkeypatch.setattr(modules, "_fitting_split", ref_fitting_split)
    monkeypatch.setattr(modules, "_split", ref_split)
    assert got == split_outcomes(cases)


# -- eigenvalue shifts and the batched enumeration -------------------------


def poly_from_roots(roots, p, times=(1,)):
    """prod (x - r) * times over GF(p), lowest degree first."""
    poly = list(times)
    for r in roots:
        poly = [(a - r * b) % p for a, b in zip([0] + poly, poly + [0])]
    return poly


def brute_roots(poly, p):
    return [a for a in range(p) if sum(c * pow(a, i, p) for i, c in enumerate(poly)) % p == 0]


IRREDUCIBLE_QUADRATIC = {2: [1, 1, 1], 3: [1, 0, 1], 7: [1, 0, 1]}


@pytest.mark.parametrize("p", [2, 3, 7])
def test_roots_mod_p_match_brute_force(p):
    # every polynomial of degree 1-3 with leading coefficient 1 or 2 (mod p)
    for deg in range(1, 4):
        for low in itertools.product(range(p), repeat=deg):
            for lead in {1, 2 % p} - {0}:
                poly = list(low) + [lead]
                assert _roots_mod_p(poly, p) == brute_roots(poly, p), poly
    # distinct linear factors, alone and times an irreducible quadratic
    for k in range(1, min(p, 5) + 1):
        for roots in itertools.combinations(range(p), k):
            for times in ([1], IRREDUCIBLE_QUADRATIC[p]):
                poly = poly_from_roots(roots, p, times)
                assert _roots_mod_p(poly, p) == list(roots)


def test_roots_mod_p_over_a_large_prime():
    p = 1048573
    rng = random.Random(7)
    # -n is a non-square, so x^2 + n has no root
    n = next(a for a in range(2, p) if pow(p - a, (p - 1) // 2, p) == p - 1)
    for _ in range(20):
        roots = sorted(set(rng.randrange(p) for _ in range(rng.randint(1, 8))))
        for times in ([1], [n, 0, 1], [rng.randrange(1, p)]):
            assert _roots_mod_p(poly_from_roots(roots, p, times), p) == roots
        # a repeated root is listed once
        assert _roots_mod_p(poly_from_roots(roots + roots[:1], p), p) == roots
    assert _roots_mod_p([n, 0, 1], p) == []
    assert _roots_mod_p([5], p) == []


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(1048573), QQ], ids=repr)
def test_krylov_minpoly(field):
    one, zero = field.one(), field.zero()
    neg_one = field.neg(one)
    v = Mat.from_rows(field, [[1, 2, 0]])
    assert _krylov_minpoly(Mat.identity(field, 3), Mat.zeros(field, 1, 3)) == [one]
    assert _krylov_minpoly(Mat.zeros(field, 3, 3), v) == [zero, one]
    assert _krylov_minpoly(Mat.identity(field, 3), v) == [neg_one, one]
    # a nilpotent Jordan block: v = e_0 needs all three powers
    shift = Mat.from_rows(field, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    e0 = Mat.from_rows(field, [[1, 0, 0]])
    assert _krylov_minpoly(shift, e0) == [zero, zero, zero, one]
    # the polynomial annihilates v and has the Krylov dimension as degree
    rng = random.Random(3)
    for _ in range(10):
        f = Mat.from_rows(field, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
        w = Mat.from_rows(field, [[rng.randint(-2, 2) for _ in range(4)]])
        poly = _krylov_minpoly(f, w)
        total, power = Mat.zeros(field, 1, 4), w
        for c in poly:
            total, power = total + power.scale(c), power @ f
        assert total.is_zero()
        if not w.is_zero():
            krylov = Mat.vstack([w @ f.power(i) for i in range(5)])
            assert len(poly) - 1 == krylov.rank()


@pytest.mark.parametrize("field", [GF(2), GF(3)], ids=repr)
@ORACLE
@given(data=st.data())
def test_batched_enumeration_matches_the_element_loop(field, data):
    m = data.draw(st.sampled_from([lambda_modules(field), kronecker_modules(field)]).flatmap(summed))
    end = hom_space(m, m)
    hypothesis.assume(m.dim and field.p ** len(end) <= 729)
    flat = Mat.vstack([f.matrix.reshape(1, m.dim * m.dim) for f in end])
    ref = ref_enumerate_idempotent(m, end)
    # one block, and blocks of three elements, so a block boundary is crossed
    idem, count = _enumerate_idempotent(m, flat)
    with mock.patch.object(modules, "_ENUM_BLOCK_ENTRIES", 3 * m.dim * m.dim):
        assert _enumerate_idempotent(m, flat) == (idem, count)
    assert idem == ref
    if ref is None:
        assert count == field.p ** len(end)


def regular_kronecker(field, a, n):
    """R_a(n): the identity and the Jordan block of eigenvalue a, n x n."""
    kron = oracle_algebras(field)[1]
    jordan = [[a if j == i else int(j == i + 1) for j in range(n)] for i in range(n)]
    return kronecker_rep(kron, Mat.identity(field, n), Mat.from_rows(field, jordan))


def test_eigenvalue_shifts_split_regular_sums_over_a_large_prime():
    field = GF(1048573)
    for (a, n), (b, k) in [((0, 2), (1, 2)), ((0, 1), (5, 3)), ((7, 3), (1048572, 1))]:
        for seed in range(10):
            m = random_basis(direct_sum(regular_kronecker(field, a, n), regular_kronecker(field, b, k))[0], seed)
            res = indecomposability(m, seed)
            assert res.status == "decomposed" and res.enumerated == 0
            e = res.witness.matrix
            assert e @ e == e and not e.is_zero() and e != Mat.identity(field, m.dim)
            assert res.witness.intertwines()
            eager = eager_indecomposability(m, seed)
            assert eager.status == "decomposed" and eager.witness.matrix == e
    for a, n in [(0, 2), (1, 3), (5, 4)]:
        for seed in range(10):
            m = random_basis(regular_kronecker(field, a, n), seed)
            assert indecomposability(m, seed).status == "probably-indecomposable"


def test_indecomposability_reports_budget_use(s1_2, reg2, lam3):
    # two End basis elements fail, then all 2^2 elements are enumerated
    res = indecomposability(reg2, seed=0)
    assert (res.status, res.tried, res.enumerated) == ("indecomposable", 2, 4)
    res = indecomposability(direct_sum(s1_2, s1_2)[0], seed=0)
    assert res.status == "decomposed" and res.enumerated == 0 and 1 <= res.tried <= 4
    res = indecomposability(regular_module(lam3), seed=0, budget=1)
    assert (res.status, res.enumerated) == ("probably-indecomposable", 0)
    # End = k[x]/(x^2): the two basis elements, the 40 draws, and one
    # nilpotent shift after each draw with a nonzero eigenvalue
    assert 2 + 40 < res.tried <= 2 + 80
    small = kronecker_rep(oracle_algebras(F2)[1], Mat.identity(F2, 1), Mat.zeros(F2, 1, 1))
    res = indecomposability(small, seed=0)
    assert (res.tried, res.enumerated) == (0, 0)


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


# -- the source module's presentation, spun once per module object --------


def ref_hom_system(m, n, at=None):
    """Steps 1 to 3 of hom_space, all made on every call."""
    s, field, na = m.dim, m.field, m.algebra.dim
    stack = Mat.hstack([Mat.identity(field, s), *m.action]).reshape(s * (na + 1), s)
    gens = [c // (na + 1) for c in stack.transpose().rref()[1] if c % (na + 1) == 0]
    r = len(gens)
    g = Mat.vstack([act.take_rows(gens) for act in m.action])
    red, piv = Mat.hstack([g, Mat.identity(field, na * r)]).rref()
    if piv[:s] != list(range(s)):
        raise ModuleError("hom_space: the spun generators do not span the source; is it a module?")
    nrel = na * r - s
    w = red.take_rows(list(range(s, na * r)) + list(range(s))).take_columns(range(s, s + na * r))
    if at is not None:
        w = Mat.vstack([w.take_rows(range(nrel)), at @ w.take_rows(range(nrel, nrel + s))])
    return w.transpose().kron_sum(Mat.vstack(n.action), na), nrel


def ref_implies_by_system(psi, phi):
    """implies, with the system made by ref_hom_system."""
    fr_psi, fr_phi = free_realisation(psi), free_realisation(phi)
    target = fr_psi.module
    c_phi = Mat.hstack(fr_phi.tuple).reshape(phi.n, fr_phi.module.dim)
    system, nrel = ref_hom_system(fr_phi.module, target, at=c_phi)
    rhs = Mat.hstack([Mat.zeros(target.field, 1, nrel * target.dim), *fr_psi.tuple])
    return system.solve_left(rhs) is not None


def assert_same_system(got, want):
    (mat, nrel), (ref, ref_nrel) = got, want
    assert nrel == ref_nrel
    assert mat.shape == ref.shape
    assert mat.array().dtype == ref.array().dtype
    assert np.array_equal(mat.array(), ref.array())


def presentation_kinds(field):
    """Lambda- and Kronecker modules in random bases, or the zero module."""
    lam, kron = oracle_algebras(field)[:2]
    return [
        st.one_of(lambda_modules(field), st.just(zero_module(lam))),
        st.one_of(kronecker_modules(field), st.just(zero_module(kron))),
    ]


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_hom_system_matches_inline_reference(case, data):
    field = ORACLE_FIELDS[case]
    kind = data.draw(st.sampled_from(presentation_kinds(field)))
    m, n = data.draw(kind), data.draw(kind)
    at = data.draw(oracle_mats(field, data.draw(st.integers(0, 2)), m.dim))
    # the first call spins m; the later ones read the kept presentation
    for _ in range(2):
        assert_same_system(modules._hom_system(m, n), ref_hom_system(m, n))
        assert_same_system(modules._hom_system(m, n, at=at), ref_hom_system(m, n, at=at))
        assert_same_system(modules._hom_system(m, m), ref_hom_system(m, m))
        assert [f.matrix for f in hom_space(m, n)] == ref_hom_space(m, n)
    if m.dim and n.dim:
        tup = data.draw(oracle_mats(field, 1, m.dim))
        phi = pp_type_generator(m, [tup])
        psi = pp_type_generator(n, [data.draw(oracle_mats(field, 1, n.dim))])
        for _ in range(2):
            assert implies(psi, phi) == ref_implies_by_system(psi, phi)
            assert implies(phi, psi) == ref_implies_by_system(phi, psi)


@pytest.fixture
def spins(monkeypatch):
    """The modules _spin_presentation is called on, in call order."""
    calls = []
    spin = modules._spin_presentation

    def counted(m):
        calls.append(m)
        return spin(m)

    monkeypatch.setattr(modules, "_spin_presentation", counted)
    return calls


def test_presentation_is_spun_once_per_source(spins):
    lam = lambda_algebra(F2)
    m = random_basis(direct_sum(regular_module(lam), simple_lambda_module(lam))[0], 1)
    n, other = regular_module(lam), simple_lambda_module(lam)
    phi = pp_type_generator(m, [m.element([1, 0, 1])])
    psi = pp_type_generator(n, [n.element([0, 1])])
    for _ in range(3):
        hom_space(m, n)
        hom_space(m, other)
        hom_space(m, m)
        implies(psi, phi)
    assert [x is m for x in spins] == [True]
    # n and other were only targets
    implies(phi, psi)
    implies(phi, psi)
    assert [x is m for x in spins] == [True, False]
    assert spins[1] is n


def test_presentation_failure_is_not_kept(spins, lam2):
    bad = FDModule(lam2, 2, [Mat.zeros(F2, 2, 2)] * 2)
    errors = []
    for _ in range(3):
        with pytest.raises(ModuleError, match="is it a module") as err:
            hom_space(bad, regular_module(lam2))
        errors.append(str(err.value))
    assert len(set(errors)) == 1
    assert len(spins) == 3 and all(x is bad for x in spins)
    assert "presentation" not in vars(bad)


def test_presentation_is_not_shared_by_value(spins):
    lam = lambda_algebra(GF(3))
    first, second = regular_module(lam), regular_module(lam)
    assert first == second and first is not second
    target = simple_lambda_module(lam)
    assert len(hom_space(first, target)) == len(hom_space(second, target)) == 1
    hom_space(first, target)
    hom_space(second, target)
    assert len(spins) == 2 and spins[0] is first and spins[1] is second
    assert first.presentation is not second.presentation
    assert_same_system(first.presentation, second.presentation)


def test_actions_cannot_be_rewritten_under_a_kept_presentation(lam2, kron2):
    m = regular_module(lam2)
    assert len(hom_space(m, m)) == 2
    with pytest.raises(TypeError):
        m.action[1] = Mat.zeros(F2, 2, 2)
    copy = FDModule(m.algebra, m.dim, list(m.action))
    assert len(hom_space(m, m)) == len(hom_space(copy, copy)) == 2
    b = embedding_bimodule(lam2, kron2)
    for actions in (b.left_action, b.right_action):
        with pytest.raises(TypeError):
            actions[0] = actions[1]
    assert b.right_action is b.right_module().action


def test_a_module_is_built_from_its_matrices_or_their_stack(lam2):
    m = direct_sum(regular_module(lam2), simple_lambda_module(lam2))[0]
    stacked = FDModule(lam2, m.dim, Mat.vstack(list(m.action)))
    assert stacked == m and hash(stacked) == hash(m) and stacked.action == m.action
    # row l * dim + i of the stack is row i of a_l, and action views it
    for l, act in enumerate(m.action):
        assert act == m.stack.take_rows(range(l * m.dim, (l + 1) * m.dim))
        assert np.shares_memory(act.array(), m.stack.array())
    assert not m.stack.array().flags.writeable
    for bad in (m.action[:1], [m.action[0], Mat.zeros(F2, 2, 2)], Mat.zeros(F2, 3, 3)):
        with pytest.raises(ModuleError, match="action"):
            FDModule(lam2, m.dim, bad)


def test_element_checks_the_length_of_lists_and_matrices(s1_2, reg2):
    # a list of the wrong length was wrapped as a 1 x 3 vector of a dim-1 module
    for coords in ([1, 0, 0], [], Mat.from_rows(GF(2), [[1, 0]])):
        with pytest.raises(ModuleError, match="element vector has wrong length"):
            s1_2.element(coords)
    assert s1_2.element([1]) == Mat.from_rows(GF(2), [[1]])
    with pytest.raises(ModuleError, match="element vector has wrong length"):
        pp_type_generator(reg2, [[1]])


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(1048573), QQ], ids=repr)
def test_basis_vector_is_the_identity_row(field):
    lam = lambda_algebra(field)
    m = direct_sum_many([regular_module(lam), simple_lambda_module(lam)], algebra=lam)[0]
    ident = Mat.identity(field, m.dim)
    for i in range(m.dim):
        v = m.basis_vector(i)
        assert v == ident.row(i)
        assert not v.array().flags.writeable
        assert type(v.entry(0, i)) is type(field.one())
    for i in (-1, m.dim):
        with pytest.raises(ModuleError, match="out of range"):
            m.basis_vector(i)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_elements_in_counter_order(p, dim):
    # coordinate 0 fastest: itertools.product read with the last entry first
    lam = lambda_algebra(GF(p))
    m = direct_sum_many([simple_lambda_module(lam)] * dim, algebra=lam)[0]
    got = [v.to_rows()[0] for v in m.elements()]
    assert got == [list(c[::-1]) for c in itertools.product(range(p), repeat=dim)]


def test_elements_past_int64_weights():
    # 2^64 elements: a base**i weights vector would overflow int64 here
    lam = lambda_algebra(F2)
    m = direct_sum_many([simple_lambda_module(lam)] * 64, algebra=lam)[0]
    first = [v.to_rows()[0] for v in itertools.islice(m.elements(), 4)]
    assert first == [[0] * 64, [1] + [0] * 63, [0, 1] + [0] * 62, [1, 1] + [0] * 62]


EXT_FIELDS = [GF(2), GF(3), QQ]


def lambda_modules_of(lam):
    """S, Lambda_Lambda, S + Lambda and 0 over a copy of k[x]/(x^2) with basis (1, x)."""
    field = lam.field
    s = FDModule(lam, 1, [Mat.identity(field, 1), Mat.zeros(field, 1, 1)])
    reg = regular_module(lam)
    return [s, reg, direct_sum(s, reg)[0], zero_module(lam)]


@pytest.mark.parametrize("field", EXT_FIELDS, ids=repr)
def test_ext1_of_lambda(field):
    # Lambda is self-injective, so Ext^1(Lambda, -) = 0 = Ext^1(-, Lambda);
    # Ext^1(S, S) has one class, of 0 -> S -> Lambda -> S -> 0
    lam = lambda_algebra(field)
    s, reg, _, zero = lambda_modules_of(lam)
    for n in (s, reg, zero):
        assert ext1(reg, n).rows == ext1(n, reg).rows == ext1(zero, n).rows == ext1(n, zero).rows == 0
    classes = ext1(s, s)
    assert classes.shape == (1, 2)
    middle = extension(s, s, classes)
    assert not middle.action[1].is_zero()  # x acts nonzero: no S splits off
    if field.is_prime_field:
        assert iso_test(middle, reg) is not None


@pytest.mark.parametrize("field", EXT_FIELDS, ids=repr)
def test_extensions_are_modules_and_the_zero_class_is_the_direct_sum(field):
    lam = lambda_algebra(field)
    mods = lambda_modules_of(lam)
    for m, n in itertools.product(mods, repeat=2):
        classes = ext1(m, n)
        assert extension(m, n, Mat.zeros(field, 1, lam.dim * m.dim * n.dim)) == direct_sum(m, n)[0]
        rows = [classes.row(r) for r in range(classes.rows)]
        for c in rows + ([functools.reduce(Mat.__add__, rows)] if rows else []):
            e = extension(m, n, c)
            assert validate_module(e).ok
            # n embeds by the rows [0 | I] and E projects onto m by the columns [I; 0]
            ident = Mat.identity(field, e.dim)
            ModuleMap(n, e, ident.take_rows(range(m.dim, e.dim)))
            ModuleMap(e, m, ident.take_columns(range(m.dim)))


@pytest.mark.parametrize("field", EXT_FIELDS, ids=repr)
def test_ext1_needs_no_quiver(field):
    # Lambda given by its structure constants has the quiver algebra's Ext dimensions
    rows = functools.partial(Mat.from_rows, field)
    one, x, zero = rows([[1, 0]]), rows([[0, 1]]), rows([[0, 0]])
    constants = Algebra(field, ["1", "x"], one, [[one, x], [x, zero]])
    assert constants.quiver is None

    def dims(lam):
        mods = lambda_modules_of(lam)
        return [[ext1(m, n).rows for n in mods] for m in mods]

    assert dims(constants) == dims(lambda_algebra(field)) == [[1, 0, 1, 0], [0] * 4, [1, 0, 1, 0], [0] * 4]


@pytest.mark.parametrize("field", EXT_FIELDS, ids=repr)
def test_ext1_of_truncated_polynomials(field):
    # over A = k[x]/(x^3), M_a = A/x^a A has the periodic resolution
    # ... -> A -x^(3-a)-> A -x^a-> A -> M_a -> 0, so dim Ext^1(M_a, M_b) is
    # dim ker(x^(3-a) on M_b) - dim im(x^a on M_b) = min(3 - a, b) - max(b - a, 0)
    reg = regular_module(truncated_algebra(field))
    quotients = {a: quotient_module(reg, submodule_generated(reg, [[int(j == a) for j in range(3)]]))[0]
                 for a in (1, 2)}
    quotients[3] = reg
    for (a, m), (b, n) in itertools.product(quotients.items(), repeat=2):
        assert ext1(m, n).rows == min(3 - a, b) - max(b - a, 0)


def test_ext1_and_extension_need_one_algebra(s1_2):
    other = kronecker_simples(GF(2))[1]
    with pytest.raises(ModuleError, match="same algebra"):
        ext1(s1_2, other)
    with pytest.raises(ModuleError, match="same algebra"):
        extension(other, s1_2, Mat.zeros(GF(2), 1, 0))
    with pytest.raises(ModuleError, match="class shape"):
        extension(s1_2, s1_2, Mat.zeros(GF(2), 1, 3))
