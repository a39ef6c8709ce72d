import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcalc.io import ParseError, field_from_str
from ppcalc import linalg
from ppcalc.linalg import (
    _GF2_PACK_THRESHOLD,
    _LIST_RREF_THRESHOLD,
    GF,
    QQ,
    DimensionMismatch,
    FieldSpec,
    Mat,
    Subspace,
    _list_rref,
    _rref,
    quotient_basis,
)

F2 = GF(2)
F3 = GF(3)


def rand_mat(field, rows, cols, rng):
    if field.is_prime_field:
        return Mat.from_rows(
            field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
        )
    return Mat.from_rows(
        field, [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    )


def test_rref_repeated_row_f2():
    m = Mat.from_rows(F2, [[1, 1], [1, 1]])
    red, piv = m.rref()
    assert red.to_rows() == [[1, 1], [0, 0]]
    assert piv == [0]


def test_rref_identity_qq():
    m = Mat.identity(QQ, 3)
    red, piv = m.rref()
    assert red == m
    assert piv == [0, 1, 2]


def test_rref_hand_reduction_qq():
    # swap rows, scale, eliminate: [[0,2],[1,3]] -> [[1,0],[0,1]]
    m = Mat.from_rows(QQ, [[0, 2], [1, 3]])
    red, piv = m.rref()
    assert red == Mat.identity(QQ, 2)
    assert piv == [0, 1]


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_rref_idempotent(field):
    rng = random.Random(7)
    for _ in range(25):
        m = rand_mat(field, rng.randrange(1, 5), rng.randrange(1, 5), rng)
        red, piv = m.rref()
        again, piv2 = red.rref()
        assert red == again and piv == piv2


@pytest.mark.parametrize("field", [F2, F3, QQ])
def test_rank_nullity(field):
    rng = random.Random(11)
    for _ in range(30):
        r, c = rng.randrange(1, 6), rng.randrange(1, 6)
        m = rand_mat(field, r, c, rng)
        assert m.rank() + m.kernel().rows == r


def test_kernel_members_annihilate():
    rng = random.Random(3)
    for _ in range(20):
        m = rand_mat(F3, rng.randrange(1, 6), rng.randrange(1, 6), rng)
        ker = m.kernel()
        if ker.rows:
            assert (ker @ m).is_zero()


def test_kernel_of_zero_matrix_is_full():
    ker = Mat.zeros(F2, 2, 2).kernel()
    assert Subspace.from_vectors(F2, 2, ker) == Subspace.full(F2, 2)


def test_intersect_complementary_lines():
    u = Subspace.from_vectors(QQ, 2, [[1, 0]])
    v = Subspace.from_vectors(QQ, 2, [[0, 1]])
    assert u.intersect(v).dim == 0


def test_modular_dimension_identity_seeded():
    # dim(U+V) + dim(U cap V) == dim U + dim V, 50 seeded pairs in dim 5 over F3.
    rng = random.Random(2024)

    def rand_vectors():
        return [
            [rng.randrange(3) for _ in range(5)] for _ in range(rng.randrange(0, 4))
        ]

    for _ in range(50):
        u = Subspace.from_vectors(F3, 5, rand_vectors())
        v = Subspace.from_vectors(F3, 5, rand_vectors())
        s = u.sum_with(v)
        i = u.intersect(v)
        assert s.dim + i.dim == u.dim + v.dim
        assert s.contains(u) and s.contains(v)
        assert u.contains(i) and v.contains(i)


def test_subspace_equality_is_canonical():
    u = Subspace.from_vectors(F3, 3, [[1, 1, 0], [0, 1, 1]])
    v = Subspace.from_vectors(F3, 3, [[1, 0, 2], [2, 2, 0]])
    # same span given by different spanning sets
    assert u == v
    assert u.basis == v.basis


def test_membership_and_reduce():
    u = Subspace.from_vectors(F2, 3, [[1, 0, 1]])
    assert u.contains_vector(Mat.from_rows(F2, [[1, 0, 1]]))
    assert not u.contains_vector(Mat.from_rows(F2, [[1, 1, 0]]))
    red = u.reduce(Mat.from_rows(F2, [[1, 1, 1]]))
    assert red == Mat.from_rows(F2, [[0, 1, 0]])


def test_solve_left_and_inverse():
    a = Mat.from_rows(QQ, [[2, 1], [1, 1]])
    inv = a.inverse()
    assert inv @ a == Mat.identity(QQ, 2)
    b = Mat.from_rows(QQ, [[1, 0]])
    x = a.solve_left(b)
    assert x @ a == b
    # inconsistent system
    sing = Mat.from_rows(QQ, [[1, 1], [1, 1]])
    assert sing.solve_left(Mat.from_rows(QQ, [[1, 0]])) is None


def test_quotient_basis():
    inner = Subspace.from_vectors(F3, 3, [[1, 0, 0]])
    outer = Subspace.full(F3, 3)
    reps = quotient_basis(inner, outer)
    assert len(reps) == 2
    span = inner
    for r in reps:
        span = span.sum_with(Subspace.from_vectors(F3, 3, r))
    assert span == outer
    with pytest.raises(DimensionMismatch):
        quotient_basis(outer, inner)


def test_ambient_mismatch_errors():
    u = Subspace.full(F2, 2)
    v = Subspace.full(F2, 3)
    with pytest.raises(DimensionMismatch):
        u.sum_with(v)
    with pytest.raises(DimensionMismatch):
        u.intersect(v)


def test_power_and_trace():
    n = Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert n.power(2).is_zero()
    assert n.power(0) == Mat.identity(F2, 2)
    assert Mat.from_rows(QQ, [[2, 5], [0, 3]]).trace() == 5


def test_gf2_packed_rref_matches_generic():
    from ppcalc.linalg import _gf2_rref, _rref
    import numpy as np

    rng = random.Random(99)
    for trial in range(10):
        r = rng.randrange(1, 90)
        c = rng.randrange(1, 200)
        a = np.array(
            [[rng.randrange(2) for _ in range(c)] for _ in range(r)], dtype=np.int64
        )
        fast, piv_fast = _gf2_rref(a)
        slow, piv_slow = _rref(a, F2)
        assert piv_fast == piv_slow
        assert (fast == slow).all()


# -- property tests over every representation --------------------------------

# name -> (field, rows range, cols range).  Mat.rref picks the kernel by
# size: QQ matrices and GF(p) matrices of at most _LIST_RREF_THRESHOLD
# (4096) entries take the list routine, GF(2) matrices of at least 8192
# entries the bitpacked one, and the other GF(p) matrices the int64 one.
# The "-large" and "-packed" cases keep the last two under every property.
CASES = {
    "gf2": (F2, (1, 6), (1, 6)),
    "gf2-packed": (F2, (64, 80), (128, 150)),
    "gf3": (F3, (1, 6), (1, 6)),
    "gf3-large": (F3, (65, 80), (65, 80)),
    "gf1048573": (GF(1048573), (1, 6), (1, 6)),
    "gf1048573-large": (GF(1048573), (65, 80), (65, 80)),
    "qq": (QQ, (1, 6), (1, 6)),
}
PROPERTY = settings(max_examples=30, deadline=None)


def scalars(field):
    if field.is_prime_field:
        return st.integers(0, field.p - 1)
    return st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def matrices(draw, case, rows=None, cols=None):
    """A matrix over the case's field, of the case's shape unless given."""
    field, (rlo, rhi), (clo, chi) = CASES[case]
    rows = draw(st.integers(rlo, rhi)) if rows is None else rows
    cols = draw(st.integers(clo, chi)) if cols is None else cols
    if rows * cols >= _LIST_RREF_THRESHOLD:
        # too many entries to draw one by one: draw a seed and a rank
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rank = draw(st.integers(0, rows))
        b = Mat.of_array(field, gen.integers(0, field.p, (rows, rank)))
        c = Mat.of_array(field, gen.integers(0, field.p, (rank, cols)))
        return b @ c
    entries = draw(st.lists(scalars(field), min_size=rows * cols, max_size=rows * cols))
    return Mat.from_rows(field, [entries[i * cols : (i + 1) * cols] for i in range(rows)])


def assert_canonical(mat):
    """Entries are reduced int64 (GF(p)) or Fraction objects (QQ), read out as Python scalars."""
    a = mat.array()
    if mat.field.is_prime_field:
        assert a.dtype == np.int64 and ((0 <= a) & (a < mat.field.p)).all()
        scalar = int
    else:
        assert a.dtype == object and all(type(x) is Fraction for x in a.flat)
        scalar = Fraction
    assert all(type(x) is scalar for row in mat.to_rows() for x in row)
    if mat.rows and mat.cols:
        assert type(mat.entry(mat.rows - 1, mat.cols - 1)) is scalar


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_rref_idempotent_echelon(case, data):
    m = data.draw(matrices(case))
    red, piv = m.rref()
    assert red.rref() == (red, piv)
    assert red.take_rows(range(len(piv), red.rows)).is_zero()
    assert red.take_rows(range(len(piv))).take_columns(piv) == Mat.identity(m.field, len(piv))


@PROPERTY
@given(matrices("qq"))
def test_property_qq_rref_matches_sympy(m):
    red, piv = m.rref()
    ref, ref_piv = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.to_rows()]
    ).rref()
    assert piv == list(ref_piv)
    assert red.to_rows() == [[Fraction(int(x.p), int(x.q)) for x in row] for row in ref.tolist()]


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_kernel_annihilates_rank_nullity(case, data):
    m = data.draw(matrices(case))
    ker = m.kernel()
    assert (ker @ m).is_zero()
    assert m.rank() + ker.rows == m.rows


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_solve_left_consistent(case, data):
    m = data.draw(matrices(case))
    # a right-hand side in the row space is always solved
    b = data.draw(matrices(case, rows=2, cols=m.rows)) @ m
    sol = m.solve_left(b)
    assert sol is not None and sol @ m == b
    # an arbitrary one exactly when it lies in the row space
    c = data.draw(matrices(case, rows=2, cols=m.cols))
    sol = m.solve_left(c)
    assert (sol is not None) == (Mat.vstack([m, c]).rank() == m.rank())
    if sol is not None:
        assert sol @ m == c


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_sum_and_intersection_dimensions(case, data):
    m = data.draw(matrices(case))
    n = data.draw(matrices(case, cols=m.cols))
    u = Subspace.from_vectors(m.field, m.cols, m)
    w = Subspace.from_vectors(m.field, m.cols, n)
    total, meet = u.sum_with(w), u.intersect(w)
    assert total.dim + meet.dim == u.dim + w.dim
    assert total.contains(u) and total.contains(w)
    assert u.contains(meet) and w.contains(meet)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_results_are_canonical(case, data):
    m = data.draw(matrices(case))
    field = m.field
    results = [
        Mat.zeros(field, 2, 3),
        Mat.identity(field, 3),
        Mat.of_array(field, np.arange(-3, 3).reshape(2, 3)),
        m.rref()[0],
        m.kernel(),
        m.solve_left(m),
        m @ m.transpose(),
        m.take_columns([0]).kron(m.take_rows([0])),
        m + m,
        m - m,
        -m,
        m.scale(2),
        m.reshape(1, m.rows * m.cols),
        Subspace.from_vectors(field, m.cols, m).basis,
    ]
    for r in results:
        assert_canonical(r)
    k = min(m.rows, m.cols)
    square = m.take_rows(range(k)).take_columns(range(k))
    assert type(square.trace()) is (int if field.is_prime_field else Fraction)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_reshape_is_row_major(case, data):
    m = data.draw(matrices(case))
    flat = m.reshape(1, m.rows * m.cols)
    assert flat.to_rows() == [[x for row in m.to_rows() for x in row]]
    assert flat.reshape(m.rows, m.cols) == m


@PROPERTY
@given(matrices("qq"))
def test_property_equal_qq_matrices_share_key_and_hash(m):
    rows = m.to_rows()
    copies = [
        Mat.from_rows(QQ, [[Fraction(x.numerator, x.denominator) for x in r] for r in rows]),
        Mat.of_array(QQ, np.array(rows, dtype=object)),
        m + Mat.zeros(QQ, m.rows, m.cols),
        Mat.identity(QQ, m.rows) @ m,
        m.transpose().transpose(),
    ]
    for c in copies:
        assert c == m and c.key() == m.key() and hash(c) == hash(m)
    assert len({m, *copies}) == 1


@pytest.mark.parametrize("p", [4294967291, 2**61 - 1, 3037000501])
def test_characteristic_beyond_int64_products_is_rejected(p):
    # (p-1)^2 >= 2^63: checked before the primality test, so 2^61-1 is quick
    with pytest.raises(ValueError, match="too large"):
        GF(p)
    with pytest.raises(ParseError, match="too large"):
        field_from_str(f"fp:{p}")


@pytest.mark.parametrize("p", [1000000007, 3037000493])
def test_products_near_the_bound_are_exact(p):
    # 3037000493 is the largest prime with (p-1)^2 < 2^63: products are
    # reduced after every term there
    field = GF(p)
    rng = random.Random(p)
    n = 30
    a = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    b = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    expect = [[sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]
    am = Mat.from_rows(field, a)
    assert (am @ Mat.from_rows(field, b)).to_rows() == expect
    assert am @ am.inverse() == Mat.identity(field, n)


# -- Kronecker products and one-elimination kernels ---------------------------

SMALL_CASES = ["gf2", "gf3", "gf1048573", "qq"]


@st.composite
def small_matrices(draw, field, rows=None, cols=None):
    """A matrix of 0 to 3 rows and columns (empty shapes included)."""
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    entries = draw(st.lists(scalars(field), min_size=rows * cols, max_size=rows * cols))
    return Mat.of_array(field, np.array(entries, dtype=object).reshape(rows, cols))


@pytest.mark.parametrize("case", SMALL_CASES)
@PROPERTY
@given(data=st.data())
def test_property_kron_matches_numpy(case, data):
    field = CASES[case][0]
    a, b = data.draw(small_matrices(field)), data.draw(small_matrices(field))
    got = a.kron(b)
    assert got.shape == (a.rows * b.rows, a.cols * b.cols)
    assert np.array_equal(got.array(), field.reduce(np.kron(a.array(), b.array())))
    assert_canonical(got)


@pytest.mark.parametrize("case", SMALL_CASES)
@PROPERTY
@given(data=st.data())
def test_property_kron_sum_is_the_sum_of_krons(case, data):
    field = CASES[case][0]
    (p, q), (r, s) = [(data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))) for _ in range(2)]
    count = data.draw(st.integers(1, 3))
    lefts = [data.draw(small_matrices(field, p, q)) for _ in range(count)]
    rights = [data.draw(small_matrices(field, r, s)) for _ in range(count)]
    expect = lefts[0].kron(rights[0])
    for x, y in zip(lefts[1:], rights[1:]):
        expect = expect + x.kron(y)
    got = Mat.vstack(lefts).kron_sum(Mat.vstack(rights), count)
    assert got == expect
    assert_canonical(got)


def test_kron_sum_rejects_uneven_blocks():
    with pytest.raises(DimensionMismatch):
        Mat.identity(F3, 3).kron_sum(Mat.identity(F3, 2), 2)
    with pytest.raises(DimensionMismatch):
        Mat.identity(F3, 2).kron_sum(Mat.identity(F3, 2), 0)


@pytest.mark.parametrize("case", sorted(CASES))
@PROPERTY
@given(data=st.data())
def test_property_kernel_basis_spans_the_kernel(case, data):
    m = data.draw(matrices(case))
    basis = m.kernel_basis()
    assert (basis @ m).is_zero()
    assert basis.rank() == basis.rows == m.rows - m.rank()
    assert basis.rref()[0] == m.kernel()


def test_rref_skips_inverse_of_unit_pivots(monkeypatch):
    # Over GF(2) every pivot is 1; over GF(3) these pivots all come out 1.
    cases = [
        (F2, [[0, 1, 1], [1, 1, 0], [1, 0, 1]]),
        (F3, [[1, 2, 0], [2, 2, 1]]),
    ]
    expected = [Mat.from_rows(field, rows).rref() for field, rows in cases]

    def no_inverse(self, x):
        raise AssertionError("inv called on a unit pivot")

    monkeypatch.setattr(FieldSpec, "inv", no_inverse)
    for (field, rows), want in zip(cases, expected):
        assert Mat.from_rows(field, rows).rref() == want


# -- the list routine against the int64 one, and the kernel dispatch ----------

KERNEL_FIELDS = {
    "gf2": F2,
    "gf3": F3,
    "gf1048573": GF(1048573),
    "gf3037000493": GF(3037000493),
    "qq": QQ,
}


@st.composite
def kernel_inputs(draw, field):
    """A writable canonical array on either side of _LIST_RREF_THRESHOLD.

    It is a product of two sparse random factors whose inner dimension (the
    drawn rank) may be 0, giving the zero matrix, or below the smaller side,
    giving a rank-deficient one.  Over QQ the rank is at most 4, which keeps
    the oracle's Fraction elimination cheap.
    """
    n = _LIST_RREF_THRESHOLD
    rows = draw(st.integers(1, 80))
    if draw(st.booleans()):
        cols = draw(st.integers(n // rows + 1, n // rows + 8))
    else:
        cols = draw(st.integers(1, max(1, n // rows)))
    if draw(st.booleans()):
        rows, cols = cols, rows
    top_rank = min(rows, cols) + 2 if field.p else 4
    rank = top_rank - draw(st.integers(0, top_rank))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([1.0, 0.5, 0.2]))
    top = field.p or 4

    def factor(shape):
        sparse = gen.integers(0, top, shape) * (gen.random(shape) < density)
        return Mat.of_array(field, sparse)

    a = (factor((rows, rank)) @ factor((rank, cols))).array().copy()
    a.setflags(write=True)
    return a


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@PROPERTY
@given(data=st.data())
def test_property_list_rref_matches_int64_rref(name, data):
    field = KERNEL_FIELDS[name]
    a = data.draw(kernel_inputs(field))
    before = a.copy()
    red, piv = _list_rref(a, field)
    assert np.array_equal(a, before)
    ref, ref_piv = _rref(a, field)
    assert piv == ref_piv
    assert red.shape == a.shape and np.array_equal(red, ref)
    assert_canonical(Mat._of(field, red))


def _raise(*args):
    raise AssertionError("this kernel should not run")


@pytest.mark.parametrize(
    "field, cols, kernel",
    [
        (QQ, _LIST_RREF_THRESHOLD + 1, "_list_rref"),
        (F3, _LIST_RREF_THRESHOLD, "_list_rref"),
        (F3, _LIST_RREF_THRESHOLD + 1, "_rref"),
        (F2, _GF2_PACK_THRESHOLD - 1, "_rref"),
        (F2, _GF2_PACK_THRESHOLD, "_gf2_rref"),
    ],
)
def test_rref_dispatch_by_field_and_size(monkeypatch, field, cols, kernel):
    m = Mat.of_array(field, (np.arange(cols) % 5 + 1).reshape(1, cols))
    want = m.rref()
    for other in ("_list_rref", "_rref", "_gf2_rref"):
        if other != kernel:
            monkeypatch.setattr(linalg, other, _raise)
    assert m.rref() == want
    assert want[1] == [0] and want[0].entry(0, 1) == field.coerce(2)
