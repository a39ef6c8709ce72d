import math
import random
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcalc.io import ParseError, field_from_str
from ppcalc import linalg
from ppcalc.linalg import (
    _LIST_RREF_THRESHOLD,
    _SLICED_RREF_THRESHOLD,
    GF,
    QQ,
    DimensionMismatch,
    FieldSpec,
    Mat,
    Subspace,
    _kron,
    _list_rref,
    _neg,
    _pack,
    _product,
    _qq_rref,
    _rref,
    _scale,
    _sliced_rref,
    _sum,
    _unpack,
    _zeros,
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


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=str)
def test_row_raises_past_the_end_and_counts_negatives_from_it(field):
    m = Mat.identity(field, 3)
    for i in range(-3, 3):
        assert m.row(i) == m.take_rows([i])
        assert m.row(i).shape == (1, 3)
    for i in (3, 5, -4):
        with pytest.raises(IndexError):
            m.row(i)
        with pytest.raises(IndexError):
            m.take_rows([i])


def test_power_and_trace():
    n = Mat.from_rows(F2, [[0, 1], [0, 0]])
    assert n.power(2).is_zero()
    assert n.power(0) == Mat.identity(F2, 2)
    assert Mat.from_rows(QQ, [[2, 5], [0, 3]]).trace() == 5


@pytest.mark.parametrize("k", [-1, -2, -7])
def test_power_negative_exponent_raises(k):
    with pytest.raises(ValueError):
        Mat.identity(F2, 2).power(k)


def test_gf2_packed_rref_matches_generic():
    rng = random.Random(99)
    for trial in range(10):
        r = rng.randrange(1, 90)
        c = rng.randrange(1, 200)
        a = np.array(
            [[rng.randrange(2) for _ in range(c)] for _ in range(r)], dtype=np.int64
        )
        fast, piv_fast = _sliced_rref(a, 2)
        slow, piv_slow = _rref(a, F2)
        assert piv_fast == piv_slow
        assert (fast == slow).all()


# -- property tests over every representation --------------------------------

# name -> (field, rows range, cols range).  Mat.rref picks the kernel by
# field and size: QQ matrices take the fraction-free routine, GF(2) and
# GF(3) matrices of at most _SLICED_RREF_THRESHOLD (128) entries and other
# GF(p) matrices of at most _LIST_RREF_THRESHOLD (1024) entries the list
# routine, the larger GF(2) and GF(3) matrices the bit-packed (sliced) one,
# and the other GF(p) matrices the int64 one.  The "-large", "-packed" and
# "-wide" cases keep the last two under every property, rows of several
# 64-bit words included.
CASES = {
    "gf2": (F2, (1, 6), (1, 6)),
    "gf2-packed": (F2, (64, 80), (128, 150)),
    "gf3": (F3, (1, 6), (1, 6)),
    "gf3-large": (F3, (65, 80), (65, 80)),
    "gf3-wide": (F3, (64, 80), (128, 150)),
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
    """Entries are reduced int64 (GF(p)) or Fraction objects (QQ), read out as Python scalars.

    The backing array is read-only.
    """
    a = mat.array()
    assert not a.flags.writeable
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


@pytest.mark.parametrize("p", [3, 3037000493])
def test_stacked_products_match_one_product_per_matrix(p):
    # at 3037000493 every term is reduced, so the chunks cross the stack too
    field = GF(p)
    rng = random.Random(p)
    stack = [rand_mat(field, 5, 5, rng) for _ in range(4)]
    a = np.stack([m.array() for m in stack])
    out = linalg._product(field, a, a)
    assert out.shape == (4, 5, 5)
    for m, sq in zip(stack, out):
        assert Mat.of_array(field, sq) == m @ m


def test_coerce_rejects_a_denominator_divisible_by_p():
    assert GF(3).coerce(Fraction(1, 2)) == 2 and GF(3).coerce(Fraction(-4, 7)) == 2
    for x in (Fraction(1, 3), Fraction(2, 9)):
        with pytest.raises(ZeroDivisionError, match="no value mod 3"):
            GF(3).coerce(x)
    assert GF(5).coerce(Fraction(1, 3)) == 2


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


# -- the list and QQ routines against the int64 one, and the kernel dispatch --

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
    red, piv = _qq_rref(a) if field == QQ else _list_rref(a, field)
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
        (QQ, 4097, "_qq_rref"),
        (F3, _SLICED_RREF_THRESHOLD, "_list_rref"),
        (F3, _SLICED_RREF_THRESHOLD + 1, "_sliced_rref"),
        (F2, _SLICED_RREF_THRESHOLD, "_list_rref"),
        (F2, _SLICED_RREF_THRESHOLD + 1, "_sliced_rref"),
        (GF(1048573), _LIST_RREF_THRESHOLD, "_list_rref"),
        (GF(1048573), _LIST_RREF_THRESHOLD + 1, "_rref"),
    ],
)
def test_rref_dispatch_by_field_and_size(monkeypatch, field, cols, kernel):
    m = Mat.of_array(field, (np.arange(cols) % 5 + 1).reshape(1, cols))
    want = m.rref()
    for other in ("_qq_rref", "_list_rref", "_rref", "_sliced_rref"):
        if other != kernel:
            monkeypatch.setattr(linalg, other, _raise)
    assert m.rref() == want
    assert want[1] == [0] and want[0].entry(0, 1) == field.coerce(2)


# -- the QQ kernels against the Fraction rref and the broadcast forms ---------

# Numerators up to 10^12 and denominators up to 10^6, with zeros drawn often
# so that the kernels' nonzero-only arms see sparse operands.
QQ_SCALARS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)


@st.composite
def qq_arrays(draw, rows=None, cols=None):
    """A writable Fraction array of 0 to 6 rows and columns (empty shapes included)."""
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(0, 6)) if cols is None else cols
    entries = draw(st.lists(QQ_SCALARS, min_size=rows * cols, max_size=rows * cols))
    return object_array(entries, rows, cols)


def object_array(entries, rows, cols):
    """A writable rows x cols object array of the entries, in row-major order."""
    a = np.empty(rows * cols, dtype=object)
    a[:] = entries
    return a.reshape(rows, cols)


@st.composite
def qq_rref_inputs(draw):
    """A writable Fraction array: any, all-zero, rank-deficient, with repeated rows, or Hilbert-like."""
    kind = draw(st.sampled_from(["any", "zero", "deficient", "duplicate", "hilbert"]))
    if kind == "any":
        return draw(qq_arrays())
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if kind == "zero":
        return _zeros(QQ, rows, cols)
    if kind == "deficient":
        rank = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        return _product(QQ, draw(qq_arrays(rows, rank)), draw(qq_arrays(rank, cols)))
    if kind == "duplicate":
        base = draw(qq_arrays(max(rows, 1), cols))
        picks = draw(st.lists(st.integers(0, base.shape[0] - 1), min_size=rows + 1, max_size=rows + 4))
        return base[picks]
    # 1 / (i + j + shift), times drawn integer row factors: a Hilbert-like
    # matrix whose rref runs through large numerators and denominators
    n = draw(st.integers(1, 8))
    shift = draw(st.integers(1, 4))
    factors = draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))
    return object_array([Fraction(factors[i], i + j + shift) for i in range(n) for j in range(n)], n, n)


def test_qq_rref_hilbert_8():
    a = object_array([Fraction(1, i + j + 1) for i in range(8) for j in range(8)], 8, 8)
    red, piv = _qq_rref(a)
    assert piv == list(range(8))
    assert np.array_equal(red, _zeros(QQ, 8, 8) + np.eye(8, dtype=int))
    assert np.array_equal(red, _rref(a, QQ)[0])


@settings(max_examples=150, deadline=None)
@given(qq_rref_inputs())
def test_property_qq_rref_matches_fraction_rref(a):
    before = a.copy()
    red, piv = _qq_rref(a)
    assert np.array_equal(a, before)
    ref, ref_piv = _rref(a, QQ)
    assert piv == ref_piv
    assert red.shape == a.shape and np.array_equal(red, ref)
    assert_canonical(Mat._of(QQ, red))


# The dense forms the QQ arms replace, kept as references: each touches
# every entry, zeros included.
QQ_REFERENCES = {
    "kron": lambda a, b, c: (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    ),
    "matmul": lambda a, b, c: a @ b,
    "add": lambda a, b, c: a + b,
    "sub": lambda a, b, c: a - b,
    "neg": lambda a, b, c: -a,
    "scale": lambda a, b, c: a * c,
}
QQ_KERNELS = {
    "kron": lambda a, b, c: _kron(QQ, a, b),
    "matmul": lambda a, b, c: _product(QQ, a, b),
    "add": lambda a, b, c: _sum(QQ, a, b, 1),
    "sub": lambda a, b, c: _sum(QQ, a, b, -1),
    "neg": lambda a, b, c: _neg(QQ, a),
    "scale": lambda a, b, c: _scale(QQ, a, c),
}
QQ_METHODS = {
    "kron": lambda m, n, c: m.kron(n),
    "matmul": lambda m, n, c: m @ n,
    "add": lambda m, n, c: m + n,
    "sub": lambda m, n, c: m - n,
    "neg": lambda m, n, c: -m,
    "scale": lambda m, n, c: m.scale(c),
}


@pytest.mark.parametrize("op", sorted(QQ_REFERENCES))
@PROPERTY
@given(data=st.data())
def test_property_qq_entrywise_kernels_match_broadcast(op, data):
    a = data.draw(qq_arrays())
    if op == "kron":
        b = data.draw(qq_arrays())
    elif op == "matmul":
        b = data.draw(qq_arrays(rows=a.shape[1]))
    else:
        b = data.draw(qq_arrays(*a.shape))
    c = data.draw(st.one_of(st.sampled_from([Fraction(1), Fraction(-1)]), QQ_SCALARS))
    want = QQ_REFERENCES[op](a, b, c)
    before = (a.copy(), b.copy())
    got = QQ_KERNELS[op](a, b, c)
    assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])
    assert got.shape == want.shape and np.array_equal(got, want)
    m = QQ_METHODS[op](Mat._of(QQ, a), Mat._of(QQ, b), c)
    assert np.array_equal(m.array(), want)
    assert_canonical(m)


def test_qq_product_cancels_to_fraction_zero():
    # row 0 over 12 is [2, 3], the column over 5 is [3, -2]: 2*3 + 3*(-2) = 0
    a = Mat.from_rows(QQ, [[Fraction(1, 6), Fraction(1, 4)], [Fraction(1, 2), 0]])
    b = Mat.from_rows(QQ, [[Fraction(3, 5)], [Fraction(-2, 5)]])
    got = a @ b
    assert got.to_rows() == [[Fraction(0)], [Fraction(3, 10)]]
    assert_canonical(got)


def dense_identity(n):
    """The n x n identity as a writable Fraction array."""
    out = _zeros(QQ, n, n)
    out.flat[:: n + 1] = Fraction(1)
    return out


@PROPERTY
@given(data=st.data())
def test_property_qq_kron_sum_matches_dense_krons(data):
    (p, q), (r, s) = [(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))) for _ in range(2)]
    count = data.draw(st.integers(1, 3))
    lefts = [data.draw(qq_arrays(p, q)) for _ in range(count)]
    rights = [data.draw(qq_arrays(r, s)) for _ in range(count)]
    want = _zeros(QQ, p * r, q * s)
    for x, y in zip(lefts, rights):
        want = want + np.kron(x, y)
    left, right = np.concatenate(lefts), np.concatenate(rights)
    before = (left.copy(), right.copy())
    got = Mat._of(QQ, left).kron_sum(Mat._of(QQ, right), count)
    assert np.array_equal(left, before[0]) and np.array_equal(right, before[1])
    assert got.shape == want.shape and np.array_equal(got.array(), want)
    assert_canonical(got)


@PROPERTY
@given(data=st.data())
def test_property_qq_reduce_matches_dense_coset_representatives(data):
    cols = data.draw(st.integers(0, 6))
    space = Subspace.from_vectors(QQ, cols, Mat._of(QQ, data.draw(qq_arrays(cols=cols))))
    v = data.draw(qq_arrays(cols=cols))
    basis = space.basis.array()
    want = v - v[:, space.pivots] @ basis
    before = (v.copy(), basis.copy())
    got = space.reduce(Mat._of(QQ, v))
    assert np.array_equal(v, before[0]) and np.array_equal(space.basis.array(), before[1])
    assert got.shape == v.shape and np.array_equal(got.array(), want)
    assert not np.count_nonzero(got.array()[:, space.pivots])
    assert_canonical(got)


@PROPERTY
@given(data=st.data())
def test_property_qq_power_matches_repeated_dense_products(data):
    n, k = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 5))
    a = data.draw(qq_arrays(n, n))
    want = dense_identity(n)
    for _ in range(k):
        want = want @ a
    before = a.copy()
    got = Mat._of(QQ, a).power(k)
    assert np.array_equal(a, before)
    assert got.shape == (n, n) and np.array_equal(got.array(), want)
    assert_canonical(got)


# -- the sliced kernel against the int64 one ----------------------------------


@st.composite
def sliced_inputs(draw, field):
    """A writable canonical array over GF(2) or GF(3) for the sliced kernel.

    The shape is near the list cut, a width at or across a 64-bit word
    boundary, or tall and sparse like criterion 4's systems (about 350 x
    150 at under 1% nonzero).  The entries are zero, all p - 1, a product
    of sparse factors through a drawn rank (so often rank-deficient), or
    sparse and independent.
    """
    shape = draw(st.sampled_from(["cut", "word", "tall"]))
    if shape == "cut":
        rows = draw(st.integers(1, 16))
        lo = max(1, (_SLICED_RREF_THRESHOLD - 8) // rows)
        cols = draw(st.integers(lo, lo + 16 // rows + 2))
    elif shape == "word":
        rows = draw(st.integers(1, 40))
        cols = draw(st.sampled_from([63, 64, 65, 127, 128, 129, 150, 200]))
    else:
        rows = draw(st.integers(200, 360))
        cols = draw(st.integers(90, 150))
    if shape != "tall" and draw(st.booleans()):
        rows, cols = cols, rows
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from(["zero", "top", "product", "sparse"]))
    density = draw(st.sampled_from([1.0, 0.3, 0.05, 0.006]))

    def sparse(shape):
        return gen.integers(0, field.p, shape) * (gen.random(shape) < density)

    if fill == "zero":
        a = np.zeros((rows, cols), dtype=np.int64)
    elif fill == "top":
        a = np.full((rows, cols), field.p - 1, dtype=np.int64)
    elif fill == "product":
        rank = draw(st.integers(0, min(rows, cols) + 2))
        b, c = Mat.of_array(field, sparse((rows, rank))), Mat.of_array(field, sparse((rank, cols)))
        a = (b @ c).array().copy()
    else:
        a = field.canonical(sparse((rows, cols)))
    a.setflags(write=True)
    return a


@pytest.mark.parametrize("name", ["gf2", "gf3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_sliced_rref_matches_int64_rref(name, data):
    field = KERNEL_FIELDS[name]
    a = data.draw(sliced_inputs(field))
    before = a.copy()
    red, piv = _sliced_rref(a, field.p)
    assert np.array_equal(a, before)
    ref, ref_piv = _rref(a, field)
    assert piv == ref_piv
    assert red.shape == a.shape and np.array_equal(red, ref)
    assert_canonical(Mat._of(field, red))


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("cols", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200])
def test_pack_one_bit_per_column(p, cols):
    rng = np.random.default_rng(cols)
    a = rng.integers(0, p, (6, cols))
    a[0] = 0
    a[1] = p - 1
    for arr in (a, np.asfortranarray(a)):
        ints = _pack(arr, p)
        planes = [a == 1] if p == 2 else [a != 0, a == 2]
        want = [sum(1 << j for j in np.flatnonzero(row).tolist()) for bits in planes for row in bits]
        assert ints == want
        assert np.array_equal(_unpack(ints, cols), np.vstack(planes))


def test_sliced_rref_fixed_cases():
    # every entry 2 over GF(3): one pivot, the row normalised to all 1
    red, piv = _sliced_rref(np.full((3, 70), 2, dtype=np.int64), 3)
    assert piv == [0]
    assert (red[0] == 1).all() and not red[1:].any()
    # lead 2 with a 1 after it: normalised to lead 1 and a 2
    red, piv = _sliced_rref(np.array([[0, 2, 1] + [0] * 67], dtype=np.int64), 3)
    assert piv == [1] and red[0, :3].tolist() == [0, 1, 2]
    # 1 + 1 = 2 and 2 + 2 = 1: the sum of two rows in the rref of three
    a = np.zeros((3, 70), dtype=np.int64)
    a[0, [0, 2, 3]] = [1, 1, 2]
    a[1, [1, 2, 3]] = [1, 1, 2]
    a[2] = (a[0] + a[1]) % 3
    red, piv = _sliced_rref(a, 3)
    assert piv == [0, 1] and np.array_equal(red, _rref(a, F3)[0])
    # the zero matrix, square and wide
    for shape in [(66, 66), (2, 200)]:
        red, piv = _sliced_rref(np.zeros(shape, dtype=np.int64), 3)
        assert piv == [] and red.shape == shape and not red.any()


# -- small operations against the array code they replaced --------------------

# Test-only copies of the earlier constructors and operations: np.full and
# fill_diagonal, np.vstack / np.hstack, list-indexed takes, and the
# eliminations through Mat.rref with every intermediate wrapped in a Mat.


def old_zeros(field, rows, cols):
    return np.full((rows, cols), field.zero(), dtype=field.dtype)


def old_identity(field, n):
    a = old_zeros(field, n, n)
    np.fill_diagonal(a, field.one())
    return a


def old_kernel_basis(m):
    field, n = m.field, m.rows
    red, piv = m.transpose().rref()
    pivset = set(piv)
    free = [j for j in range(n) if j not in pivset]
    out = old_zeros(field, len(free), n)
    out[np.arange(len(free)), free] = field.one()
    out[:, piv] = _neg(field, red.array()[: len(piv), free].T)
    return out


def old_solve_left(m, b):
    red, piv = Mat._of(m.field, np.hstack([m.array().T, b.array().T])).rref()
    if piv and piv[-1] >= m.rows:
        return None
    xt = old_zeros(m.field, m.rows, b.rows)
    xt[piv] = red.array()[: len(piv), m.rows :]
    return xt.T


def old_from_vectors(m):
    red, piv = m.rref()
    return red.array()[: len(piv)], piv


def old_reduce(space, v):
    coords = Mat._of(v.field, v.array()[:, list(space.pivots)])
    return (v - coords @ space.basis).array()


OLD_FIELDS = {"gf2": F2, "gf3": F3, "gf1048573": GF(1048573), "qq": QQ}


@st.composite
def ranges(draw, n):
    """A step-1 range inside 0..n: empty, full, a head, a tail or inside."""
    kind = draw(st.sampled_from(["empty", "full", "head", "tail", "inner"]))
    k = draw(st.integers(0, n))
    if kind == "empty":
        return range(k, k)
    if kind == "full":
        return range(n)
    if kind == "head":
        return range(k)
    if kind == "tail":
        return range(k, n)
    return range(k, draw(st.integers(k, n)))


def same(mat, want):
    """mat holds exactly the array want, canonically."""
    assert_canonical(mat)
    assert mat.shape == want.shape and np.array_equal(mat.array(), want)


@pytest.mark.parametrize("name", sorted(OLD_FIELDS))
@PROPERTY
@given(data=st.data())
def test_property_constructors_and_stacks_match_the_old_code(name, data):
    field = OLD_FIELDS[name]
    rows, cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    same(Mat.zeros(field, rows, cols), old_zeros(field, rows, cols))
    same(Mat.identity(field, rows), old_identity(field, rows))
    assert _zeros(field, rows, cols).flags.writeable
    count = data.draw(st.integers(1, 3))
    tall = [data.draw(small_matrices(field, cols=cols)) for _ in range(count)]
    wide = [data.draw(small_matrices(field, rows=rows)) for _ in range(count)]
    same(Mat.vstack(tall), np.vstack([m.array() for m in tall]))
    same(Mat.hstack(wide), np.hstack([m.array() for m in wide]))


@pytest.mark.parametrize("name", sorted(OLD_FIELDS))
@PROPERTY
@given(data=st.data())
def test_property_takes_match_list_indexing(name, data):
    field = OLD_FIELDS[name]
    m = data.draw(small_matrices(field, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))))
    rows, cols = data.draw(ranges(m.rows)), data.draw(ranges(m.cols))
    same(m.take_rows(rows), m.array()[list(rows)])
    same(m.take_columns(cols), m.array()[:, list(cols)])
    picks = data.draw(st.lists(st.integers(0, max(0, m.cols - 1)), max_size=4 if m.cols else 0))
    same(m.take_columns(picks), m.array()[:, picks])
    same(m.take_columns(iter(picks)), m.array()[:, picks])


@pytest.mark.parametrize(
    "idx", [range(0, 4), range(-1, 1), range(3, 1), range(0, 3, 2), range(2, 0, -1), range(5, 5)]
)
def test_takes_outside_a_contiguous_range_index_as_lists(idx):
    # ranges that run past the end, start below 0 or step otherwise keep the
    # list semantics: IndexError past the end, negatives from the end
    m = Mat.of_array(F3, np.arange(9).reshape(3, 3))
    for take, axis in ((m.take_rows, 0), (m.take_columns, 1)):
        try:
            want = np.take(m.array(), list(idx), axis=axis)
        except IndexError:
            with pytest.raises(IndexError):
                take(idx)
            continue
        same(take(idx), want)


@pytest.mark.parametrize("name", sorted(OLD_FIELDS))
@PROPERTY
@given(data=st.data())
def test_property_eliminations_match_the_old_code(name, data):
    field = OLD_FIELDS[name]
    m = data.draw(small_matrices(field, data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))))
    same(m.kernel_basis(), old_kernel_basis(m))
    basis, piv = old_from_vectors(m)
    space = Subspace.from_vectors(field, m.cols, m)
    same(space.basis, basis)
    assert space.pivots == tuple(piv)
    v = data.draw(small_matrices(field, cols=m.cols))
    same(space.reduce(v), old_reduce(space, v))
    assert space.contains_vector(v) == (not old_reduce(space, v).any())
    # a right-hand side in the row space, and one drawn freely
    for b in (data.draw(small_matrices(field, cols=m.rows)) @ m, v):
        want = old_solve_left(m, b)
        got = m.solve_left(b)
        assert (got is None) == (want is None)
        if got is not None:
            same(got, want)


# -- the forward pass over GF(2) and GF(3) against the transposed route ------


def old_rank(m):
    return len(m.rref()[1])


@st.composite
def forward_inputs(draw, field):
    """(a, b) over GF(2) or GF(3) for the forward pass, a = m x n and b = k x n.

    The shape has no rows or no columns, is small, or has n + m (the bits
    of a tracked row) near 64 or 128, or m or n alone near 64.  a is a
    product of sparse factors through a drawn rank, so it is often rank
    deficient.  b has 0 to 3 rows: combinations of a's rows, free rows
    (inconsistent whenever they leave the row space), or consistent rows
    with one free row among them.
    """
    shape = draw(st.sampled_from(["empty", "small", "tracked", "side"]))
    if shape == "empty":
        rows, cols = draw(st.sampled_from([(0, 0), (0, 3), (3, 0), (0, 70), (70, 0)]))
    elif shape == "small":
        rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    elif shape == "tracked":
        total = draw(st.sampled_from([62, 63, 64, 65, 127, 128, 129]))
        rows = draw(st.integers(1, total - 1))
        cols = total - rows
    else:
        rows, cols = draw(st.sampled_from([62, 63, 64, 65])), draw(st.integers(1, 12))
        if draw(st.booleans()):
            rows, cols = cols, rows
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([1.0, 0.3, 0.05]))

    def sparse(shape):
        return Mat.of_array(field, gen.integers(0, field.p, shape) * (gen.random(shape) < density))

    rank = draw(st.integers(0, min(rows, cols) + 1))
    a = sparse((rows, rank)) @ sparse((rank, cols))
    k = draw(st.integers(0, 3))
    kind = draw(st.sampled_from(["consistent", "free", "mixed"]))
    b = sparse((k, rows)) @ a if kind != "free" else sparse((k, cols))
    if kind == "mixed" and k:
        free = gen.integers(0, field.p, (1, cols))
        b = Mat.vstack([b.take_rows(range(k - 1)), Mat.of_array(field, free)])
    return a, b


@pytest.mark.parametrize("name", ["gf2", "gf3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_forward_pass_matches_the_transposed_route(name, data):
    field = OLD_FIELDS[name]
    a, b = data.draw(forward_inputs(field))
    same(a.kernel_basis(), old_kernel_basis(a))
    assert a.rank() == old_rank(a)
    assert a.independent_rows() == a.transpose().rref()[1]
    assert a.is_invertible() == (a.rows == a.cols and old_rank(a) == a.rows)
    want, got = old_solve_left(a, b), a.solve_left(b)
    assert (got is None) == (want is None)
    if got is not None:
        same(got, want)
        assert got @ a == b
    # the projection of the kernel to the first k coordinates
    k = data.draw(st.integers(0, a.rows))
    proj = a.projected_kernel(k)
    assert_canonical(proj)
    assert proj.rank() == proj.rows
    assert Subspace.from_vectors(field, k, proj) == Subspace.from_vectors(
        field, k, Mat._of(field, old_kernel_basis(a)[:, :k])
    )


@pytest.mark.parametrize("name", ["gf2", "gf3"])
@pytest.mark.parametrize("rows", [60, 61, 63, 64, 65, 70])
def test_forward_pass_fixed_cases(name, rows):
    # 3 + rows tracked bits and rows kernel columns on both sides of 63 and 64
    field = OLD_FIELDS[name]
    # every row equal: rows 1.. depend on row 0, each kernel row is e_f - e_0
    a = Mat.of_array(field, np.ones((rows, 3), dtype=np.int64))
    ker = a.kernel_basis()
    assert ker.shape == (rows - 1, rows) and a.rank() == 1 and a.independent_rows() == [0]
    same(ker, old_kernel_basis(a))
    # -e_0 and the e_f - e_0 for 0 < f < rows - 1 span all of the first rows - 1 coordinates
    assert a.projected_kernel(rows - 1).rank() == rows - 1
    # b with no rows is solved by the 0 x m matrix, and a row outside the
    # row space after a solvable one makes the whole system unsolvable
    same(a.solve_left(Mat.zeros(field, 0, 3)), old_zeros(field, 0, rows))
    assert a.solve_left(Mat.of_array(field, [[1, 1, 1], [1, 0, 0]])) is None
    x = a.solve_left(Mat.of_array(field, [[2, 2, 2]]))
    assert x.to_rows() == [[field.coerce(2)] + [0] * (rows - 1)]
    # the transpose: one pivot row of rows columns, all of them 1
    red, piv = Mat.of_array(field, np.ones((3, rows), dtype=np.int64)).rref()
    assert piv == [0] and red.to_rows() == [[1] * rows, [0] * rows, [0] * rows]
    # no columns: every row is in the kernel, and any b with no columns is solved by 0
    a = Mat.zeros(field, 4, 0)
    same(a.kernel_basis(), old_identity(field, 4))
    same(a.solve_left(Mat.zeros(field, 2, 0)), old_zeros(field, 2, 4))
    assert a.rank() == 0 and a.independent_rows() == []
    # no rows: the kernel is empty, and only b = 0 is solved
    a = Mat.zeros(field, 0, 5)
    same(a.kernel_basis(), old_zeros(field, 0, 0))
    same(a.solve_left(Mat.zeros(field, 1, 5)), old_zeros(field, 1, 0))
    assert a.solve_left(Mat.of_array(field, [[0, 0, 1, 0, 0]])) is None


def ref_kernel_image(m, k):
    """kernel_image by three steps: the kernel of A, times B, in rref without its zero rows."""
    ys = m.take_columns(range(k)).kernel_basis()
    red, piv = (ys @ m.take_columns(range(k, m.cols))).rref()
    return red.array()[: len(piv)]


@st.composite
def kernel_image_inputs(draw, field):
    """(m, k) with m = [A | B], A the first k columns.

    The width is small, or near 63 (the one-int rows of _sliced_rows), or
    wide enough that the B parts left hold fewer or more than
    _SLICED_RREF_THRESHOLD entries.  A is zero, has independent rows (the
    kernel is empty), or is a product of sparse factors through a drawn
    rank; k may be 0 (no A columns) or the whole width (no B columns).
    """
    cols = draw(st.sampled_from([0, 1, 3, 6, 20, 40, 62, 63, 64, 65]))
    k = draw(st.sampled_from([0, cols, cols // 2, cols // 4]) | st.integers(0, cols))
    kind = draw(st.sampled_from(["zero", "independent", "low rank"]))
    rows = draw(st.integers(0, k if kind == "independent" else 14))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([1.0, 0.3, 0.05]))

    def sparse(shape):
        if field.is_prime_field:
            return Mat.of_array(field, gen.integers(0, field.p, shape) * (gen.random(shape) < density))
        return Mat.of_array(field, gen.integers(-3, 4, shape) * (gen.random(shape) < density))

    if kind == "zero":
        a = Mat.zeros(field, rows, k)
    elif kind == "independent":
        # [I | X], its columns shuffled
        perm = gen.permutation(k).tolist()
        a = Mat.hstack([Mat.identity(field, rows), sparse((rows, k - rows))]).take_columns(perm)
    else:
        rank = draw(st.integers(0, min(rows, k) + 1))
        a = sparse((rows, rank)) @ sparse((rank, k))
    return Mat.hstack([a, sparse((rows, cols - k))]), k


@pytest.mark.parametrize("name", sorted(OLD_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_property_kernel_image_matches_three_steps(name, data):
    field = OLD_FIELDS[name]
    m, k = data.draw(kernel_image_inputs(field))
    got = m.kernel_image(k)
    same(got, ref_kernel_image(m, k))
    assert got.rank() == got.rows


@pytest.mark.parametrize("name", sorted(OLD_FIELDS))
def test_kernel_image_fixed_cases(name):
    field = OLD_FIELDS[name]
    b = Mat.of_array(field, [[1, 2, 0], [2, 4, 0], [0, 1, 1]])
    # no A columns, or A zero: every y counts, so the answer is the rref of B
    want = Mat._of(field, old_from_vectors(b)[0])
    assert b.kernel_image(0) == want
    assert Mat.hstack([Mat.zeros(field, 3, 4), b]).kernel_image(4) == want
    # A invertible: only y = 0, whatever B is
    assert Mat.hstack([Mat.identity(field, 3), b]).kernel_image(3).shape == (0, 3)
    # A = (1, 1, 0)^T: the kernel is spanned by e_0 - e_1 and e_2
    a = Mat.of_array(field, [[1], [1], [0]])
    got = Mat.hstack([a, b]).kernel_image(1)
    assert got == Mat._of(field, old_from_vectors(Mat.vstack([b.row(0) - b.row(1), b.row(2)]))[0])
    # no B columns, and no rows
    assert Mat.hstack([a, Mat.zeros(field, 3, 0)]).kernel_image(1).shape == (0, 0)
    assert Mat.zeros(field, 0, 5).kernel_image(2).shape == (0, 3)


def test_kernel_image_over_gf3_past_the_one_pass_cut(monkeypatch):
    # past the cut GF(3) takes the kernel, the product and the rref, with the same answer
    rng = np.random.default_rng(3)
    low = rng.integers(0, 3, (40, 5)) @ rng.integers(0, 3, (5, 30))
    m = Mat.of_array(F3, np.hstack([low, rng.integers(0, 3, (40, 50))]))
    kernels = []
    kernel_basis = Mat.kernel_basis

    def counted(self):
        kernels.append(self.shape)
        return kernel_basis(self)

    monkeypatch.setattr(Mat, "kernel_basis", counted)
    want = m.kernel_image(30)
    assert kernels == [] and want.rows == 35
    monkeypatch.setattr(linalg, "_ONE_PASS_GF3_CUT", m.rows * m.cols - 1)
    assert m.kernel_image(30) == want and kernels == [(40, 30)]
    same(want, ref_kernel_image(m, 30))


# -- the singleton presolve of kernel_image and solve_left -------------------


@contextmanager
def presolve_cut(cut):
    """linalg._PRESOLVE_CUT set to cut inside the block (inf: no presolve)."""
    old = linalg._PRESOLVE_CUT
    linalg._PRESOLVE_CUT = cut
    try:
        yield
    finally:
        linalg._PRESOLVE_CUT = old


# the cuts each property is checked at: 0 presolves every system, the real
# cut only the large ones
PRESOLVE_CUTS = [0, linalg._PRESOLVE_CUT]
# rows x body columns: below the real cut, and above it (66 * 66 > 4096)
PRESOLVE_SIZES = {"small": ((1, 10), (0, 8)), "large": ((66, 76), (66, 76))}


@st.composite
def presolve_systems(draw, field, size):
    """(a, b, kind) for X a = b, with singleton columns planted in a.

    a's columns, shuffled, are a sparse random body and planted columns:
    - a private column for each held row, its one nonzero there (most held
      rows have body nonzeros too);
    - a chain from one held row through two more rows, a column on each
      step, which only a second and then a third round find singleton;
    - a trap column on two held rows, emptied once both are forced.
    b's rows are y a for y that is 0 on the held and chain rows (kind
    "pinned"), the same with y nonzero on one held row, whose private
    column then has b != 0 and forces nothing ("one held"), "pinned" with
    one entry added in the trap column (no solution), or drawn freely.
    """
    (rlo, rhi), (clo, chi) = PRESOLVE_SIZES[size]
    rows, body = draw(st.integers(rlo, rhi)), draw(st.integers(clo, chi))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = field.p or 4
    density = draw(st.sampled_from([0.5, 0.2, 0.05]))

    def units(count):
        return gen.integers(1, top, count)

    order = gen.permutation(rows)
    held = order[: draw(st.integers(0, rows))].tolist()
    chain = held[:1] + order[len(held) : len(held) + 2].tolist() if held else []
    cols = [gen.integers(0, top, (rows, body)) * (gen.random((rows, body)) < density)]
    for i in held:
        cols.append(np.zeros((rows, 1), dtype=np.int64))
        cols[-1][i] = units(1)
    for i, j in zip(chain, chain[1:]):
        cols.append(np.zeros((rows, 1), dtype=np.int64))
        cols[-1][[i, j], 0] = units(2)
    if len(held) >= 2:
        cols.append(np.zeros((rows, 1), dtype=np.int64))
        cols[-1][held[:2], 0] = units(2)
        trap = sum(c.shape[1] for c in cols) - 1
    a = np.hstack(cols)
    perm = gen.permutation(a.shape[1])
    a = Mat.of_array(field, a[:, perm])
    kinds = ["pinned", "free"] + (["one held"] if held else []) + (["trap"] if len(held) >= 2 else [])
    kind = draw(st.sampled_from(kinds))
    k = draw(st.integers(1 if kind in ("one held", "trap") else 0, 3))
    if kind == "free":
        return a, Mat.of_array(field, gen.integers(0, top, (k, a.cols))), kind
    y = gen.integers(0, top, (k, rows))
    y[:, held + chain] = 0
    if kind == "one held":
        y[0, held[draw(st.integers(0, len(held) - 1))]] = units(1)[0]
    b = (Mat.of_array(field, y) @ a).array().copy()
    if kind == "trap":
        b[0, perm.tolist().index(trap)] += 1
    return a, Mat.of_array(field, b), kind


@pytest.mark.parametrize("size", sorted(PRESOLVE_SIZES))
@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_presolved_solve_left_matches_the_direct_route(name, size, data):
    field = KERNEL_FIELDS[name]
    a, b, kind = data.draw(presolve_systems(field, size))
    with presolve_cut(math.inf):
        want = a.solve_left(b)
    ref = old_solve_left(a, b)
    assert (want is None) == (ref is None) and (want is None or np.array_equal(want.array(), ref))
    if kind != "free":
        assert (want is None) == (kind == "trap")
    for cut in PRESOLVE_CUTS:
        with presolve_cut(cut):
            got = a.solve_left(b)
        assert (got is None) == (want is None)
        if got is not None:
            same(got, want.array())
            assert got @ a == b


@pytest.mark.parametrize("size", sorted(PRESOLVE_SIZES))
@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_property_presolved_kernel_image_matches_the_direct_route(name, size, data):
    field = KERNEL_FIELDS[name]
    a, _, _ = data.draw(presolve_systems(field, size))
    width = data.draw(st.integers(0, 5))
    gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    m = Mat.hstack([a, Mat.of_array(field, gen.integers(0, field.p or 4, (a.rows, width)))])
    with presolve_cut(math.inf):
        want = m.kernel_image(a.cols)
    same(want, ref_kernel_image(m, a.cols))
    for cut in PRESOLVE_CUTS:
        with presolve_cut(cut):
            same(m.kernel_image(a.cols), want.array())


# rows 0..3 of PRESOLVE_A: column 0 is a singleton in row 0, which has
# other nonzeros; columns 1, 2 and 4 are singletons only in the second,
# third and fourth rounds; column 3 has its nonzeros in rows 0 and 1, so
# it is left empty once they are forced
PRESOLVE_A = [
    [1, 1, 0, 1, 0],
    [0, 1, 1, 1, 0],
    [0, 0, 1, 0, 1],
    [0, 0, 0, 0, 1],
]


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_presolve_fixed_cases(name):
    field = KERNEL_FIELDS[name]
    a = Mat.of_array(field, PRESOLVE_A)
    pinned = np.ones(5, dtype=bool)
    with presolve_cut(0):
        assert linalg._forced(a.array(), pinned).all()
    # the rounds stop once the rows left hold no more than the cut
    with presolve_cut(15):
        assert linalg._forced(a.array(), pinned).tolist() == [True, False, False, False]
    # b != 0 in column 0: it forces nothing, and no other column is a singleton
    with presolve_cut(0):
        assert not linalg._forced(a.array(), np.array([False, True, True, True, True])).any()

    def row(values):
        return Mat.of_array(field, [values])

    def solution(width, at):
        return row([int(j == at) for j in range(width)]).array()

    with presolve_cut(0):
        # a has independent rows: only y = 0 is in the kernel
        assert a.kernel_image(5).shape == (0, 0)
        assert Mat.hstack([a, Mat.identity(field, 4)]).kernel_image(5).shape == (0, 4)
        # b is a's row 0, nonzero in the singleton column 0
        same(a.solve_left(a.row(0)), solution(4, 0))
        # b != 0 only in column 3, whose nonzeros lie in forced rows: no solution
        assert a.solve_left(row([0, 0, 0, 1, 0])) is None
        # X is 0 at the forced rows and at row 3, which is zero
        c = Mat.of_array(field, [[1, 1, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
        same(c.solve_left(row([0, 0, 1])), solution(4, 2))
        same(c.solve_left(row([0, 1, 0])), solution(4, 1))
    # above the real cut: 64 blocks of a on the diagonal, 256 x 320
    big = Mat.of_array(field, np.kron(np.eye(64, dtype=np.int64), PRESOLVE_A))
    assert big.rows * big.cols > linalg._PRESOLVE_CUT
    assert big.solve_left(row([0, 0, 0, 1, 0] * 64)) is None
    same(big.solve_left(big.row(4)), solution(256, 4))
    assert big.kernel_image(320).shape == (0, 0)


@pytest.mark.parametrize(
    "field, avoided",
    [(F2, "_echelon"), (F3, "_echelon"), (GF(5), "_forward"), (GF(1048573), "_forward"), (QQ, "_forward")],
    ids=repr,
)
def test_row_questions_take_one_route_per_field(monkeypatch, field, avoided):
    # GF(2) and GF(3) never transpose; every other field never takes the forward pass
    m = Mat.of_array(field, np.arange(1, 13).reshape(4, 3) % (field.p or 7))

    def answers():
        return (m.kernel_basis(), m.solve_left(m.take_rows(range(2))), m.rank(),
                m.independent_rows(), m.projected_kernel(2), m.is_invertible())

    want = answers()
    monkeypatch.setattr(linalg, avoided, _raise)
    assert answers() == want


# The mixed-field pairs every field check must refuse, and equal fields
# built separately, which it must accept.
MIXED = [(F2, F3), (F3, QQ)]
MIXED_OPS = {
    "matmul": lambda a, b: a @ b,
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "kron": lambda a, b: a.kron(b),
    "kron_sum": lambda a, b: a.kron_sum(b, 1),
    "hstack": lambda a, b: Mat.hstack([a, b]),
    "vstack": lambda a, b: Mat.vstack([a, b]),
    "solve_left": lambda a, b: a.solve_left(b),
    "reduce": lambda a, b: Subspace.from_vectors(a.field, a.cols, a).reduce(b),
    "from_vectors": lambda a, b: Subspace.from_vectors(a.field, b.cols, b),
}


@pytest.mark.parametrize("fields", MIXED, ids=repr)
@pytest.mark.parametrize("op", sorted(MIXED_OPS))
def test_mixed_fields_raise(op, fields):
    a, b = (Mat.identity(f, 2) for f in fields)
    with pytest.raises(DimensionMismatch):
        MIXED_OPS[op](a, b)
    with pytest.raises(DimensionMismatch):
        MIXED_OPS[op](b, a)


@pytest.mark.parametrize("op", sorted(MIXED_OPS))
def test_equal_fields_built_apart_are_accepted(op):
    first, second = GF(3), GF(3)
    assert first is not second
    a = Mat.of_array(first, [[1, 2], [0, 1]])
    b = Mat.of_array(second, [[2, 0], [1, 1]])
    want = MIXED_OPS[op](a, Mat.of_array(first, b.array()))
    got = MIXED_OPS[op](a, b)
    assert got == want


def test_small_operations_build_one_mat_each(monkeypatch):
    # each wraps only its result: no Mat for an intermediate transpose,
    # stack, rref or product
    m = Mat.of_array(F3, [[1, 2, 0], [2, 1, 0], [0, 1, 1], [1, 0, 2]])
    v = Mat.of_array(F3, [[1, 1, 1], [0, 2, 1]])
    space = Subspace.from_vectors(F3, 3, m.take_rows(range(2)))
    built = []
    of = Mat._of

    def counting(field, a):
        built.append(a.shape)
        return of(field, a)

    monkeypatch.setattr(Mat, "_of", staticmethod(counting))
    calls = {
        "kernel_basis": lambda: m.kernel_basis(),
        "solve_left": lambda: m.solve_left(v),
        "from_vectors": lambda: Subspace.from_vectors(F3, 3, m),
        "reduce": lambda: space.reduce(v),
    }
    counts = {}
    for name, call in calls.items():
        built.clear()
        assert call() is not None
        counts[name] = len(built)
    assert counts == dict.fromkeys(calls, 1)


# -- float64 products over GF(p) ----------------------------------------
# Below 2^53 the float arm of _product is exact; at and above it the int64
# arm must run.  1048573 is the ladder's 20-bit prime, 3037000493 the
# largest prime a field accepts, where no product is ever in float.

PRODUCT_FIELDS = [F2, F3, GF(1048573), GF(3037000493)]


def int_product(a, b, p):
    """a @ b mod p summed in Python ints, stacks broadcast as matmul does."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


float_product = linalg._float_product


def count_float_products(monkeypatch):
    """The list that each later call of _product's float arm appends to."""
    calls = []
    monkeypatch.setattr(linalg, "_float_product", lambda *args: calls.append(args) or float_product(*args))
    return calls


def product_operands(p, layout, n, k, m, s, seed, fill):
    """Canonical int64 operands of one of the layouts _product's callers use."""
    shape_a, shape_b = {
        "plain": ((n, k), (k, m)),
        "left stack": ((s, n, k), (k, m)),
        "right stack": ((n, k), (s, k, m)),
        "both": ((s, n, k), (s, k, m)),
        "outer": ((s, 1, n, k), (1, s, k, m)),
    }[layout]
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(0, p, shape, dtype=np.int64) for shape in (shape_a, shape_b))
    if fill == "top":  # entries p - 1 and 0 only: the largest sums
        a, b = np.where(a % 2 == 1, p - 1, 0), np.where(b % 2 == 1, p - 1, 0)
    return a, b


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_property_products_match_python_ints(field, data):
    # from one multiply-add to several times the cut
    layout = data.draw(st.sampled_from(["plain", "left stack", "right stack", "both", "outer"]))
    n, k, m = (data.draw(st.integers(1, 24)) for _ in range(3))
    s = data.draw(st.integers(1, 3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    fill = data.draw(st.sampled_from(["uniform", "top"]))
    a, b = product_operands(field.p, layout, n, k, m, s, seed, fill)
    got = _product(field, a, b)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, int_product(a, b, field.p))


# (p, inner): every entry p - 1 makes each sum inner·(p-1)^2, just below
# 2^53 for the float cases and just above it for the int ones
EDGE_PRODUCTS = [
    (94906249, 1, True),
    (94906249, 2, False),
    (67108859, 2, True),
    (67108859, 3, False),
    (1048573, 8192, True),
    (1048573, 8193, False),
]


@pytest.mark.parametrize("p, inner, in_float", EDGE_PRODUCTS)
def test_products_at_the_float_bound_are_exact(monkeypatch, p, inner, in_float):
    assert (inner * (p - 1) ** 2 < 2**53) == in_float
    field = GF(p)
    rows = math.isqrt(linalg._FLOAT_PRODUCT_CUT // inner) + 1  # rows² · inner > the cut
    a = np.full((rows, inner), p - 1, dtype=np.int64)
    floats = count_float_products(monkeypatch)
    # (p-1)^2 = 1 mod p
    np.testing.assert_array_equal(_product(field, a, a.T), np.full((rows, rows), inner % p))
    assert bool(floats) == in_float
    if not in_float:
        # one term (p-2)^2 makes each sum odd and above 2^53, which float64
        # cannot hold: the float arm would be wrong where the int64 arm is not
        a[:, -1] = p - 2
        want = (inner - 1 + 4) % p
        np.testing.assert_array_equal(_product(field, a, a.T), np.full((rows, rows), want))
        assert (float_product(a, a.T, p) != want).all()


def product_dispatch_cases():
    cut = linalg._FLOAT_PRODUCT_CUT
    return [
        (F2, (2, 2), (2, 2)),
        (F2, (1, 1), (1, cut)),  # cut multiply-adds exactly
        (F2, (1, 1), (1, cut + 1)),
        (F3, (cut + 1, 1), (1, 1)),
        (F3, (64, 64), (64, 64)),
        (F3, (2, 1, 8, 8), (1, 2, 8, 33)),  # 4 · 8 · 8 · 33 through the broadcast stacks
        (F3, (4, 8, 8), (8, 16)),
        (F3, (8, 8), (5, 8, 16)),
        (GF(94906249), (65, 1), (1, 65)),
        (GF(94906249), (65, 2), (2, 65)),
        (GF(1048573), (1, 8192), (8192, 1)),
        (GF(1048573), (1, 8193), (8193, 1)),
        (GF(1048573), (3, 1, 8193), (8193, 2)),
        # inner·(p-1)^2 = 2^21 · 2^32 = 2^53 exactly: not below the bound
        (GF(65537), (1, 2**21), (2**21, 1)),
        (GF(65537), (1, 2**21 - 1), (2**21 - 1, 1)),
        (GF(3037000493), (1, 1), (1, 2 * cut)),
        (GF(3037000493), (40, 40), (40, 40)),
    ]


@pytest.mark.parametrize("field, shape_a, shape_b", product_dispatch_cases(), ids=repr)
def test_float_products_run_exactly_above_the_cut_and_below_the_bound(monkeypatch, field, shape_a, shape_b):
    p = field.p
    a = np.full(shape_a, p - 1, dtype=np.int64)
    b = np.full(shape_b, p - 1, dtype=np.int64)
    inner = shape_a[-1]
    work = int(np.prod(np.broadcast_shapes(shape_a[:-2], shape_b[:-2]))) * shape_a[-2] * inner * shape_b[-1]
    floats = count_float_products(monkeypatch)
    got = _product(field, a, b)
    assert len(floats) == (work > linalg._FLOAT_PRODUCT_CUT and inner * (p - 1) ** 2 < 2**53)
    # every sum is inner·(p-1)^2 = inner mod p
    assert got.shape == np.broadcast_shapes(shape_a[:-2], shape_b[:-2]) + (shape_a[-2], shape_b[-1])
    assert (got == inner % p).all()


def test_qq_products_never_take_the_float_arm(monkeypatch):
    monkeypatch.setattr(linalg, "_float_product", _raise)
    rng = random.Random(5)
    a, b = rand_mat(QQ, 20, 20, rng), rand_mat(QQ, 20, 20, rng)
    assert (a @ b).to_rows() == [
        [sum(x * y for x, y in zip(row, col)) for col in zip(*b.to_rows())] for row in a.to_rows()
    ]


@pytest.mark.parametrize("field", [F2, F3], ids=repr)
def test_small_ranks_over_gf2_and_gf3_eliminate_on_lists(monkeypatch, field):
    # at most _SLICED_RREF_THRESHOLD entries the list kernel is cheaper than
    # packing the rows for the forward pass; above it the forward pass runs
    rng = random.Random(field.p)
    small = rand_mat(field, 8, _SLICED_RREF_THRESHOLD // 8, rng)
    large = rand_mat(field, 8, _SLICED_RREF_THRESHOLD // 8 + 1, rng)
    want = small.transpose().rref()[1], large.transpose().rref()[1]
    monkeypatch.setattr(linalg, "_forward", _raise)
    assert small.rank() == len(want[0])
    monkeypatch.undo()
    monkeypatch.setattr(linalg, "_list_rref", _raise)
    assert large.rank() == len(want[1])


# Over GF(p) a float has a value only when it is an integer: 1.5 read as 1
# would be silently wrong, since 3/2 = 4 in GF(5).
GF5_FRACTIONAL = [
    ("from_rows", lambda: Mat.from_rows(GF(5), [[1.5, 2]]), "1.5"),
    ("of_array", lambda: Mat.of_array(GF(5), np.array([[2.7, 1.0]])), "2.7"),
    ("of_array-list", lambda: Mat.of_array(GF(5), [[1, 0.25]]), "0.25"),
    ("of_array-float32", lambda: Mat.of_array(GF(5), np.array([[0.5]], dtype=np.float32)), "0.5"),
    ("of_array-object", lambda: Mat.of_array(GF(5), np.array([[1, 1.5]], dtype=object)), "1.5"),
    ("of_array-inf", lambda: Mat.of_array(GF(5), np.array([[np.inf]])), "inf"),
    ("of_array-nan", lambda: Mat.of_array(GF(5), np.array([[np.nan]])), "nan"),
    ("scale", lambda: Mat.identity(GF(5), 2).scale(2.5), "2.5"),
    ("scale-numpy", lambda: Mat.identity(GF(5), 2).scale(np.float64(-0.5)), "-0.5"),
    ("coerce", lambda: GF(5).coerce(np.float32(0.75)), "0.75"),
]


@pytest.mark.parametrize("build, text", [c[1:] for c in GF5_FRACTIONAL], ids=[c[0] for c in GF5_FRACTIONAL])
def test_gfp_rejects_fractional_floats(build, text):
    with pytest.raises(ValueError, match=f"^{text} is not an integer: it has no value in GF\\(5\\)"):
        build()


def test_gfp_reads_integral_floats_bools_and_numpy_integers_as_ints():
    want = [[2, 1, 0, 2, 3, 4]]
    row = [7.0, True, False, np.int64(-3), np.float32(3.0), np.int8(-1)]
    assert Mat.from_rows(GF(5), [row]).to_rows() == want
    assert Mat.of_array(GF(5), [row]).to_rows() == want
    assert Mat.of_array(GF(5), np.array([row], dtype=object)).to_rows() == want
    assert Mat.of_array(GF(5), np.array([[7.0, 1.0, 0.0, -3.0, 3.0, -1.0]])).to_rows() == want
    assert Mat.of_array(GF(5), np.array([[True, False]])).to_rows() == [[1, 0]]
    assert Mat.identity(GF(5), 1).scale(7.0).to_rows() == [[2]]
    # integral floats beyond int64 keep their exact value mod p
    big = [[1e20, -1e300]]
    assert Mat.of_array(GF(7), big).to_rows() == [[int(x) % 7 for x in big[0]]]
    assert Mat.from_rows(GF(7), big).to_rows() == [[int(x) % 7 for x in big[0]]]


def test_gfp_object_arrays_are_read_entry_by_entry():
    # a Fraction is its value in GF(p), and a Python int beyond int64 is reduced
    a = np.array([[Fraction(1, 2), 10**30 + 1]], dtype=object)
    assert Mat.of_array(GF(5), a).to_rows() == [[3, 1]]


def test_gfp_integer_arrays_are_only_reduced(monkeypatch):
    monkeypatch.setattr(np, "frompyfunc", _raise)
    a = np.array([[7, -1, 12]], dtype=np.int64)
    assert Mat.of_array(GF(5), a).to_rows() == [[2, 4, 2]]
    assert Mat.of_array(GF(5), a.astype(np.int8)).to_rows() == [[2, 4, 2]]


def test_qq_reads_floats_exactly():
    assert Mat.from_rows(QQ, [[1.5, 0.25]]).to_rows() == [[Fraction(3, 2), Fraction(1, 4)]]
    assert Mat.of_array(QQ, np.array([[2.5]])).to_rows() == [[Fraction(5, 2)]]
    assert Mat.identity(QQ, 1).scale(0.5).to_rows() == [[Fraction(1, 2)]]
