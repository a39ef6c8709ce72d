"""Exact dense linear algebra over prime fields and the rationals.

Everything downstream works with row vectors: maps act on the right
(v -> v @ M), kernels are left kernels, images are row spaces.  Every
matrix is one read-only numpy array: int64 reduced mod p over a prime
field, dtype=object holding only Fraction over the rationals.  No
floating point anywhere.  A prime field needs (p-1)^2 < 2^63, so that
the product of two reduced entries fits in int64.

Mat.rref picks one of three Gauss-Jordan kernels from the field and the
number of entries.  Every QQ matrix, and every GF(p) matrix of at most
_LIST_RREF_THRESHOLD entries, goes to _list_rref, which works on Python
lists and touches only nonzero entries.  Larger GF(2) matrices of at least
_GF2_PACK_THRESHOLD entries go to the bitpacked _gf2_rref, and the other
GF(p) matrices to _rref, which updates whole int64 blocks per pivot.  The
rref is unique, so the choice changes only the cost.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "FieldSpec",
    "QQ",
    "GF",
    "Mat",
    "Subspace",
    "DimensionMismatch",
]

_INT64_BOUND = 2**63


class DimensionMismatch(ValueError):
    """Raised when matrix or subspace shapes are incompatible."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class FieldSpec:
    """An exact base field: the rationals or a prime field F_p."""

    __slots__ = ("kind", "characteristic", "dtype")

    def __init__(self, kind: str, characteristic: int):
        if kind not in ("rationals", "prime"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "rationals":
            if characteristic != 0:
                raise ValueError("rationals have characteristic 0")
        elif (characteristic - 1) ** 2 >= _INT64_BOUND:
            raise ValueError(
                f"characteristic {characteristic} is too large: need (p-1)^2 < 2^63"
            )
        elif not _is_prime(characteristic):
            raise ValueError(f"characteristic {characteristic} is not prime")
        self.kind = kind
        self.characteristic = characteristic
        self.dtype = np.int64 if kind == "prime" else object

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime"

    @property
    def p(self) -> int:
        return self.characteristic

    def coerce(self, x):
        """Bring a scalar into canonical form for this field."""
        if self.kind == "prime":
            if isinstance(x, Fraction):
                num, den = x.numerator, x.denominator
                return (num * pow(den % self.p, self.p - 2, self.p)) % self.p
            return int(x) % self.p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def canonical(self, a) -> np.ndarray:
        """A new array of canonical scalars holding the values of a."""
        if self.kind == "prime":
            return np.asarray(a, dtype=np.int64) % self.p
        return np.frompyfunc(self.coerce, 1, 1)(np.asarray(a))

    def reduce(self, a: np.ndarray) -> np.ndarray:
        """Canonical form of an array computed from canonical arrays."""
        return a % self.characteristic if self.characteristic else a

    def zero(self):
        return 0 if self.kind == "prime" else Fraction(0)

    def one(self):
        return 1 if self.kind == "prime" else Fraction(1)

    def neg(self, x):
        return (-x) % self.p if self.kind == "prime" else -x

    def inv(self, x):
        if self.kind == "prime":
            x = x % self.p
            if x == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(x, self.p - 2, self.p)
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(x)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.characteristic == other.characteristic
        )

    def __hash__(self):
        return hash((self.kind, self.characteristic))

    def __repr__(self):
        if self.kind == "rationals":
            return "QQ"
        return f"GF({self.characteristic})"


QQ = FieldSpec("rationals", 0)


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)


def _zeros(field: FieldSpec, rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), field.zero(), dtype=field.dtype)


def _product(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field, for canonical arrays."""
    if field.dtype is object:
        # Fraction arithmetic dominates: add outer products over the
        # nonzero entries only (a plain object @ multiplies every zero).
        out = _zeros(field, a.shape[0], b.shape[1])
        for k in range(a.shape[1]):
            rows = np.flatnonzero(a[:, k])
            cols = np.flatnonzero(b[k])
            if rows.size and cols.size:
                out[np.ix_(rows, cols)] += np.multiply.outer(a[rows, k], b[k, cols])
        return out
    # Delayed reduction: a chunk of `step` products of reduced entries
    # cannot overflow int64.
    p = field.p
    step = (_INT64_BOUND - 1) // (p - 1) ** 2
    if a.shape[1] <= step:
        return a @ b % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, a.shape[1], step):
        out = (out + a[:, s : s + step] @ b[s : s + step] % p) % p
    return out


_GF2_PACK_THRESHOLD = 8192


def _gf2_rref(a: np.ndarray):
    """Bitpacked Gauss-Jordan over F_2 (uint64 words, little-endian bits)."""
    rows, ncols = a.shape
    words = (ncols + 63) // 64
    packed = np.zeros((rows, words * 8), dtype=np.uint8)
    pb = np.packbits((a & 1).astype(np.uint8), axis=1, bitorder="little")
    packed[:, : pb.shape[1]] = pb
    p = packed.view(np.uint64)
    pivots = []
    r = 0
    one = np.uint64(1)
    for c in range(ncols):
        w, b = divmod(c, 64)
        b = np.uint64(b)
        col = (p[r:, w] >> b) & one
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            p[[r, i]] = p[[i, r]]
        mask = ((p[:, w] >> b) & one).astype(bool)
        mask[r] = False
        if mask.any():
            p[mask] ^= p[r]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    bits = np.unpackbits(p.view(np.uint8), axis=1, bitorder="little")[:, :ncols]
    return bits.astype(np.int64), pivots


def _rref(a: np.ndarray, field: FieldSpec):
    """Gauss-Jordan elimination of a copy of a canonical array."""
    a = a.copy()
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        # rows r.. are zero left of column c, so only columns c.. change
        if i != r:
            a[[r, i], c:] = a[[i, r], c:]
        pivot_row = a[r, c:]
        lead = pivot_row.item(0)
        if lead != 1:
            pivot_row[:] = field.reduce(pivot_row * field.inv(lead))
        col = a[:, c]
        mask = col != 0
        mask[r] = False
        others = mask.nonzero()[0]
        if others.size:
            a[others, c:] = field.reduce(a[others, c:] - np.multiply.outer(col[others], pivot_row))
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


# The measured crossover: over the GF(p) rref inputs of one pass of each
# benchmark workload, total elimination time is least with the switch
# near here.  The list routine's cost grows with the nonzero entries it
# touches, so it loses 5x on dense systems of 50-100k entries.
_LIST_RREF_THRESHOLD = 4096


def _list_rref(a: np.ndarray, field: FieldSpec):
    """Gauss-Jordan on Python lists of a canonical array's entries.

    Each pivot touches only the rows with a nonzero in its column, and in
    those rows only the columns where the pivot row is nonzero.
    """
    rows = a.tolist()
    nrows, ncols = a.shape
    p = field.characteristic
    pivots = []
    r = 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        prow = rows[i]
        rows[i], rows[r] = rows[r], prow
        lead = prow[c]
        if lead != 1:
            inv = field.inv(lead)
            prow[c:] = [x * inv % p for x in prow[c:]] if p else [x * inv for x in prow[c:]]
        # rows r.. are zero left of column c, so the pivot row is too
        support = [(j, x) for j, x in enumerate(prow[c:], c) if x]
        for row in rows:
            f = row[c]
            if not f or row is prow:
                continue
            if p:
                for j, x in support:
                    row[j] = (row[j] - f * x) % p
            else:
                for j, x in support:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return np.array(rows, dtype=field.dtype), pivots


class Mat:
    """An immutable exact matrix; rows x cols over a FieldSpec."""

    __slots__ = ("field", "rows", "cols", "_a")

    def __init__(self, field: FieldSpec, rows: int, cols: int, _a=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self._a = _a

    # -- construction -------------------------------------------------

    @staticmethod
    def _of(field: FieldSpec, a: np.ndarray) -> "Mat":
        """Wrap a canonical array that nothing else writes to."""
        a.setflags(write=False)
        return Mat(field, a.shape[0], a.shape[1], _a=a)

    @staticmethod
    def from_rows(field: FieldSpec, data) -> "Mat":
        data = list(data)
        rows = len(data)
        cols = len(data[0]) if rows else 0
        for r in data:
            if len(r) != cols:
                raise DimensionMismatch("ragged rows")
        a = np.array([[field.coerce(x) for x in r] for r in data], dtype=field.dtype)
        return Mat._of(field, a.reshape(rows, cols))

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Mat":
        return Mat._of(field, _zeros(field, rows, cols))

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        a = _zeros(field, n, n)
        np.fill_diagonal(a, field.one())
        return Mat._of(field, a)

    @staticmethod
    def of_array(field: FieldSpec, a) -> "Mat":
        """Wrap a copy of an array of integers (or, over QQ, rationals)."""
        return Mat._of(field, field.canonical(a))

    # -- accessors ----------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        return self._a.item(i, j)

    def row(self, i: int) -> "Mat":
        return Mat._of(self.field, self._a[i : i + 1])

    def to_rows(self):
        return self._a.tolist()

    def array(self) -> np.ndarray:
        """The read-only backing array: int64 mod p, or Fraction objects."""
        return self._a

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries in row-major order, as a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise DimensionMismatch(f"reshape {self.shape} to {(rows, cols)}")
        return Mat._of(self.field, self._a.reshape(rows, cols))

    def is_zero(self) -> bool:
        return not self._a.any()

    def key(self):
        """Hashable canonical form (for dedup dictionaries)."""
        if self.field.dtype is object:
            return (self.rows, self.cols, tuple(self._a.flat))
        return (self.rows, self.cols, self._a.tobytes())

    def __eq__(self, other):
        if not isinstance(other, Mat) or self.field != other.field:
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols}, {self.to_rows()})"

    # -- arithmetic ---------------------------------------------------

    def _check_same(self, other: "Mat"):
        if self.field != other.field:
            raise DimensionMismatch("field mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        return Mat._of(self.field, self.field.reduce(self._a + other._a))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} vs {other.shape}")
        return Mat._of(self.field, self.field.reduce(self._a - other._a))

    def __neg__(self) -> "Mat":
        return Mat._of(self.field, self.field.reduce(-self._a))

    def scale(self, c) -> "Mat":
        return Mat._of(self.field, self.field.reduce(self._a * self.field.coerce(c)))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        return Mat._of(self.field, _product(self.field, self._a, other._a))

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self._a.T)

    def kron(self, other: "Mat") -> "Mat":
        self._check_same(other)
        a, b = self._a, other._a
        # one broadcast product, entry ((i, k), (j, l)) = a[i, j] * b[k, l]
        out = (a[:, None, :, None] * b[None, :, None, :]).reshape(
            self.rows * other.rows, self.cols * other.cols
        )
        return Mat._of(self.field, self.field.reduce(out))

    def kron_sum(self, other: "Mat", n: int) -> "Mat":
        """The sum over l of A_l kron B_l, as one product over l.

        self stacks the n blocks A_0, ..., A_{n-1} vertically, and other
        the n blocks B_0, ..., B_{n-1}.
        """
        self._check_same(other)
        if n < 1 or self.rows % n or other.rows % n:
            raise DimensionMismatch(f"kron_sum of {self.shape} and {other.shape} in {n} blocks")
        (p, q), (r, s) = (self.rows // n, self.cols), (other.rows // n, other.cols)
        a, b = self._a.reshape(n, p * q), other._a.reshape(n, r * s)
        # rows (i, j) of a.T times columns (k, l) of b, regrouped as ((i, k), (j, l))
        out = _product(self.field, a.T, b).reshape(p, q, r, s).transpose(0, 2, 1, 3)
        return Mat._of(self.field, out.reshape(p * r, q * s))

    @staticmethod
    def vstack(mats) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("vstack of nothing")
        field = mats[0].field
        cols = mats[0].cols
        for m in mats:
            if m.field != field or m.cols != cols:
                raise DimensionMismatch("vstack shape mismatch")
        return Mat._of(field, np.vstack([m._a for m in mats]))

    @staticmethod
    def hstack(mats) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        field = mats[0].field
        rows = mats[0].rows
        for m in mats:
            if m.field != field or m.rows != rows:
                raise DimensionMismatch("hstack shape mismatch")
        return Mat._of(field, np.hstack([m._a for m in mats]))

    def take_rows(self, idx) -> "Mat":
        return Mat._of(self.field, self._a[list(idx)])

    def take_columns(self, idx) -> "Mat":
        return Mat._of(self.field, self._a[:, list(idx)])

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        if self.rows == 0 or self.cols == 0:
            return self, []
        size, p = self._a.size, self.field.p
        if p == 0 or size <= _LIST_RREF_THRESHOLD:
            a, piv = _list_rref(self._a, self.field)
        elif p == 2 and size >= _GF2_PACK_THRESHOLD:
            a, piv = _gf2_rref(self._a)
        else:
            a, piv = _rref(self._a, self.field)
        return Mat._of(self.field, a), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Mat":
        """Basis (rows, in rref) of the left kernel {v : v @ self = 0}."""
        return self.kernel_basis().rref()[0]

    def kernel_basis(self) -> "Mat":
        """A basis (rows, not in rref) of the left kernel, from one elimination.

        Row f is the solution that is 1 at the free coordinate f and 0 at
        the other free coordinates.
        """
        field, n = self.field, self.rows
        red, piv = self.transpose().rref()
        pivset = set(piv)
        free = [j for j in range(n) if j not in pivset]
        out = _zeros(field, len(free), n)
        out[np.arange(len(free)), free] = field.one()
        out[:, piv] = field.reduce(-red._a[: len(piv), free].T)
        return Mat._of(field, out)

    def solve_left(self, b: "Mat"):
        """Solve X @ self = b; returns one X (free vars 0) or None."""
        self._check_same(b)
        if b.cols != self.cols:
            raise DimensionMismatch("solve_left column mismatch")
        red, piv = Mat.hstack([self.transpose(), b.transpose()]).rref()
        if piv and piv[-1] >= self.rows:
            return None
        xt = _zeros(self.field, self.rows, b.rows)
        xt[piv] = red._a[: len(piv), self.rows :]
        return Mat._of(self.field, xt.T)

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of non-square matrix")
        x = self.solve_left(Mat.identity(self.field, self.rows))
        if x is None:
            raise ValueError("matrix is singular")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace of non-square matrix")
        return self.field.coerce(self._a.trace())

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise DimensionMismatch("power of non-square matrix")
        result = Mat.identity(self.field, self.rows)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result


class Subspace:
    """A subspace of k^n held as a reduced-echelon row basis (canonical)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, basis: Mat, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = basis
        self.pivots = list(pivots)

    @staticmethod
    def from_vectors(field: FieldSpec, ambient: int, vectors) -> "Subspace":
        if isinstance(vectors, Mat):
            m = vectors
        else:
            vectors = list(vectors)
            if not vectors:
                m = Mat.zeros(field, 0, ambient)
            else:
                m = Mat.from_rows(field, vectors)
        if m.cols != ambient:
            raise DimensionMismatch(f"ambient {ambient} vs vector length {m.cols}")
        red, piv = m.rref()
        return Subspace(field, ambient, Mat._of(field, red._a[: len(piv)]), piv)

    @staticmethod
    def zero(field: FieldSpec, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Mat.zeros(field, 0, ambient), [])

    @staticmethod
    def full(field: FieldSpec, ambient: int) -> "Subspace":
        return Subspace(field, ambient, Mat.identity(field, ambient), list(range(ambient)))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis.key()))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of k^{self.ambient})"

    def reduce(self, v: Mat) -> Mat:
        """Canonical coset representatives of the rows of v modulo this subspace."""
        if v.cols != self.ambient:
            raise DimensionMismatch("vector length mismatch")
        # the basis is in rref, so each row's pivot entries are its coordinates
        return v - v.take_columns(self.pivots) @ self.basis

    def contains_vector(self, v: Mat) -> bool:
        return self.reduce(v).is_zero()

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return self.contains_vector(other.basis)

    def coordinates_of(self, v: Mat):
        """Express v over the basis rows; returns 1 x dim Mat or None."""
        cand = v.take_columns(self.pivots)
        return cand if cand @ self.basis == v else None

    def sum_with(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.field != self.field:
            raise DimensionMismatch("subspace sum mismatch")
        return Subspace.from_vectors(
            self.field, self.ambient, Mat.vstack([self.basis, other.basis])
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient or other.field != self.field:
            raise DimensionMismatch("subspace intersection mismatch")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        stacked = Mat.vstack([self.basis, other.basis])
        ker = stacked.kernel_basis()
        if ker.rows == 0:
            return Subspace.zero(self.field, self.ambient)
        first = ker.take_columns(range(self.dim))
        return Subspace.from_vectors(self.field, self.ambient, first @ self.basis)

    def nonpivot_columns(self):
        pivset = set(self.pivots)
        return [j for j in range(self.ambient) if j not in pivset]


def quotient_basis(inner: Subspace, outer: Subspace):
    """Rows of outer's basis completing a basis of inner to one of outer.

    Requires inner <= outer; raises DimensionMismatch otherwise.
    """
    if inner.ambient != outer.ambient:
        raise DimensionMismatch("ambient mismatch")
    if not outer.contains(inner):
        raise DimensionMismatch("quotient_basis requires inner <= outer")
    current = inner
    reps = []
    for i in range(outer.dim):
        v = outer.basis.row(i)
        if not current.contains_vector(v):
            reps.append(v)
            current = current.sum_with(Subspace.from_vectors(current.field, current.ambient, v))
    return reps
