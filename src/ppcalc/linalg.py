"""Exact dense linear algebra over prime fields and the rationals.

Everything downstream works with row vectors: maps act on the right
(v -> v @ M), kernels are left kernels, images are row spaces.  Every
matrix is one read-only numpy array: int64 reduced mod p over a prime
field, dtype=object holding only Fraction over the rationals.  A prime
field needs (p-1)^2 < 2^63, so that the product of two reduced entries
fits in int64.  Floating point enters in one place, and exactly: _product
over GF(p) multiplies large operands as float64 arrays when
inner·(p-1)^2 < 2^53.  Every term and every partial sum of such a product
is then an integer below 2^53, and float64 holds every integer below 2^53
exactly, so the sums are exact whatever order BLAS adds them in and
whether or not it fuses multiply and add; the result is converted back to
int64 before its reduction mod p.

A Mat wraps its array once: the operations work on the arrays of their
operands and wrap only their result, so a small operation costs one
numpy call or a few, not a Mat per intermediate step.

_echelon picks one of four Gauss-Jordan kernels from the field and the
number of entries; Mat.rref and Subspace.from_vectors call it on arrays.
_qq_rref takes every QQ matrix: it eliminates fraction-free on primitive
integer rows and forms Fractions only for the nonzero entries of the
result.  _list_rref works on Python lists and touches only nonzero
entries; it takes every GF(2) and GF(3) matrix of at most
_SLICED_RREF_THRESHOLD (128) entries, and every other GF(p) matrix of at
most _LIST_RREF_THRESHOLD (1024) entries.  _sliced_rref takes the larger
GF(2) and GF(3) matrices: each row is Python ints with one bit per
column, so a row operation is a few bitwise operations on whole rows.
_rref takes the larger GF(p) matrices for p > 3 and updates whole int64
blocks per pivot.  The two cuts are measured crossovers, not options,
and the rref is unique, so the choice changes only the cost.

The questions about the rows of a matrix (Mat.kernel_basis, solve_left,
rank, independent_rows and projected_kernel) need no reduced form.  Over
GF(2) and GF(3), at every size (rank above _SLICED_RREF_THRESHOLD
entries; below it _list_rref is cheaper), _forward answers them in one
pass over the rows of [A | I], bit-sliced (_sliced_rows): each row is
reduced against the pivot rows found so far, and a row that vanishes in
its A part gives its tracking bits as a kernel vector.  There is no
transpose and no back-substitution.  Over QQ and GF(p), p > 3, they read
the answer off the rref that _echelon gives of the transpose (rank, of A
itself).  _forward_field makes that choice, and both routes return the
same arrays: the kernel row of each dependent row f is the one vector of
the kernel that is 1 at f and 0 at every other dependent row, and a
solution is the one that is 0 at every dependent row.  Mat.kernel_image,
the rref of {y B : y A = 0} for [A | B], is one such pass over GF(2) and
GF(3), with no tracking bits: a row whose A part vanishes is left with y
B, y its kernel vector.  _echelon of those rows gives the rref.  Over
GF(3) above _ONE_PASS_GF3_CUT entries it takes kernel_basis, a product
and an rref instead, as over the other fields.

Mat.kernel_image and Mat.solve_left presolve a system whose block A (the
first k columns for kernel_image, the matrix for solve_left) has more
than _PRESOLVE_CUT (4096) entries.  A column of A with one nonzero, in
row i, where the right-hand side is 0, forces y_i = 0 in every solution
of y A = r; _forced finds such rows, in rounds, and they are dropped
before the elimination (their columns, zero on the rows left, stay), and
solve_left puts 0 at them in X.  The answers are the
same bit for bit: kernel_image's is a canonical rref, and a forced row is
independent of all the other rows, so the rows that depend on the rows
before them, where solve_left's X is 0, do not change.  The cut is
measured inside whole passes: below it the scan costs more than it saves.

Over QQ every Fraction operation costs far more than the numpy call
around it, so the QQ arms of the private kernels (_product, _sum, _scale,
_neg, _kron) compute only the entries where an operand is nonzero.
_product also keeps Fractions out of its sums: it reads each row of a and
each column of b as integers over one common denominator, adds the
products of nonzero pairs in Python ints, and forms one Fraction per
nonzero entry of the result.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import gcd, lcm, prod

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
                if den % self.p == 0:
                    raise ZeroDivisionError(f"{x} has no value mod {self.p}")
                return (num * pow(den, self.p - 2, self.p)) % self.p
            if isinstance(x, (float, np.floating)) and not float(x).is_integer():
                raise ValueError(f"{float(x)!r} is not an integer: it has no value in {self}")
            return int(x) % self.p
        if isinstance(x, Fraction):
            return x
        return Fraction(x)

    def canonical(self, a) -> np.ndarray:
        """A new array of canonical scalars holding the values of a.

        Over GF(p) an integer array is only reduced; any other array is
        read entry by entry through coerce, so a fractional float raises.
        """
        if self.kind == "prime":
            a = np.asarray(a)
            if a.dtype.kind not in "biu":
                a = np.frompyfunc(self.coerce, 1, 1)(a)
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
    if field.dtype is object:
        return np.full((rows, cols), Fraction(0), dtype=object)
    return np.zeros((rows, cols), dtype=np.int64)


def _over_common_denominators(lines: list, entries: list, n: int):
    """Nonzero Fractions as integers over one denominator per line.

    entries[t] lies in line lines[t] of n.  Returns the lcm of each line's
    denominators and each entry times its line's lcm, an int.
    """
    dens = [1] * n
    pairs = [x.as_integer_ratio() for x in entries]
    for i, (_, d) in zip(lines, pairs):
        if d != 1:
            dens[i] = lcm(dens[i], d)
    return dens, [num * (dens[i] // d) for i, (num, d) in zip(lines, pairs)]


# Over GF(p), a product of more multiply-adds than this goes through float64
# BLAS when that is exact (see _product); a measured crossover, below which
# converting to float64 and back costs more than BLAS saves.
_FLOAT_PRODUCT_CUT = 4096
_FLOAT_EXACT_BOUND = 2**53


def _float_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p by a float64 product, for canonical int64 arrays with inner·(p-1)^2 < 2^53."""
    out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    out %= p
    return out


def _product(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the field, for canonical arrays (over GF(p), also stacks of them).

    Over QQ, row i of a is integers over one denominator da[i] and column j
    of b integers over db[j].  Entry (i, j) is summed in Python ints over
    the k where a[i, k] and b[k, j] are both nonzero, and each nonzero sum
    becomes one Fraction(sum, da[i] * db[j]); no term pays a Fraction gcd.

    Over GF(p), a product of more than _FLOAT_PRODUCT_CUT multiply-adds
    with inner·(p-1)^2 < 2^53 is one float64 (BLAS) product: every term and
    every partial sum is then an integer below 2^53, which float64 holds
    exactly, so the result is exact whatever order the sums take.  Every
    other product is an int64 product with delayed reduction.
    """
    if field.dtype is object:
        (n, inner), m = a.shape, b.shape[1]
        out = _zeros(field, n, m)
        ia, ka = a.nonzero()
        kb, jb = b.nonzero()
        ia, ka, kb, jb = ia.tolist(), ka.tolist(), kb.tolist(), jb.tolist()
        da, xa = _over_common_denominators(ia, a[ia, ka].tolist(), n)
        db, xb = _over_common_denominators(jb, b[kb, jb].tolist(), m)
        arows = [[] for _ in range(n)]
        for i, k, x in zip(ia, ka, xa):
            arows[i].append((k, x))
        brows = [[] for _ in range(inner)]
        for k, j, y in zip(kb, jb, xb):
            brows[k].append((j, y))
        flat = out.reshape(-1)
        for i, arow in enumerate(arows):
            if not arow:
                continue
            acc = [0] * m
            for k, x in arow:
                for j, y in brows[k]:
                    acc[j] += x * y
            d, base = da[i], i * m
            for j, s in enumerate(acc):
                if s:
                    flat[base + j] = Fraction(s, d * db[j])
        return out
    p = field.p
    inner = a.shape[-1]
    top = inner * (p - 1) ** 2  # the largest sum of products of canonical entries
    if top < _FLOAT_EXACT_BOUND:
        work = a.shape[-2] * inner * b.shape[-1]  # multiply-adds, stacks broadcast as matmul does
        if a.ndim + b.ndim > 4:
            work *= prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        if work > _FLOAT_PRODUCT_CUT:
            return _float_product(a, b, p)
    if top < _INT64_BOUND:
        return a @ b % p
    # Delayed reduction: a chunk of `step` products of reduced entries
    # cannot overflow int64.
    step = (_INT64_BOUND - 1) // (p - 1) ** 2
    out = 0
    for s in range(0, inner, step):
        out = (out + a[..., s : s + step] @ b[..., s : s + step, :] % p) % p
    return out


def _sum(field: FieldSpec, a: np.ndarray, b: np.ndarray, sign: int) -> np.ndarray:
    """a + b (sign 1) or a - b (sign -1) over the field, for canonical arrays of one shape."""
    if field.dtype is not object:
        return field.reduce(a + b if sign == 1 else a - b)
    # copy a, and pay a Fraction sum only where both are nonzero
    out = a.copy()
    in_b = b.astype(bool)
    both = in_b & a.astype(bool)
    only_b = in_b & ~both
    out[both] = a[both] + b[both] if sign == 1 else a[both] - b[both]
    out[only_b] = b[only_b] if sign == 1 else -b[only_b]
    return out


def _scale(field: FieldSpec, a: np.ndarray, c) -> np.ndarray:
    """c * a over the field, for a canonical array and a canonical scalar c."""
    if field.dtype is not object:
        return field.reduce(a * c)
    out = a.copy()
    nz = a.astype(bool)
    out[nz] = a[nz] * c
    return out


def _neg(field: FieldSpec, a: np.ndarray) -> np.ndarray:
    """-a over the field, for a canonical array."""
    return field.reduce(-a) if field.dtype is not object else _scale(field, a, Fraction(-1))


def _kron(field: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The Kronecker product of canonical arrays: entry ((i, k), (j, l)) is a[i, j] * b[k, l]."""
    (p, q), (r, s) = a.shape, b.shape
    if field.dtype is not object:
        return field.reduce((a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s))
    # one Fraction product per pair of nonzero entries
    out = _zeros(field, p * r, q * s)
    ia, ja = a.nonzero()
    ib, jb = b.nonzero()
    out.reshape(p, r, q, s)[ia[:, None], ib, ja[:, None], jb] = np.multiply.outer(a[ia, ja], b[ib, jb])
    return out


def _pack(a: np.ndarray, p: int) -> list:
    """The rows of a canonical array over F_2 or F_3 as ints, bit j for column j.

    Over F_2 each row gives one int, with the bits of its entries equal to
    1.  Over F_3 the rows give ints u, with the bits of the nonzero
    entries, followed by ints s, with the bits of the entries equal to 2.
    """
    nrows, ncols = a.shape
    width = (ncols + 63) // 64 * 8  # bytes per row, in whole 64-bit words
    bits = np.zeros(((p - 1) * nrows, width * 8), dtype=bool)
    if p == 2:
        np.equal(a, 1, out=bits[:, :ncols])
    else:
        np.not_equal(a, 0, out=bits[:nrows, :ncols])
        np.equal(a, 2, out=bits[nrows:, :ncols])
    packed = np.packbits(bits, bitorder="little")
    if width == 8:
        return packed.view("<u8").tolist()
    return list(map(int.from_bytes, packed.view(f"V{width}").tolist(), repeat("little")))


def _unpack(ints: list, ncols: int) -> np.ndarray:
    """The inverse of _pack's bits: a len(ints) x ncols array of 0 and 1 (uint8)."""
    width = (ncols + 63) // 64 * 8
    if width == 8:
        packed = np.array(ints, dtype="<u8").view(np.uint8)
    else:
        buf = b"".join(map(int.to_bytes, ints, repeat(width), repeat("little")))
        packed = np.frombuffer(buf, dtype=np.uint8)
    bits = np.unpackbits(packed, bitorder="little")
    return bits.reshape(len(ints), width * 8)[:, :ncols]


# The measured crossover between the list routine and the sliced one over
# GF(2) and GF(3), for Mat.rref and Subspace.from_vectors only: kernels,
# solves and ranks over these fields take _forward at every size.  Below
# the cut the sliced kernel's fixed cost of packing and unpacking
# outweighs its gain.  Replayed alone, the rref inputs of one acceptance
# core pass cost least with the cut anywhere from 48 to 128 entries; timed
# inside whole core passes, where other work runs between eliminations,
# 128 beat 64 and 256, and hom_space's systems of 65 to 128 entries were
# no faster sliced.
_SLICED_RREF_THRESHOLD = 128


def _add3(u: int, s: int, pu: int, ps: int):
    """(u, s) + (pu, ps) over F_3, sliced: equal nonzero entries double, 1 + 2 = 0."""
    t = s ^ ps
    both = u & pu
    same = both & ~t
    return (u ^ pu) | same, (t & ~both) | (same & ~s)


def _forward_field(field: FieldSpec) -> bool:
    """Whether the field's row questions go to _forward rather than to _echelon of the transpose."""
    return field.p in (2, 3)


# Bit j, for the positions 0..62 that a nonnegative int64 holds.
_SHIFTS = np.arange(63, dtype=np.int64)
_BITS = 1 << _SHIFTS


def _sliced_rows(a: np.ndarray, p: int, tracked: int = 0) -> list:
    """The rows of a canonical array over F_2 or F_3, bit-sliced (Boothby and Bradshaw).

    Bit j of a row's ints stands for column j.  Over F_2 a row is one int
    and a row operation one XOR.  Over F_3 a row is a pair (u, s): u marks
    the nonzero entries and s the entries equal to 2, so s <= u, and
    negation is s ^= u.  Row i < tracked also carries the tracking bit
    1 << (cols + i).  When those bits fit in an int64, each plane of bits
    is one product of a with the powers of 2.
    """
    nrows, ncols = a.shape
    width = ncols + tracked
    if width <= 63:
        bits = _BITS[:ncols]
        if p == 2:
            x = a.dot(bits)
            x[:tracked] += _BITS[ncols:width]
            return x.tolist()
        s = (a >> 1).dot(bits)
        u = a.dot(bits) - s  # an entry 2 is u + s = 1 + 1
        u[:tracked] += _BITS[ncols:width]
        return list(zip(u.tolist(), s.tolist()))
    ints = _pack(a, p) if ncols else [0] * ((p - 1) * nrows)
    bits = [1 << k for k in range(ncols, width)]
    if p == 2:
        return [r | b for r, b in zip(ints, bits)] + ints[tracked:]
    us, ss = ints[:nrows], ints[nrows:]
    return list(zip([u | b for u, b in zip(us, bits)] + us[tracked:], ss))


def _unsliced(rows: list, p: int, ncols: int) -> np.ndarray:
    """The inverse of _sliced_rows without tracking bits: a len(rows) x ncols int64 array."""
    planes = rows if p == 2 else [u for u, _ in rows] + [s for _, s in rows]
    if ncols <= 63:
        bits = np.array(planes, dtype=np.int64)[:, None] >> _SHIFTS[:ncols] & 1
    else:
        bits = _unpack(planes, ncols).astype(np.int64)
    return bits if p == 2 else bits[: len(rows)] + bits[len(rows) :]


def _forward(p: int, rows, cols: int, piv: dict, residues: bool):
    """One forward pass over sliced rows (_sliced_rows), in order.

    piv maps a lead bit below cols to a pivot row whose lowest bit below
    cols is that lead, with entry 1 there.  Each row is reduced against
    the pivot rows: the lowest lead it holds is cleared until none is
    left, and each clearing changes only bits above that lead.  A row
    left with bits below cols joins piv under its lowest one, normalised.
    The bits from cols up of a row left without them are its residue.
    Returns the positions of the rows that joined piv and, if residues,
    the residues of the others, in order; if not, the pass stops once
    the rank reaches cols, as no later row can join.
    """
    amask = (1 << cols) - 1
    mask = 0  # the lead bits
    for lead in piv:
        mask |= lead
    taken, left = [], []
    if p == 2:
        for i, r in enumerate(rows):
            hits = r & mask
            while hits:
                r ^= piv[hits & -hits]
                hits = r & mask
            low = r & amask
            if low:
                low &= -low
                piv[low] = r
                mask |= low
                taken.append(i)
                if not residues and len(piv) == cols:
                    break
            elif residues:
                left.append(r >> cols)
        return taken, left
    for i, (u, s) in enumerate(rows):
        hits = u & mask
        while hits:
            low = hits & -hits
            pu, ps = piv[low]
            # add the pivot row to an entry 2, its negative to an entry 1;
            # the sum is _add3's, inlined
            if not s & low:
                ps ^= pu
            t = s ^ ps
            both = u & pu
            same = both & ~t
            u, s = (u ^ pu) | same, (t & ~both) | (same & ~s)
            hits = u & mask
        low = u & amask
        if low:
            low &= -low
            if s & low:
                s ^= u
            piv[low] = (u, s)
            mask |= low
            taken.append(i)
            if not residues and len(piv) == cols:
                break
        elif residues:
            left.append((u >> cols, s >> cols))
    return taken, left


def _sliced_rref(a: np.ndarray, p: int):
    """Bit-sliced Gauss-Jordan over F_2 or F_3: _forward, then back-substitution.

    _forward leaves one pivot row per lead, normalised to 1 there.  Then
    each pivot row, from the highest lead down, is cleared at the leads
    above its own; the rows there are already fully reduced, so each
    clearing sets no other lead bit.
    """
    nrows, ncols = a.shape
    piv = {}
    _forward(p, _sliced_rows(a, p), ncols, piv, False)
    leads = sorted(piv)
    mask = sum(leads)
    for lead in reversed(leads):
        if p == 2:
            r = piv[lead]
            hits = (r & mask) ^ lead
            while hits:
                low = hits & -hits
                hits ^= low
                r ^= piv[low]
            piv[lead] = r
            continue
        u, s = piv[lead]
        hits = (u & mask) ^ lead
        while hits:
            low = hits & -hits
            hits ^= low
            pu, ps = piv[low]
            u, s = _add3(u, s, pu, ps if (s ^ ps) & low else ps ^ pu)
        piv[lead] = (u, s)
    out = np.zeros((nrows, ncols), dtype=np.int64)
    out[: len(leads)] = _unsliced([piv[k] for k in leads], p, ncols)
    return out, [k.bit_length() - 1 for k in leads]


# Over GF(3), Mat.kernel_image takes the kernel, the product and the rref
# above this many entries.  Its one pass carries all of B's columns in
# every row, where the kernel's pass carries one tracking bit per row of A,
# so on large systems the wider rows cost more than the product saves: on
# the hom systems of the benchmark's hom_sample inputs (medians over three
# seeds) the one pass cost 0.68-0.97x the three steps up to 614,656
# entries (dim 28) and 1.03-1.41x from 1,048,576 (dim 32) to dim 64.  Over
# GF(2), where a row operation is one XOR, it cost 0.66-0.96x from dim 16
# to 48 and 0.95x at dim 64.
_ONE_PASS_GF3_CUT = 1 << 19


def _forward_kernel(a: np.ndarray, p: int, k: int) -> np.ndarray:
    """A basis of the left kernel of a over F_2 or F_3, projected to its first k coordinates.

    The rows k.. go first, untracked, so the pass tracks only the rows
    ..k, and row i of those is tracked by bit cols + i.  For k = rows the
    basis is kernel_basis's.
    """
    piv, rows = {}, _sliced_rows(a, p, k)
    _forward(p, rows[k:], a.shape[1], piv, False)
    return _unsliced(_forward(p, rows[:k], a.shape[1], piv, True)[1], p, k)


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


# The measured crossover between the list routine and the int64 one over
# GF(p), p > 3: over the GF(1048573) rref inputs of one ladder_fp pass,
# total elimination time is least with the switch between 768 and 1536
# entries.  The list routine's cost grows with the nonzero entries it
# touches, which fill in over a large p.
_LIST_RREF_THRESHOLD = 1024


def _list_rref(a: np.ndarray, field: FieldSpec):
    """Gauss-Jordan over GF(p) on Python lists of a canonical array's entries.

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
            prow[c:] = [x * inv % p for x in prow[c:]]
        # rows r.. are zero left of column c, so the pivot row is too
        support = [(j, x) for j, x in enumerate(prow[c:], c) if x]
        for row in rows:
            f = row[c]
            if not f or row is prow:
                continue
            for j, x in support:
                row[j] = (row[j] - f * x) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return np.array(rows, dtype=field.dtype), pivots


def _primitive(row: list) -> list:
    """row divided by its content, the gcd of its entries (an all-zero row stays)."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _qq_rref(a: np.ndarray):
    """Fraction-free Gauss-Jordan over QQ on primitive integer rows.

    Each row is scaled by the lcm of its denominators into Python ints and
    divided by its content.  A pivot step with pivot pv replaces each other
    row whose entry f in the pivot column is nonzero by row*(pv/g) -
    prow*(f/g), g = gcd(pv, f), subtracting over the pivot row's support
    only, and divides the result by its content again.  Rows stay
    primitive, so their entries stay short, and no entry update pays a
    Fraction gcd.  Each pivot row becomes Fractions once, at the end,
    divided by its lead.
    """
    nrows, ncols = a.shape
    rows = []
    for row in a.tolist():
        pairs = [x.as_integer_ratio() for x in row]
        den = lcm(*[d for _, d in pairs])
        rows.append(_primitive([n * (den // d) for n, d in pairs]))
    pivots = []
    r = 0
    for c in range(ncols):
        hits = [i for i in range(r, nrows) if rows[i][c]]
        if not hits:
            continue
        # the smallest pivot, made positive: a pivot of 1 needs no row scaled
        i = min(hits, key=lambda i: abs(rows[i][c]))
        prow = rows[i] if rows[i][c] > 0 else [-x for x in rows[i]]
        rows[i], rows[r] = rows[r], prow
        pv = prow[c]
        # rows r.. are zero left of column c, so the pivot row is too
        support = [(j, x) for j, x in enumerate(prow[c:], c) if x]
        for k, row in enumerate(rows):
            f = row[c]
            if not f or row is prow:
                continue
            g = gcd(pv, f)
            m, f = pv // g, f // g
            if m != 1:
                row = [x * m for x in row]
            for j, x in support:
                row[j] -= f * x
            rows[k] = _primitive(row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    out = _zeros(QQ, nrows, ncols)
    zero = QQ.zero()
    for i, c in enumerate(pivots):
        lead = rows[i][c]
        out[i] = [Fraction(x, lead) if x else zero for x in rows[i]]
    return out, pivots


def _echelon(field: FieldSpec, a: np.ndarray):
    """The rref of a canonical array and its pivot columns, from the kernel its field and size pick.

    An array without entries is its own rref and comes back as it is.
    """
    if a.size == 0:
        return a, []
    p = field.p
    if p == 0:
        return _qq_rref(a)
    if a.size <= (_SLICED_RREF_THRESHOLD if p <= 3 else _LIST_RREF_THRESHOLD):
        return _list_rref(a, field)
    if p <= 3:
        return _sliced_rref(a, p)
    return _rref(a, field)


# Mat.kernel_image and Mat.solve_left presolve (_forced) a system block A
# of more entries than this; below it the scan costs more than it saves.
_PRESOLVE_CUT = 4096


def _forced(a: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """The rows of a that its singleton columns force to 0, as a boolean mask.

    The unknowns are y in y a = r, and pinned marks the columns j with
    r_j = 0.  A pinned column whose one nonzero among the rows left is in
    row i forces y_i = 0 (LaMacchia and Odlyzko's first step of
    structured Gaussian elimination), so row i goes.  The column is then
    zero on the rows left, where it costs the eliminations nothing, so it
    stays, as do the columns that row i shared; these may be singletons
    among the rows left.  Rounds repeat while one forces a row and the
    rows left hold more than _PRESOLVE_CUT entries.  A forced row is
    independent of all the other rows, so dropping it changes no
    dependency among them.
    """
    nz = a.astype(bool)
    counts = nz.sum(axis=0)
    forced = np.zeros(a.shape[0], dtype=bool)
    while True:
        new = (counts == 1) & pinned
        if not new.any():
            break
        # the one row left in each new singleton column
        rows = nz[:, new].any(axis=1) & ~forced
        forced |= rows
        counts -= nz[rows].sum(axis=0)
        if np.count_nonzero(~forced) * a.shape[1] <= _PRESOLVE_CUT:
            break
    return forced


def _solve(field: FieldSpec, a: np.ndarray, b: np.ndarray):
    """Mat.solve_left on canonical arrays, without the presolve: an array X with X a = b, or None."""
    n = a.shape[0]
    if _forward_field(field):
        # X a = b exactly when each row of [b | 0] reduces to [0 | -X]
        p, piv = field.p, {}
        rows = _sliced_rows(np.concatenate([a, b]), p, n)
        _forward(p, rows[:n], a.shape[1], piv, False)
        taken, left = _forward(p, rows[n:], a.shape[1], piv, True)
        if taken:
            return None
        return _unsliced(left if p == 2 else [(u, s ^ u) for u, s in left], p, n)
    # [a^T | b^T] is the transpose of a stacked on b
    red, piv = _echelon(field, np.concatenate([a, b]).T)
    if piv and piv[-1] >= n:
        return None
    xt = _zeros(field, n, b.shape[0])
    xt[piv] = red[: len(piv), n:]
    return xt.T


def _positions(idx, n: int):
    """idx as an index into an axis of length n.

    A step-1 range inside the axis becomes a slice, which numpy takes as a
    view without copying; anything else becomes a list for fancy indexing,
    which raises past the end and counts negative positions from it.
    """
    if type(idx) is range and idx.step == 1 and 0 <= idx.start and idx.stop <= n:
        return slice(idx.start, idx.stop)
    return list(idx)


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
        rows, cols = a.shape
        return Mat(field, rows, cols, a)

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
        a.flat[:: n + 1] = field.one()
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
        """Row i as a 1-row matrix; raises past the end, and a negative i counts from it."""
        i = range(self.rows)[i]
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
        return not np.count_nonzero(self._a)

    def key(self):
        """Hashable canonical form (for dedup dictionaries)."""
        if self.field.dtype is object:
            return (self.rows, self.cols, tuple(self._a.flat))
        return (self.rows, self.cols, self._a.tobytes())

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.field is not other.field and self.field != other.field:
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._a, other._a))

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Mat({self.field}, {self.rows}x{self.cols}, {self.to_rows()})"

    # -- arithmetic ---------------------------------------------------

    def _check_same(self, other: "Mat"):
        if self.field is not other.field and self.field != other.field:
            raise DimensionMismatch("field mismatch")

    def __add__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add {self.shape} vs {other.shape}")
        return Mat._of(self.field, _sum(self.field, self._a, other._a, 1))

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub {self.shape} vs {other.shape}")
        return Mat._of(self.field, _sum(self.field, self._a, other._a, -1))

    def __neg__(self) -> "Mat":
        return Mat._of(self.field, _neg(self.field, self._a))

    def scale(self, c) -> "Mat":
        return Mat._of(self.field, _scale(self.field, self._a, self.field.coerce(c)))

    def __matmul__(self, other: "Mat") -> "Mat":
        self._check_same(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"matmul {self.shape} @ {other.shape}")
        return Mat._of(self.field, _product(self.field, self._a, other._a))

    def transpose(self) -> "Mat":
        return Mat._of(self.field, self._a.T)

    def kron(self, other: "Mat") -> "Mat":
        self._check_same(other)
        return Mat._of(self.field, _kron(self.field, self._a, other._a))

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
        field, cols = mats[0].field, mats[0].cols
        for m in mats:
            if (m.field is not field and m.field != field) or m.cols != cols:
                raise DimensionMismatch("vstack shape mismatch")
        return Mat._of(field, np.concatenate([m._a for m in mats]))

    @staticmethod
    def flat_stack(mats) -> "Mat":
        """Same-shape matrices as the rows of one matrix, each flattened row-major.

        A coefficient row c times the result is sum_l c_l mats[l], flattened.
        """
        mats = list(mats)
        if any(m.shape != mats[0].shape for m in mats):
            raise DimensionMismatch("flat_stack shape mismatch")
        return Mat.vstack(mats).reshape(len(mats), mats[0].rows * mats[0].cols)

    @staticmethod
    def hstack(mats) -> "Mat":
        mats = list(mats)
        if not mats:
            raise ValueError("hstack of nothing")
        field, rows = mats[0].field, mats[0].rows
        for m in mats:
            if (m.field is not field and m.field != field) or m.rows != rows:
                raise DimensionMismatch("hstack shape mismatch")
        return Mat._of(field, np.concatenate([m._a for m in mats], axis=1))

    def take_rows(self, idx) -> "Mat":
        return Mat._of(self.field, self._a[_positions(idx, self.rows)])

    def take_columns(self, idx) -> "Mat":
        return Mat._of(self.field, self._a[:, _positions(idx, self.cols)])

    # -- elimination --------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (Mat, pivot column list)."""
        if self.rows == 0 or self.cols == 0:
            return self, []
        a, piv = _echelon(self.field, self._a)
        return Mat._of(self.field, a), piv

    def rank(self) -> int:
        field, a = self.field, self._a
        if not _forward_field(field):
            return len(_echelon(field, a)[1])
        # on few entries the list kernel, which _echelon would pick, costs
        # less than packing the rows for _forward
        if a.size <= _SLICED_RREF_THRESHOLD:
            return len(_list_rref(a, field)[1])
        return len(self.independent_rows())

    def independent_rows(self) -> list:
        """The rows independent of the rows before them: the pivot columns of the transpose's rref."""
        field, a = self.field, self._a
        if not _forward_field(field):
            return _echelon(field, a.T)[1]
        return _forward(field.p, _sliced_rows(a, field.p), self.cols, {}, False)[0]

    def kernel(self) -> "Mat":
        """Basis (rows, in rref) of the left kernel {v : v @ self = 0}."""
        return self.kernel_basis().rref()[0]

    def kernel_basis(self) -> "Mat":
        """A basis (rows, not in rref) of the left kernel, from one elimination.

        Row f is the solution that is 1 at the free coordinate f and 0 at
        the other free coordinates; the free coordinates are the rows that
        depend on the rows before them.
        """
        field, n = self.field, self.rows
        if _forward_field(field):
            return Mat._of(field, _forward_kernel(self._a, field.p, n))
        red, piv = _echelon(field, self._a.T)
        pivset = set(piv)
        # one index array serves both fancy indexings below
        free = np.array([j for j in range(n) if j not in pivset], dtype=np.intp)
        out = _zeros(field, free.size, n)
        out[np.arange(free.size), free] = field.one()
        out[:, piv] = _neg(field, red[: len(piv), free].T)
        return Mat._of(field, out)

    def projected_kernel(self, k: int) -> "Mat":
        """Rows spanning {x : (x, y) @ self = 0 for some y}, x the first k coordinates.

        Over GF(2) and GF(3) they are a basis, from _forward_kernel;
        otherwise they are kernel_basis's first k columns.
        """
        if not _forward_field(self.field):
            return self.kernel_basis().take_columns(range(k))
        return Mat._of(self.field, _forward_kernel(self._a, self.field.p, k))

    def kernel_image(self, k: int) -> "Mat":
        """Basis (rows, in rref) of {y B : y A = 0}, for self = [A | B] with A the first k columns.

        Over GF(2), and over GF(3) up to _ONE_PASS_GF3_CUT entries, one
        _forward pass over the rows of [A | B], cut at k, leaves y B for
        each row whose A part vanishes, y the kernel vector _forward_kernel
        tracks for it; these span the answer, and _echelon of them gives
        its rref.  Otherwise the kernel of A, times B, in rref.

        When A has more than _PRESOLVE_CUT entries, the rows that
        singleton columns of A force to 0 (_forced) go first.  The answer
        is a canonical rref of the same space, so it is the same.
        """
        field, a = self.field, self._a
        if self.rows * k > _PRESOLVE_CUT:
            a = a[~_forced(a[:, :k], np.ones(k, dtype=bool))]
        if _forward_field(field) and (field.p == 2 or a.size <= _ONE_PASS_GF3_CUT):
            p = field.p
            left = _forward(p, _sliced_rows(a, p), k, {}, True)[1]
            red, piv = _echelon(field, _unsliced(left, p, a.shape[1] - k))
            return Mat._of(field, red[: len(piv)])
        ys = Mat._of(field, a[:, :k]).kernel_basis()
        red, piv = (ys @ Mat._of(field, a[:, k:])).rref()
        return red.take_rows(range(len(piv)))

    def solve_left(self, b: "Mat"):
        """Solve X @ self = b; returns one X (0 at the rows that depend on the rows before them) or None.

        Above _PRESOLVE_CUT entries the rows that singleton columns force
        to 0 are dropped first (_forced); X is 0 at them.  Such a row takes
        part in no dependency, so X is the same as without the step.
        """
        self._check_same(b)
        if b.cols != self.cols:
            raise DimensionMismatch("solve_left column mismatch")
        field, a, rhs = self.field, self._a, b._a
        if a.size > _PRESOLVE_CUT:
            forced = _forced(a, ~rhs.astype(bool).any(axis=0))
            if forced.any():
                # every column stays: where the forced rows held all of a
                # column's nonzeros and b is not 0, no X solves it
                x = _solve(field, a[~forced], rhs)
                if x is None:
                    return None
                out = _zeros(field, b.rows, self.rows)
                out[:, ~forced] = x
                return Mat._of(field, out)
        x = _solve(field, a, rhs)
        return None if x is None else Mat._of(field, x)

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
        if k < 0:
            raise ValueError(f"power of a matrix to a negative exponent {k}")
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
        if m.field is not field and m.field != field:
            raise DimensionMismatch(f"vectors over {m.field} for a subspace over {field}")
        red, piv = _echelon(field, m._a)
        return Subspace(field, ambient, Mat._of(field, red[: len(piv)]), piv)

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
        field, a = self.field, v._a
        if v.field is not field and v.field != field:
            raise DimensionMismatch("field mismatch")
        # the basis is in rref, so each row's pivot entries are its coordinates
        return Mat._of(field, _sum(field, a, _product(field, a[:, self.pivots], self.basis._a), -1))

    def contains_vector(self, v: Mat) -> bool:
        return self.reduce(v).is_zero()

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return self.contains_vector(other.basis)

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

    The greedy choice: a row is kept when it is independent of inner and
    the rows before it in [inner; outer].
    Requires inner <= outer; raises DimensionMismatch otherwise.
    """
    if inner.ambient != outer.ambient:
        raise DimensionMismatch("ambient mismatch")
    piv = Mat.vstack([inner.basis, outer.basis]).independent_rows()
    if len(piv) != outer.dim:
        raise DimensionMismatch("quotient_basis requires inner <= outer")
    return [outer.basis.row(i - inner.dim) for i in piv[inner.dim :]]
