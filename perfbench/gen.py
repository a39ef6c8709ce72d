"""Seeded ladder inputs whose answers are known by construction.

Kronecker inputs are direct sums of the regular modules R_lam(n)
(a = I, b = J_n(lam)), conjugated per vertex by seeded random invertible
matrices, so that

    dim Hom(+ R_lam_i(n_i), + R_mu_j(m_j)) = sum over lam_i = mu_j of min(n_i, m_j).

The preprojective module P(n) (dims (n, n+1), a = [I | 0], b = [0 | I]) is
an indecomposable with End = k.  Lambda-modules (Lambda = k[x]/(x^2)) are
sums of the simple and the regular module, conjugated the same way; their
tensor with the embedding bimodule has dimension 2 dim L.

Every call builds fresh library objects, so per-object caches inside the
library never carry over from one timed repetition to the next.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ppcalc.examples import embedding_bimodule, kronecker_algebra, kronecker_rep, lambda_algebra
from ppcalc.formulas import pp_type_generator
from ppcalc.lattice import BetaMap
from ppcalc.linalg import GF, QQ, Mat
from ppcalc.modules import FDModule

FIELDS = {"gf2": GF(2), "gf3": GF(3), "gfp20": GF(1048573), "qq": QQ}


class Arith:
    """Scalar arithmetic of one field on plain Python lists."""

    def __init__(self, field):
        self.field = field
        if field.is_prime_field:
            p = field.p
            self.red = lambda x: x % p
            self.scalar = lambda rng: rng.randrange(p)
            self.eigen = list(range(min(p, 3)))
        else:
            self.red = lambda x: x
            self.scalar = lambda rng: Fraction(rng.choice((-1, 1)))
            self.eigen = [Fraction(0), Fraction(1), Fraction(2)]

    def coeff(self, rng):
        """A conjugation entry: dense mod p, small and sparse over QQ."""
        if self.field.is_prime_field:
            return rng.randrange(self.field.p)
        return Fraction(rng.choice((-1, 0, 0, 0, 1)))

    def mul(self, a, b):
        cols = list(zip(*b))
        return [[self.red(sum(x * y for x, y in zip(row, col))) for col in cols] for row in a]


def identity(n, zero=0, one=1):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def conjugation_rng(ar: Arith, rng, tag):
    """The generator for basis changes: the seeded one mod p, a fixed one over QQ.

    Exact rational elimination costs what the entry growth of the basis
    change makes it cost, and that varied by up to 30% between random
    matrices; so over QQ the modules depend on their shape alone and the
    seed picks elements and endomorphisms.
    """
    return rng if ar.field.is_prime_field else random.Random(f"qq-{tag}")


def random_invertible(ar: Arith, rng, n):
    """(T, T^-1) with T = L U for random unit triangular L and U."""
    low = identity(n)
    up = identity(n)
    for i in range(n):
        for j in range(i):
            low[i][j] = ar.coeff(rng)
            up[j][i] = ar.coeff(rng)
    low_inv = identity(n)
    for i in range(n):  # forward substitution: L X = I
        for j in range(i):
            if low[i][j]:
                low_inv[i] = [ar.red(x - low[i][j] * y) for x, y in zip(low_inv[i], low_inv[j])]
    up_inv = identity(n)
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if up[i][j]:
                up_inv[i] = [ar.red(x - up[i][j] * y) for x, y in zip(up_inv[i], up_inv[j])]
    return ar.mul(low, up), ar.mul(up_inv, low_inv)


def jordan(parts, ar: Arith):
    """Block diagonal of the Jordan blocks J_n(lam) for (lam, n) in parts."""
    size = sum(n for _, n in parts)
    j = identity(size, 0, 0)
    off = 0
    for lam, n in parts:
        for i in range(n):
            j[off + i][off + i] = ar.red(lam)
            if i + 1 < n:
                j[off + i][off + i + 1] = 1
        off += n
    return j


class KronInput:
    """A conjugated Kronecker module with the data that built it."""

    def __init__(self, module, parts, ar, p1, p1_inv, p2, p2_inv):
        self.module = module
        self.parts = parts
        self.ar = ar
        self.p1, self.p1_inv, self.p2, self.p2_inv = p1, p1_inv, p2, p2_inv

    @property
    def half(self):
        return len(self.p1)


def _conjugated_rep(kron, ar, rng, a_mat, b_mat):
    """The Kronecker module of (a, b) after a seeded basis change per vertex."""
    crng = conjugation_rng(ar, rng, f"kronecker-{len(a_mat)}x{len(a_mat[0])}")
    p1, p1_inv = random_invertible(ar, crng, len(a_mat))
    p2, p2_inv = random_invertible(ar, crng, len(a_mat[0]))
    a2 = ar.mul(ar.mul(p1, a_mat), p2_inv)
    b2 = ar.mul(ar.mul(p1, b_mat), p2_inv)
    f = ar.field
    return kronecker_rep(kron, Mat.from_rows(f, a2), Mat.from_rows(f, b2)), (p1, p1_inv, p2, p2_inv)


def regular_sum(kron, parts, rng) -> KronInput:
    """+ R_lam(n) over parts [(lam, n), ...], conjugated per vertex."""
    ar = Arith(kron.field)
    size = sum(n for _, n in parts)
    module, conj = _conjugated_rep(kron, ar, rng, identity(size), jordan(parts, ar))
    return KronInput(module, parts, ar, *conj)


def preprojective(kron, n, rng):
    """P(n): dims (n, n+1), a = [I | 0], b = [0 | I]; End P(n) = k."""
    ar = Arith(kron.field)
    a_mat = [[1 if j == i else 0 for j in range(n + 1)] for i in range(n)]
    b_mat = [[1 if j == i + 1 else 0 for j in range(n + 1)] for i in range(n)]
    return _conjugated_rep(kron, ar, rng, a_mat, b_mat)[0]


def hom_dim(parts_m, parts_n):
    """dim Hom between two sums of regular modules."""
    return sum(min(n, m) for lam, n in parts_m for mu, m in parts_n if lam == mu)


def even_parts(ar: Arith, size, count):
    """size split into `count` near-equal parts, eigenvalues in turn."""
    count = min(count, size)
    return [
        (ar.eigen[i % len(ar.eigen)], size // count + (i < size % count))
        for i in range(count)
    ]


def endomorphism(inp: KronInput, rng) -> Mat:
    """A seeded endomorphism: a polynomial in the nilpotent part, conjugated."""
    ar = inp.ar
    n = inp.half
    g = identity(n, 0, 0)
    off = 0
    for _, size in inp.parts:
        coeffs = [ar.scalar(rng) for _ in range(size)]
        for i in range(size):
            for k in range(size - i):
                g[off + i][off + i + k] = ar.red(coeffs[k])
        off += size
    f1 = ar.mul(ar.mul(inp.p1, g), inp.p1_inv)
    f2 = ar.mul(ar.mul(inp.p2, g), inp.p2_inv)
    zero = [0] * n
    rows = [r + zero for r in f1] + [zero + r for r in f2]
    return Mat.from_rows(ar.field, rows)


def vertex_vector(inp: KronInput, rng, vertex):
    """A nonzero element supported at vertex 1 or 2."""
    ar = inp.ar
    n = inp.half
    while True:
        part = [ar.scalar(rng) for _ in range(n)]
        if any(part):
            break
    zero = [0] * n
    return Mat.from_rows(ar.field, [part + zero if vertex == 1 else zero + part])


# ---------------------------------------------------------------------------
# One sample per ladder op: (inputs, expected answer).
# ---------------------------------------------------------------------------


def hom_sample(field, dim, rng):
    """(M, N, dim Hom(M, N)) for two sums of regular modules of dim `dim`."""
    kron = kronecker_algebra(field)
    ar = Arith(field)
    bm = even_parts(ar, dim // 2, 2)
    bn = even_parts(ar, dim // 2, 3)
    return regular_sum(kron, bm, rng).module, regular_sum(kron, bn, rng).module, hom_dim(bm, bn)


def indec_sample(field, dim, rng):
    """[(module, is_indecomposable)]: R_0 + R_1 of dim `dim`, and the brick P(dim/2 - 1)."""
    kron = kronecker_algebra(field)
    half = dim // 2
    split = regular_sum(kron, [(0, half // 2), (1, half - half // 2)], rng).module
    brick = preprojective(kron, half - 1, rng)
    return [(split, False), (brick, True)]


def lambda_module(lam, dim, rng):
    """dim // 3 regular modules and the rest simple, after a basis change."""
    ar = Arith(lam.field)
    x = identity(dim, 0, 0)
    for k in range(dim // 3):
        x[2 * k][2 * k + 1] = 1
    t, t_inv = random_invertible(ar, conjugation_rng(ar, rng, f"lambda-{dim}"), dim)
    xc = ar.mul(ar.mul(t, x), t_inv)
    f = lam.field
    acts = {"e1": Mat.identity(f, dim), "x": Mat.from_rows(f, xc)}
    return FDModule(lam, dim, [acts[label] for label in lam.labels])


def tensor_sample(field, dim, rng):
    """(L, B, dim(L tensor B) = 2 dim L)."""
    lam = lambda_algebra(field)
    bim = embedding_bimodule(lam, kronecker_algebra(field))
    return lambda_module(lam, dim, rng), bim, 2 * dim


def beta_sample(field, dim, rng):
    """(BetaMap, phi): phi generates the pp-type of a random element of L."""
    lam = lambda_algebra(field)
    bmap = BetaMap(embedding_bimodule(lam, kronecker_algebra(field)))
    mod = lambda_module(lam, dim, rng)
    ar = Arith(field)
    while True:
        v = [ar.scalar(rng) for _ in range(dim)]
        if any(v):
            break
    return bmap, pp_type_generator(mod, [Mat.from_rows(field, [v])])


def implies_sample(field, dim, rng):
    """[(psi, phi, psi <= phi)] for three pp-type generator pairs.

    gen(v f) <= gen(v) for f in End M; gen(w) <= gen(v) fails for w at
    the other vertex, and for v in R_lam(n), w in R_mu(n) with lam != mu.
    """
    kron = kronecker_algebra(field)
    ar = Arith(field)
    inp = regular_sum(kron, even_parts(ar, dim // 2, 2), rng)
    m = inp.module
    v = vertex_vector(inp, rng, 1) + vertex_vector(inp, rng, 2)
    f = endomorphism(inp, rng)
    v1 = vertex_vector(inp, rng, 1)
    w2 = vertex_vector(inp, rng, 2)
    lam, mu = ar.eigen[:2]
    r_lam = regular_sum(kron, [(lam, dim // 2)], rng)
    r_mu = regular_sum(kron, [(mu, dim // 2)], rng)
    return [
        (pp_type_generator(m, [v @ f]), pp_type_generator(m, [v]), True),
        (pp_type_generator(m, [w2]), pp_type_generator(m, [v1]), False),
        (
            pp_type_generator(r_mu.module, [vertex_vector(r_mu, rng, 1)]),
            pp_type_generator(r_lam.module, [vertex_vector(r_lam, rng, 1)]),
            False,
        ),
    ]


def rng_for(seed, *key):
    """A generator seeded by the run seed and the sample's position."""
    return random.Random(repr((seed,) + key))
