"""Answer checks that use none of ppcalc's linear algebra.

Matrices are read out of the library with ``to_rows()`` and checked with
plain elimination: int64 numpy arrays mod p, or Python ``Fraction`` rows
over QQ.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class WrongAnswer(AssertionError):
    """A certified answer that contradicts the known one."""


def rank(field, rows) -> int:
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    if field.is_prime_field:
        return rank_mod_p(np.array([[int(x) for x in r] for r in rows], dtype=np.int64), field.p)
    return rank_qq([[Fraction(x) for x in r] for r in rows])


def rank_mod_p(a, p):
    """Rank of an int64 array mod p."""
    a = a % p
    r = 0
    for c in range(a.shape[1]):
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        a[[r, i]] = a[[i, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        below = a[r + 1 :, c].copy()
        a[r + 1 :] = (a[r + 1 :] - np.outer(below, a[r])) % p
        r += 1
        if r == a.shape[0]:
            break
    return r


def rank_qq(m):
    """Rank of a list of Fraction rows (reorders and overwrites them)."""
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def _red(field):
    return (lambda x: x % field.p) if field.is_prime_field else (lambda x: x)


def _array(field, rows):
    """int64 array mod p, or Fraction rows over QQ."""
    if field.is_prime_field:
        return np.array([[int(x) for x in r] for r in rows], dtype=np.int64).reshape(len(rows), -1)
    return [[Fraction(x) for x in r] for r in rows]


def mul(field, a, b):
    if field.is_prime_field:
        # entries below p < 2^21 and inner sizes below 2^20 keep int64 exact
        return (a @ b) % field.p
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def equal(field, a, b):
    if field.is_prime_field:
        return bool(np.array_equal(a % field.p, b % field.p))
    return a == b


def intertwines(m, n, f) -> bool:
    """f: m -> n commutes with every basis action (row convention)."""
    field = m.field
    for am, an in zip(m.action, n.action):
        a = _array(field, am.to_rows())
        b = _array(field, an.to_rows())
        if not equal(field, mul(field, a, f), mul(field, f, b)):
            return False
    return True


def check_hom_basis(m, n, maps, expected):
    """maps is a basis of Hom(m, n) of the known dimension."""
    if len(maps) != expected:
        raise WrongAnswer(f"dim Hom = {len(maps)}, expected {expected}")
    flat = []
    for f in maps:
        rows = f.matrix.to_rows()
        if not intertwines(m, n, _array(m.field, rows)):
            raise WrongAnswer("hom_space returned a map that does not intertwine")
        flat.append([x for r in rows for x in r])
    if maps and rank(m.field, flat) != len(maps):
        raise WrongAnswer("hom_space returned dependent maps")


def check_idempotent(m, e):
    """e is a nontrivial idempotent endomorphism of m."""
    field = m.field
    rows = e.matrix.to_rows()
    a = _array(field, rows)
    if not intertwines(m, m, a):
        raise WrongAnswer("decomposition witness is not a module map")
    if not equal(field, mul(field, a, a), a):
        raise WrongAnswer("decomposition witness is not idempotent")
    r = rank(field, rows)
    if r in (0, m.dim):
        raise WrongAnswer("decomposition witness is trivial")


def act(module, elt_coeffs):
    """Action matrix (as rows) of the algebra element with these coefficients."""
    field = module.field
    red = _red(field)
    d = module.dim
    out = [[0] * d for _ in range(d)]
    for c, mat in zip(elt_coeffs, module.action):
        if c:
            rows = mat.to_rows()
            out = [[red(x + c * y) for x, y in zip(ro, rm)] for ro, rm in zip(out, rows)]
    return out


def satisfies(phi, module, tup) -> bool:
    """The tuple lies in phi(module): some y solves (x y) A = 0."""
    field = module.field
    d = module.dim
    n, c, e = phi.n, phi.c, phi.e
    x = [v for t in tup for v in t.to_rows()[0]]
    lhs = [[0] * (e * d) for _ in range(c * d)]
    rhs = [0] * (e * d)
    red = _red(field)
    for (i, j), elt in phi.coeffs.items():
        block = act(module, elt.coeffs.to_rows()[0])
        if i < n:
            xi = x[i * d : (i + 1) * d]
            for v in range(d):
                rhs[j * d + v] = red(rhs[j * d + v] - sum(xi[u] * block[u][v] for u in range(d)))
        else:
            for u in range(d):
                lhs[(i - n) * d + u][j * d : (j + 1) * d] = block[u]
    if not any(red(v) for v in rhs):
        return True
    if not lhs:
        return False
    return rank(field, lhs) == rank(field, lhs + [rhs])
