"""Finite-dimensional associative algebras given by basis and structure constants.

An algebra may additionally be built from a quiver with relations; the
path residues modulo the relation ideal (reduced linearly at a path-length
cap) become the basis, and the trivial paths give a complete set of
orthogonal primitive idempotents.
"""

from __future__ import annotations

import numpy as np

from .linalg import FieldSpec, Mat, Subspace

__all__ = [
    "Algebra",
    "AlgebraElement",
    "AlgebraError",
    "QuiverSpec",
    "ValidationReport",
    "validate_algebra",
    "algebra_from_quiver",
]


class AlgebraError(ValueError):
    pass


class ValidationReport:
    """Outcome of a structural validation, with a witness on failure."""

    def __init__(self, ok: bool, problems=None):
        self.ok = ok
        self.problems = problems or []

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "valid" if self.ok else f"invalid: {self.problems[0]}"


class Algebra:
    """Associative unital algebra: basis labels, unit vector, mul table.

    mul[i][j] is the coefficient row (1 x dim Mat) of basis_i * basis_j.
    Vectors are rows; right multiplication by y is v @ right_mult_matrix(y).
    """

    def __init__(self, field: FieldSpec, labels, one: Mat, mul, quiver=None, paths=None):
        self.field = field
        self.labels = list(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise AlgebraError("duplicate basis labels")
        if one.shape != (1, self.dim):
            raise AlgebraError("unit vector has wrong length")
        self.one = one
        self.mul = [[mul[i][j] for j in range(self.dim)] for i in range(self.dim)]
        for row in self.mul:
            for entry in row:
                if entry.shape != (1, self.dim):
                    raise AlgebraError("structure constant row has wrong length")
        # R_j: right multiplication by basis_j, rows indexed by basis_i
        self._rmul = [
            Mat.vstack([self.mul[i][j] for i in range(self.dim)])
            for j in range(self.dim)
        ]
        # row j: R_j flattened, so y @ _rstack is sum_j y_j R_j
        self._rstack = Mat.flat_stack(self._rmul) if self.dim else Mat.zeros(field, 0, 0)
        self.quiver = quiver
        self.paths = paths  # aligned with basis when quiver-built

    # -- structural equality (used by serialisation round trips) -------

    def __eq__(self, other):
        # _rstack holds every structure constant: one compare, not dim^2
        return self is other or (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.labels == other.labels
            and self.one == other.one
            and self._rstack == other._rstack
        )

    def __hash__(self):
        return hash((self.field, tuple(self.labels), self.one.key()))

    def __repr__(self):
        return f"Algebra(dim {self.dim} over {self.field}, basis {self.labels})"

    # -- elements -------------------------------------------------------

    def element(self, coeffs) -> "AlgebraElement":
        if isinstance(coeffs, Mat):
            m = coeffs
        else:
            m = Mat.from_rows(self.field, [list(coeffs)])
        if m.shape != (1, self.dim):
            raise AlgebraError(f"coefficient vector must have length {self.dim}")
        return AlgebraElement(self, m)

    def zero_element(self) -> "AlgebraElement":
        return AlgebraElement(self, Mat.zeros(self.field, 1, self.dim))

    def one_element(self) -> "AlgebraElement":
        return AlgebraElement(self, self.one)

    def basis_element(self, i) -> "AlgebraElement":
        if isinstance(i, str):
            i = self.labels.index(i)
        elif not 0 <= i < self.dim:
            raise AlgebraError(f"basis index {i} out of range for dim {self.dim}")
        return AlgebraElement(self, Mat.identity(self.field, self.dim).row(i))

    def scalar_element(self, c) -> "AlgebraElement":
        return AlgebraElement(self, self.one.scale(c))

    def right_mult_matrix(self, y: Mat) -> Mat:
        """Matrix of v -> v*y in the basis (y a coefficient row)."""
        return (y @ self._rstack).reshape(self.dim, self.dim)

    def left_mult_matrix(self, x: Mat) -> Mat:
        """Matrix of v -> x*v in the basis (row convention: v @ L)."""
        return (x @ Mat.hstack(self._rmul)).reshape(self.dim, self.dim)

    def multiply(self, x: Mat, y: Mat) -> Mat:
        return x @ self.right_mult_matrix(y)


class AlgebraElement:
    """A ring element as a coefficient row over the algebra basis."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: Algebra, coeffs: Mat):
        self.algebra = algebra
        self.coeffs = coeffs

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElement(self.algebra, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(
                self.algebra, self.algebra.multiply(self.coeffs, other.coeffs)
            )
        return AlgebraElement(self.algebra, self.coeffs.scale(other))

    __rmul__ = __mul__

    def _check(self, other):
        if other.algebra != self.algebra:
            raise AlgebraError("elements of different algebras")

    def is_zero(self) -> bool:
        return self.coeffs.is_zero()

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs.key())

    def key(self):
        return self.coeffs.key()

    def __repr__(self):
        terms = [
            f"{c}*{l}" if c != 1 else l
            for c, l in zip(self.coeffs.to_rows()[0], self.algebra.labels)
            if c != 0
        ]
        return " + ".join(terms) if terms else "0"


def validate_algebra(a: Algebra) -> ValidationReport:
    """Check the unit and associativity invariants; witness on failure."""
    problems = []
    ident = Mat.identity(a.field, a.dim)
    one_r = a.right_mult_matrix(a.one)
    one_l = a.left_mult_matrix(a.one)
    if one_r != ident:
        problems.append("unit fails on the right")
    if one_l != ident:
        problems.append("unit fails on the left")
    if problems:
        return ValidationReport(False, problems)
    # row (i, j) of t is b_i b_j = sum_k t_ijk b_k, and _rstack holds t_ikm in
    # row k, column (i, m); with entries (i, j, l, m), (b_i b_j) b_l is
    # sum_k t_ijk t_klm and b_i (b_j b_l) is sum_k t_jlk t_ikm
    d = a.dim
    t = Mat.vstack([Mat.zeros(a.field, 0, d)] + [a.mul[i][j] for i in range(d) for j in range(d)])
    left = (t @ t.reshape(d, d * d)).array().reshape(d, d, d, d)
    right = (t @ a._rstack).array().reshape(d, d, d, d).transpose(2, 0, 1, 3)
    bad = np.argwhere((left != right).any(axis=3))
    if bad.size:
        witness = tuple(a.labels[x] for x in bad[0])
        return ValidationReport(False, [f"associativity fails on triple {witness}"])
    return ValidationReport(True)


# ---------------------------------------------------------------------------
# Quivers with relations.
# ---------------------------------------------------------------------------


class QuiverSpec:
    """A quiver with relations and a path-length cap.

    Vertices are 1..n_vertices.  An arrow (src, tgt, label) composes
    left-to-right: the path "a then b" is written a*b, and in a right
    module an arrow i->j acts from the vertex-i component to the
    vertex-j component.
    Relations are k-linear combinations [(coeff, [labels...]), ...] of
    parallel paths of length >= 2.
    """

    def __init__(self, n_vertices: int, arrows, relations=(), cap: int = 2):
        if n_vertices < 1:
            raise AlgebraError("quiver needs at least one vertex")
        if cap < 1:
            raise AlgebraError("path-length cap must be positive")
        self.n_vertices = n_vertices
        self.arrows = [(int(s), int(t), str(l)) for (s, t, l) in arrows]
        self.cap = cap
        labels = [l for (_, _, l) in self.arrows]
        if len(set(labels)) != len(labels):
            raise AlgebraError("duplicate arrow labels")
        self._by_label = {l: (s, t) for (s, t, l) in self.arrows}
        for s, t, l in self.arrows:
            if not (1 <= s <= n_vertices and 1 <= t <= n_vertices):
                raise AlgebraError(f"arrow {l} endpoints out of range")
        self.relations = [list(rel) for rel in relations]
        for rel in self.relations:
            if not rel:
                raise AlgebraError("empty relation")
            ends = None
            for coeff, word in rel:
                if len(word) < 2:
                    raise AlgebraError("relations must use paths of length >= 2")
                e = self._path_endpoints(word)
                if ends is None:
                    ends = e
                elif e != ends:
                    raise AlgebraError("relation mixes non-parallel paths")

    def _path_endpoints(self, word):
        src = None
        cur = None
        for l in word:
            if l not in self._by_label:
                raise AlgebraError(f"unknown arrow label {l!r}")
            s, t = self._by_label[l]
            if cur is None:
                src = s
            elif cur != s:
                raise AlgebraError(f"path {word} is not composable")
            cur = t
        return (src, cur)


def _enumerate_paths(q: QuiverSpec):
    """All paths of length <= cap as (src, arrow-label tuple), by length."""
    paths = [(v, ()) for v in range(1, q.n_vertices + 1)]
    frontier = list(paths)
    for _ in range(q.cap):
        nxt = []
        for src, word in frontier:
            end = q._path_endpoints(word)[1] if word else src
            for s, t, l in q.arrows:
                if s == end:
                    nxt.append((src, word + (l,)))
        paths.extend(nxt)
        frontier = nxt
    return paths


def _path_label(src, word):
    return f"e{src}" if not word else "*".join(word)


def algebra_from_quiver(q: QuiverSpec, field: FieldSpec) -> Algebra:
    """Path algebra modulo relations, reduced linearly at the cap.

    The ideal is spanned by u*r*w for relation generators r and paths
    u, w keeping every monomial within the cap; the cap must be
    admissible (every path of full cap length reduces to zero).  Three
    whole eliminations over the path basis follow: the full-length paths
    reduced modulo the ideal (the first survivor is named), one rref of
    [ideal; I]^T whose pivots past the ideal are the residue basis (the
    greedy choice in path order), and one solve of every concatenation
    within the cap over [ideal; basis paths] for the multiplication
    table; a longer concatenation is 0, which admissibility makes exact.
    """
    paths = _enumerate_paths(q)
    index = {p: i for i, p in enumerate(paths)}
    npaths = len(paths)

    def path_end(p):
        src, word = p
        return q._path_endpoints(word)[1] if word else src

    # ideal generators u * rel * w, every monomial within the cap
    gen_rows = []
    for rel in q.relations:
        ends = q._path_endpoints(rel[0][1])
        max_len = max(len(word) for _, word in rel)
        for u in paths:
            if path_end(u) != ends[0]:
                continue
            for w in paths:
                src_w = w[0]
                if src_w != ends[1]:
                    continue
                if len(u[1]) + max_len + len(w[1]) > q.cap:
                    continue
                row = [field.zero()] * npaths
                for coeff, word in rel:
                    p = (u[0], u[1] + tuple(word) + w[1])
                    row[index[p]] = row[index[p]] + field.coerce(coeff)
                gen_rows.append(row)
    ideal = Subspace.from_vectors(field, npaths, gen_rows)
    units = Mat.identity(field, npaths)

    full = [i for i, p in enumerate(paths) if len(p[1]) == q.cap]
    residues = ideal.reduce(units.take_rows(full)).to_rows()
    bad = [paths[i] for i, row in zip(full, residues) if any(row)]
    if bad:
        raise AlgebraError(
            f"ideal not admissible at cap {q.cap}: path "
            f"{_path_label(*bad[0])} does not reduce to 0; raise the cap "
            "or fix the relations"
        )

    piv = Mat.vstack([ideal.basis, units]).independent_rows()
    basis = [i - ideal.dim for i in piv[ideal.dim :]]
    picked = [paths[i] for i in basis]
    dim = len(picked)

    pairs = [
        (i, j, index[(p[0], p[1] + r[1])])
        for i, p in enumerate(picked)
        for j, r in enumerate(picked)
        if r[0] == path_end(p) and len(p[1]) + len(r[1]) <= q.cap
    ]
    reducer = Mat.vstack([ideal.basis, units.take_rows(basis)])
    coords = reducer.solve_left(units.take_rows(c for *_, c in pairs))
    coords = coords.take_columns(range(ideal.dim, ideal.dim + dim))
    zero = Mat.zeros(field, 1, dim)
    mul = [[zero] * dim for _ in range(dim)]
    for k, (i, j, _) in enumerate(pairs):
        mul[i][j] = coords.row(k)

    one = Mat.from_rows(field, [[0 if p[1] else 1 for p in picked]])
    labels = [_path_label(*p) for p in picked]
    return Algebra(field, labels, one, mul, quiver=q, paths=picked)
