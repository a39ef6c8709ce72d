"""Finite-dimensional right modules over a finite-dimensional algebra.

Modules are given by one action matrix per algebra basis element, acting
on row vectors from the right.  This module also provides homomorphism
spaces, the categorical constructions consumed upstream (direct sums,
quotients, finitely presented modules, tensor with a bimodule),
direct-summand and indecomposability tests, and the radical of hom
spaces via the trace form.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from functools import cached_property, partial

import numpy as np

from .algebra import Algebra, AlgebraElement, ValidationReport
from .linalg import Mat, Subspace, _product, _zeros

__all__ = [
    "FDModule",
    "ModuleMap",
    "Bimodule",
    "ModuleError",
    "UnsupportedCharacteristicError",
    "regular_module",
    "zero_module",
    "validate_module",
    "hom_space",
    "direct_sum",
    "submodule_module",
    "quotient_module",
    "submodule_generated",
    "free_module",
    "fp_module",
    "TensorResult",
    "tensor_over",
    "tensor_hom",
    "is_direct_summand",
    "indecomposability",
    "IndecResult",
    "decompose",
    "iso_test",
    "rad_end",
    "rad_hom",
]


class ModuleError(ValueError):
    pass


class UnsupportedCharacteristicError(ModuleError):
    """Trace-form radical is unavailable at this characteristic."""


class FDModule:
    """A right module: dim and one action matrix per algebra basis element."""

    def __init__(self, algebra: Algebra, dim: int, action):
        self.algebra = algebra
        self.dim = dim
        self.action = list(action)
        if len(self.action) != algebra.dim:
            raise ModuleError("need one action matrix per algebra basis element")
        for m in self.action:
            if m.shape != (dim, dim):
                raise ModuleError(f"action matrix shape {m.shape}, expected {(dim, dim)}")

    @property
    def field(self):
        return self.algebra.field

    def act(self, elt) -> Mat:
        """Action matrix of an algebra element (AlgebraElement or coeff row)."""
        coeffs = elt.coeffs if isinstance(elt, AlgebraElement) else elt
        return (coeffs @ Mat.flat_stack(self.action)).reshape(self.dim, self.dim)

    def element(self, coords) -> Mat:
        if not isinstance(coords, Mat):
            coords = Mat.from_rows(self.field, [list(coords)])
        if coords.shape != (1, self.dim):
            raise ModuleError("element vector has wrong length")
        return coords

    def zero_vector(self) -> Mat:
        return Mat.zeros(self.field, 1, self.dim)

    def basis_vector(self, i: int) -> Mat:
        if not 0 <= i < self.dim:
            raise ModuleError(f"basis index {i} out of range for dim {self.dim}")
        a = _zeros(self.field, 1, self.dim)
        a[0, i] = self.field.one()
        return Mat._of(self.field, a)

    def elements(self):
        """All element vectors, coordinate 0 fastest (prime fields only, for exhaustive oracles)."""
        if not self.field.is_prime_field:
            raise ModuleError("cannot enumerate elements over the rationals")
        p, total = self.field.p, self.field.p**self.dim
        step = max(1, _ENUM_BLOCK_ENTRIES // max(1, self.dim))
        for start in range(0, total, step):
            for row in _digits(start, min(start + step, total), p, self.dim):
                yield Mat.of_array(self.field, row[None])

    def __eq__(self, other):
        return self is other or (
            isinstance(other, FDModule)
            and self.algebra == other.algebra
            and self.dim == other.dim
            and self.action == other.action
        )

    def __hash__(self):
        return hash((self.dim, tuple(m.key() for m in self.action)))

    @cached_property
    def presentation(self):
        """(W, nrel) from _spin_presentation, computed on first use.

        It is kept with this object and with nothing else: an equal module
        built separately computes its own, and a ModuleError is raised
        again on every use, as failures are not kept.
        """
        return _spin_presentation(self)

    def __repr__(self):
        return f"FDModule(dim {self.dim} over {self.algebra!r})"


def _first_unequal_product(left, right, expected: np.ndarray):
    """The first (i, j), in row-major order, with left[i] @ right[j] != expected[i, j], or None.

    The products are the blocks of vstack(left) @ hstack(right); expected is
    indexed [i, j, row, column].
    """
    rows, cols = left[0].rows, right[0].cols
    prod = (Mat.vstack(left) @ Mat.hstack(right)).array().reshape(len(left), rows, len(right), cols)
    bad = np.argwhere((prod.transpose(0, 2, 1, 3) != expected).any(axis=(2, 3)))
    return tuple(bad[0]) if bad.size else None


def validate_module(m: FDModule) -> ValidationReport:
    """Check rho(1) = id and multiplicativity on all basis pairs."""
    a = m.algebra
    if m.act(a.one) != Mat.identity(m.field, m.dim):
        return ValidationReport(False, ["unit does not act as identity"])
    t = Mat.vstack([a.mul[i][j] for i in range(a.dim) for j in range(a.dim)])  # row (i, j): b_i b_j
    combined = (t @ Mat.flat_stack(m.action)).array().reshape(a.dim, a.dim, m.dim, m.dim)
    bad = _first_unequal_product(m.action, m.action, combined)
    if bad is not None:
        i, j = bad
        return ValidationReport(
            False, [f"action not multiplicative on ({a.labels[i]}, {a.labels[j]})"]
        )
    return ValidationReport(True)


def regular_module(a: Algebra) -> FDModule:
    """The right regular representation of the algebra on itself."""
    return FDModule(a, a.dim, [a.right_mult_matrix(a.basis_element(j).coeffs) for j in range(a.dim)])


def zero_module(a: Algebra) -> FDModule:
    return FDModule(a, 0, [Mat.zeros(a.field, 0, 0)] * a.dim)


class ModuleMap:
    """A homomorphism as a source.dim x target.dim matrix (v -> v @ matrix)."""

    def __init__(self, source: FDModule, target: FDModule, matrix: Mat, check=True):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.shape != (source.dim, target.dim):
            raise ModuleError(
                f"map matrix shape {matrix.shape}, expected {(source.dim, target.dim)}"
            )
        if check and not self.intertwines():
            raise ModuleError("matrix does not intertwine the actions")

    def intertwines(self) -> bool:
        s, t, n = self.source.dim, self.target.dim, self.source.algebra.dim
        # entry [l, 0] is f T_l, to compare with S_l f
        after = _images(self.target, self.matrix).array().reshape(s, n, 1, t)
        after = after.transpose(1, 2, 0, 3)
        return _first_unequal_product(self.source.action, [self.matrix], after) is None

    def __call__(self, v: Mat) -> Mat:
        return v @ self.matrix

    def then(self, other: "ModuleMap") -> "ModuleMap":
        if other.source != self.target:
            raise ModuleError("composition source/target mismatch")
        return ModuleMap(self.source, other.target, self.matrix @ other.matrix, check=False)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, ModuleMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"ModuleMap({self.source.dim} -> {self.target.dim})"


def identity_map(m: FDModule) -> ModuleMap:
    return ModuleMap(m, m, Mat.identity(m.field, m.dim), check=False)


def zero_map(m: FDModule, n: FDModule) -> ModuleMap:
    return ModuleMap(m, n, Mat.zeros(m.field, m.dim, n.dim), check=False)


def hom_space(m: FDModule, n: FDModule):
    """k-basis of Hom(m, n) in canonical echelon order, by spinning.

    A map f is fixed by the images y_i = g_i f of generators g_1..g_r of m,
    and those images may be chosen freely subject to the relations among
    the spun vectors g_i a_l (a_l the algebra's basis, M_l and N_l its
    action matrices on m and n).  m and n must be modules (see
    validate_module).  Four eliminations, of which steps 1 and 2 depend
    on m alone and are made once per module object (m.presentation, see
    _spin_presentation), so later calls out of the same m make two, and
    over GF(2) and GF(3) no product between them:

    1. Greedy generators: the basis vector e_j is one iff its row is
       independent of the rows before it in the stack of the rows
       [e_j, e_j M_0, ..., e_j M_{dim A - 1}] over all j, that is iff it
       is not in the submodule generated by e_0, ..., e_{j-1}.
    2. G has the rows g_i M_l, indexed (l, i); they span m.  One
       elimination of [G | I] gives the relations K (K G = 0, in rref)
       and a left inverse X (X G = I).
    3. f = X Y, where Y has the rows y_i N_l, is a homomorphism iff
       K Y = 0.  With W = [K; X] cut into blocks W_l of r columns, one
       product sum_l W_l^T kron N_l gives [Phi | L]: Phi is the
       (r*t) x (nrel*t) system y Phi = 0 on y = (y_1, ..., y_r), and y L
       is f flattened row-major.
    4. The basis returned is the rref of the images y L of the y with
       y Phi = 0: Mat.kernel_image of [Phi | L].  Over GF(2) and GF(3)
       that is one forward pass over the rows of [Phi | L] and one rref
       of the y L it leaves; otherwise a left kernel of Phi (not in
       rref), the product y L and its rref.

    With s = dim m, t = dim n and nrel = r*dim A - s relations, the
    largest system is Phi, against the (s*t) x (s*t*dim A) system of
    the Kronecker formulation.
    """
    if m.algebra != n.algebra:
        raise ModuleError("hom_space needs modules over the same algebra")
    if m.dim == 0 or n.dim == 0:
        return []
    phi_l, nrel = _hom_system(m, n)
    return _maps(m, n, phi_l.kernel_image(nrel * n.dim))


def _spin_presentation(m: FDModule):
    """Steps 1 and 2 of hom_space, which depend on m alone: (W, nrel).

    W = [K; X] is (nrel + s) x (r * dim A), the nrel relations K over the
    s = dim m rows of the left inverse X.  Read it through m.presentation,
    which keeps it with m.  Raises ModuleError when the spun generators
    do not span m, which a module's always do.
    """
    s, field, na = m.dim, m.field, m.algebra.dim
    # 1. rows (j, l) of the stack: e_j for l = 0, then e_j M_0, ...
    stack = Mat.hstack([Mat.identity(field, s)] + m.action).reshape(s * (na + 1), s)
    gens = [c // (na + 1) for c in stack.independent_rows() if c % (na + 1) == 0]
    r = len(gens)
    # 2. rref [G | I] = [[I, X], [0, K]], as G has rank s, its width
    g = Mat.vstack([act.take_rows(gens) for act in m.action])
    red, piv = Mat.hstack([g, Mat.identity(field, na * r)]).rref()
    if piv[:s] != list(range(s)):
        raise ModuleError("hom_space: the spun generators do not span the source; is it a module?")
    nrel = na * r - s
    w = red.take_rows(list(range(s, na * r)) + list(range(s))).take_columns(range(s, s + na * r))
    return w, nrel


def _hom_system(m: FDModule, n: FDModule, at: Mat | None = None):
    """Step 3 of hom_space on m's presentation: the system [Phi | L] and nrel.

    Steps 1 and 2 are read from m.presentation, made once per module
    object; only the product against n's actions is made per call.  With
    at, whose rows v_1..v_k are vectors of m, L is replaced by E: column
    (j, u) of y E is coordinate u of v_j f, so y E = (v_1 f, ..., v_k f).
    The zero module m gives a system with no rows.
    """
    w, nrel = m.presentation
    if at is not None:
        # v_j f = v_j X Y, so the rows at X stand in for X
        w = Mat.vstack([w.take_rows(range(nrel)), at @ w.take_rows(range(nrel, nrel + m.dim))])
    # 3. W^T stacks the blocks W_l^T, and W_l^T kron N_l has rows (i, c) and
    # columns (k, u): entry W[k, (l, i)] N_l[c, u]
    return w.transpose().kron_sum(Mat.vstack(n.action), m.algebra.dim), nrel


def _maps(m: FDModule, n: FDModule, flat: Mat):
    """The maps m -> n whose matrices are the rows of flat, each flattened row-major."""
    return [
        ModuleMap(m, n, Mat._of(m.field, a), check=False)
        for a in flat.array().reshape(flat.rows, m.dim, n.dim)
    ]


def _flat_span(field, amb: int, mats) -> Subspace:
    """Span of matrices with amb entries each, flattened row-major into k^amb."""
    mats = list(mats)
    return Subspace.from_vectors(field, amb, Mat.flat_stack(mats) if mats else [])


def maps_subspace(maps, source: FDModule, target: FDModule) -> Subspace:
    """Flattened span of a family of maps inside Hom(source, target)."""
    return _flat_span(source.field, source.dim * target.dim, [f.matrix for f in maps])


# ---------------------------------------------------------------------------
# Constructions.
# ---------------------------------------------------------------------------


def direct_sum(m: FDModule, n: FDModule):
    """Block sum with inclusion and projection maps: (sum, i1, i2, p1, p2)."""
    total, (i1, i2), (p1, p2) = direct_sum_many([m, n])
    return total, i1, i2, p1, p2


def direct_sum_many(mods, algebra=None):
    """Block-diagonal direct sum; returns (module, inclusions, projections).

    One (dim A, d, d) array holds every action, with summand k on the
    coordinates lo_k..hi_k; its inclusion is those rows of the identity
    and its projection those columns.
    """
    if algebra is None:
        if not mods:
            raise ModuleError("empty direct sum needs the algebra")
        algebra = mods[0].algebra
    if any(m.algebra != algebra for m in mods):
        raise ModuleError("direct sum over different algebras")
    field = algebra.field
    bounds = list(itertools.accumulate([m.dim for m in mods], initial=0))
    spans = [range(lo, hi) for lo, hi in itertools.pairwise(bounds)]
    d = bounds[-1]
    blocks = np.full((algebra.dim, d, d), field.zero(), dtype=field.dtype)
    for m, r in zip(mods, spans):
        for block, act in zip(blocks, m.action):
            block[r.start : r.stop, r.start : r.stop] = act.array()
    total = FDModule(algebra, d, [Mat.of_array(field, block) for block in blocks])
    ident = Mat.identity(field, d)
    incls = [ModuleMap(m, total, ident.take_rows(r), check=False) for m, r in zip(mods, spans)]
    projs = [ModuleMap(total, m, ident.take_columns(r), check=False) for m, r in zip(mods, spans)]
    return total, incls, projs


def _images(m: FDModule, rows: Mat) -> Mat:
    """The images of the rows under the algebra's basis, from one product.

    Row (i, l), that is row i * dim A + l, is rows[i] a_l.
    """
    return (rows @ Mat.hstack(m.action)).reshape(rows.rows * m.algebra.dim, m.dim)


def _by_label(rows: Mat, n: int):
    """Rows indexed (i, l), l < n, regrouped as one matrix per label l."""
    return [rows.take_rows(range(l, rows.rows, n)) for l in range(n)]


def submodule_generated(m: FDModule, vectors) -> Subspace:
    """The submodule vA generated by the vectors v: the row space of the v a_l.

    a_0, ..., a_{dim A - 1} is the algebra's basis.  The span of the
    v a_l contains v = v 1 and is closed, as (v a) b = v (ab), so one
    elimination gives it.  m must be a module (see validate_module).
    """
    rows = [m.element(v) for v in vectors]
    if not rows:
        return Subspace.zero(m.field, m.dim)
    return Subspace.from_vectors(m.field, m.dim, _images(m, Mat.vstack(rows)))


def _invariant_images(m: FDModule, u: Subspace, message: str) -> Mat:
    """The images of u's basis (see _images), raising when one leaves u.

    The witness is the first escaping image, rows before labels: the
    message is formatted with the basis row and the label.
    """
    images = _images(m, u.basis)
    escapes = np.flatnonzero((u.reduce(images).array() != 0).any(axis=1))
    if escapes.size:
        i, l = divmod(int(escapes[0]), m.algebra.dim)
        raise ModuleError(message.format(u.basis.row(i).to_rows()[0], m.algebra.labels[l]))
    return images


def submodule_module(m: FDModule, u: Subspace):
    """The submodule on an invariant subspace, with its inclusion.

    u's basis is in rref, so a vector v of u is v[:, pivots] @ basis: the
    actions are the pivot columns of the basis images.
    """
    images = _invariant_images(m, u, "subspace not action-invariant: vector {} under {}")
    s = FDModule(m.algebra, u.dim, _by_label(images.take_columns(u.pivots), m.algebra.dim))
    return s, ModuleMap(s, m, u.basis, check=False)


def quotient_module(m: FDModule, u: Subspace):
    """The quotient by an invariant subspace, with the projection map.

    Its basis is the classes of the e_j, j not a pivot of u; e_j a_l is
    row j of a_l's matrix.
    """
    _invariant_images(m, u, "cannot quotient by non-invariant subspace: vector {} escapes under {}")
    nonpiv = u.nonpivot_columns()
    proj = u.reduce(Mat.identity(m.field, m.dim)).take_columns(nonpiv)
    rows = Mat.hstack(m.action).take_rows(nonpiv).reshape(len(nonpiv) * m.algebra.dim, m.dim)
    q = FDModule(m.algebra, len(nonpiv), _by_label(rows @ proj, m.algebra.dim))
    return q, ModuleMap(m, q, proj, check=False)


def free_module(a: Algebra, r: int):
    """A^r with its r free generators."""
    reg = regular_module(a)
    total, incls, _ = direct_sum_many([reg] * r, algebra=a)
    gens = [incls[i](a.one) for i in range(r)]
    return total, gens


def fp_module(a: Algebra, h):
    """Finitely presented module A^d / <columns of h>.

    h is a d x e matrix of AlgebraElements (list of rows).  Returns the
    quotient, the images of the d free generators, and the projection.
    """
    d = len(h)
    e = len(h[0]) if d else 0
    free, gens = free_module(a, d)
    rels = [Mat.hstack([h[i][j].coeffs for i in range(d)]) for j in range(e)]
    q, proj = quotient_module(free, submodule_generated(free, rels))
    return q, [proj(g) for g in gens], proj


# ---------------------------------------------------------------------------
# Bimodules and tensor products.
# ---------------------------------------------------------------------------


class Bimodule:
    """An (S, R)-bimodule with commuting actions and a right generating tuple.

    left_action[i] is the matrix of v -> basis_i(S) * v, right_action[j]
    of v -> v * basis_j(R), both on row vectors.  The generating tuple
    must generate the underlying right R-module.
    """

    def __init__(self, left_algebra: Algebra, right_algebra: Algebra, dim: int,
                 left_action, right_action, generators):
        self.S = left_algebra
        self.R = right_algebra
        self.dim = dim
        self.left_action = list(left_action)
        self.right_action = list(right_action)
        self.generators = [g if isinstance(g, Mat) else Mat.from_rows(self.field, [list(g)]) for g in generators]
        self._validate()

    @property
    def field(self):
        return self.R.field

    def right_module(self) -> FDModule:
        return FDModule(self.R, self.dim, self.right_action)

    def left_mult(self, s) -> Mat:
        """Matrix of left multiplication by an S-element."""
        coeffs = s.coeffs if isinstance(s, AlgebraElement) else s
        return (coeffs @ Mat.flat_stack(self.left_action)).reshape(self.dim, self.dim)

    def _validate(self):
        if self.S.field != self.R.field:
            raise ModuleError("bimodule needs a common base field")
        rep = validate_module(self.right_module())
        if not rep.ok:
            raise ModuleError(f"right action invalid: {rep.problems[0]}")
        if self.left_mult(self.S.one) != Mat.identity(self.field, self.dim):
            raise ModuleError("left action: unit does not act as identity")
        # b_i (b_j v) = (b_i b_j) v reads L_j L_i = L_ij: the transposes are a right action
        transposed = FDModule(self.S, self.dim, [act.transpose() for act in self.left_action])
        rep = validate_module(transposed)
        if not rep.ok:
            raise ModuleError(f"left {rep.problems[0]}")
        d, ns, nr = self.dim, self.S.dim, self.R.dim
        # entry [i, j] is R_j L_i, to compare with L_i R_j
        rl = (Mat.vstack(self.right_action) @ Mat.hstack(self.left_action)).array()
        bad = _first_unequal_product(
            self.left_action, self.right_action, rl.reshape(nr, d, ns, d).transpose(2, 0, 1, 3)
        )
        if bad is not None:
            i, j = bad
            raise ModuleError(
                f"actions do not commute on ({self.S.labels[i]}, {self.R.labels[j]})"
            )
        closure = submodule_generated(self.right_module(), self.generators)
        if closure.dim != self.dim:
            raise ModuleError("generating tuple does not generate the right module")

    def __eq__(self, other):
        return (
            isinstance(other, Bimodule)
            and self.S == other.S
            and self.R == other.R
            and self.dim == other.dim
            and self.left_action == other.left_action
            and self.right_action == other.right_action
            and self.generators == other.generators
        )

    def __repr__(self):
        return f"Bimodule(dim {self.dim}, left {self.S!r}, right {self.R!r})"


class TensorResult:
    """M tensor_S B as a right R-module, with the canonical bilinear map."""

    def __init__(self, module: FDModule, source: FDModule, bimodule: Bimodule,
                 relations: Subspace, proj: ModuleMap):
        self.module = module
        self.source = source
        self.bimodule = bimodule
        self.relations = relations
        self._proj = proj

    def pure_tensor(self, m_vec: Mat, b_vec: Mat) -> Mat:
        """Class of m tensor b in the quotient."""
        return self._proj(m_vec.kron(b_vec))


def tensor_over(m: FDModule, b: Bimodule) -> TensorResult:
    """(m tensor_k B) / (ms tensor b - m tensor sb), right R-action descended."""
    if m.algebra != b.S:
        raise ModuleError("tensor_over needs a right module over the bimodule's left algebra")
    field = b.field
    dm, db = m.dim, b.dim
    amb_dim = dm * db
    # ambient: m tensor_k B with R acting on the B side
    i_m = Mat.identity(field, dm)
    ambient = FDModule(b.R, amb_dim, [i_m.kron(act) for act in b.right_action]) if amb_dim else zero_module(b.R)
    # row (i, j) of block s is e_i*s tensor f_j - e_i tensor s*f_j
    i_b = Mat.identity(field, db)
    blocks = [ms.kron(i_b) - i_m.kron(sb) for ms, sb in zip(m.action, b.left_action)]
    u = Subspace.from_vectors(field, amb_dim, Mat.vstack(blocks))
    # quotient_module checks that the relations are R-invariant
    q, proj = quotient_module(ambient, u)
    return TensorResult(q, m, b, u, proj)


def tensor_hom(f: ModuleMap, b: Bimodule, t_source: TensorResult, t_target: TensorResult) -> ModuleMap:
    """The induced map f tensor id_B between the tensor quotients."""
    # the source quotient's basis is the classes of the non-pivot unit vectors
    big = f.matrix.kron(Mat.identity(b.field, b.dim))
    mat = t_target._proj(big.take_rows(t_source.relations.nonpivot_columns()))
    return ModuleMap(t_source.module, t_target.module, mat)


# ---------------------------------------------------------------------------
# Summands, indecomposability, radicals.
# ---------------------------------------------------------------------------


def is_direct_summand(n: FDModule, m: FDModule):
    """Trace-ideal summand test for indecomposable n.

    True iff id_n lies in the span of {g o f}; on success returns split
    maps (f, g) with f then g the identity of n.  Hom(m, n) is built only
    when Hom(n, m) is not 0: otherwise there is no composite, so the span
    is 0 and the answer is (False, None).
    """
    if n.dim == 0:
        return True, (zero_map(n, m), zero_map(m, n))
    fs = hom_space(n, m)
    if not fs:
        return False, None
    gs = hom_space(m, n)
    comps = []
    for f in fs:
        for g in gs:
            comp = f.matrix @ g.matrix
            if comp.is_invertible():
                corrected = ModuleMap(m, n, g.matrix @ comp.inverse(), check=False)
                return True, (f, corrected)
            comps.append(comp)
    # no unit composite: for indecomposable n the identity cannot be in the
    # span either (End n is local); verify to catch precondition violations
    amb = n.dim * n.dim
    span = _flat_span(n.field, amb, comps)
    if span.contains_vector(Mat.identity(n.field, n.dim).reshape(1, amb)):
        raise ModuleError("is_direct_summand: first argument is not indecomposable")
    return False, None


class IndecResult:
    """Outcome of the indecomposability search, with what the search spent.

    tried counts the Fitting candidates tried, enumerated the End elements
    the exhaustive idempotent enumeration tested.
    """

    def __init__(
        self, status: str, witness=None, certificate: str = "", tried: int = 0, enumerated: int = 0
    ):
        if status not in ("decomposed", "indecomposable", "probably-indecomposable"):
            raise ValueError(status)
        self.status = status
        self.witness = witness  # idempotent ModuleMap when decomposed
        self.certificate = certificate
        self.tried = tried
        self.enumerated = enumerated

    def __repr__(self):
        return f"IndecResult({self.status}{': ' + self.certificate if self.certificate else ''})"


def _kernel_and_image(f: Mat):
    """The left kernel and the image (row space) of a square f, from one rref of [f | I].

    The rref is [[R, T], [0, K]], R the rows with a pivot in f's columns.
    It is [T; K] [f | I] with [T; K] invertible, so R is the rref of f
    and K's rows, as many as f's nullity, span the left kernel; K is
    reduced at its own pivots, so it is the kernel's rref.  Returns
    (kernel, image) as Subspaces.
    """
    field, n = f.field, f.rows
    red, piv = Mat.hstack([f, Mat.identity(field, n)]).rref()
    rank = bisect_left(piv, n)
    img = Subspace(field, n, red.take_rows(range(rank)).take_columns(range(n)), piv[:rank])
    ker_basis = red.take_rows(range(rank, n)).take_columns(range(n, 2 * n))
    return Subspace(field, n, ker_basis, [c - n for c in piv[rank:]]), img


def _fitting_split(m: FDModule, f_mat: Mat):
    """Kernel/image splitting from a high power of an endomorphism.

    The kernel and the image of the power have dimensions adding up to
    dim m, so [ker; img] is invertible iff they meet in 0; its solve
    decides that and gives the basis change at once.
    """
    k = 1
    while (1 << k) < max(m.dim, 1):
        k += 1
    ker, img = _kernel_and_image(f_mat.power(1 << k))
    if ker.dim == 0 or img.dim == 0:
        return None
    tinv = Mat.vstack([ker.basis, img.basis]).solve_left(Mat.identity(m.field, m.dim))
    if tinv is None:
        return None
    # in the basis [ker; img] the projection keeps the img coordinates
    e = tinv.take_columns(range(ker.dim, m.dim)) @ img.basis
    return ModuleMap(m, m, e)  # projection onto the image along the kernel


# Polynomials over GF(p) are lists of coefficients, lowest degree first,
# with no trailing zero; the zero polynomial is [].


def _poly_trim(a, p):
    a = [x % p for x in a]
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a, m, p):
    """Quotient and remainder of a by the monic m."""
    r, dm = _poly_trim(a, p), len(m) - 1
    q = [0] * max(len(r) - dm, 0)
    for i in range(len(q) - 1, -1, -1):
        c = r[i + dm]
        if c:
            q[i] = c
            for j, mj in enumerate(m):
                r[i + j] = (r[i + j] - c * mj) % p
    return _poly_trim(q, p), _poly_trim(r[:dm], p)


def _poly_monic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [x * inv % p for x in a]


def _poly_gcd(a, b, p):
    """The monic gcd of a and b, not both zero."""
    a, b = _poly_trim(a, p), _poly_trim(b, p)
    while b:
        b = _poly_monic(b, p)
        a, b = b, _poly_divmod(a, b, p)[1]
    return _poly_monic(a, p)


def _poly_sub(a, b, p):
    return _poly_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)], p)


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out, p)


def _poly_powmod(a, k, m, p):
    """a^k modulo the monic m."""
    out, a = [1], _poly_divmod(a, m, p)[1]
    while k:
        if k & 1:
            out = _poly_divmod(_poly_mul(out, a, p), m, p)[1]
        a = _poly_divmod(_poly_mul(a, a, p), m, p)[1]
        k >>= 1
    return out


def _roots_mod_p(poly, p):
    """The distinct roots in GF(p) of a nonzero polynomial, in ascending order.

    The gcd with x^p - x keeps one linear factor per root, and Cantor and
    Zassenhaus's equal-degree split (Math. Comp. 36, 1981) separates them.
    """
    poly = _poly_monic(_poly_trim(poly, p), p)
    if p < len(poly):  # p <= degree: trying every point is cheaper, and p = 2 cannot split
        return [a for a in range(p) if sum(c * pow(a, i, p) for i, c in enumerate(poly)) % p == 0]
    g = _poly_gcd(poly, _poly_sub(_poly_powmod([0, 1], p, poly, p), [0, 1], p), p)
    pending, roots = ([g] if len(g) > 1 else []), []
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        # 2 <= deg g < p, so p is odd; two roots r != s are separated by
        # some shift a with (r + a)^((p-1)/2) != (s + a)^((p-1)/2), so the
        # search ends before a = p
        for a in itertools.count():
            h = _poly_gcd(g, _poly_sub(_poly_powmod([a, 1], (p - 1) // 2, g, p), [1], p), p)
            if 1 < len(h) < len(g):
                pending += [h, _poly_divmod(g, h, p)[0]]
                break
    return sorted(roots)


def _krylov_minpoly(f: Mat, v: Mat):
    """The monic minimal polynomial of the row vector v under f, lowest degree first.

    The first d vectors v, vf, vf^2, ... are independent, where d is the
    rank of all dim + 1 of them, and vf^d is their combination.
    """
    field = f.field
    if v.is_zero():
        return [field.one()]
    krylov = [v]
    for _ in range(f.rows):
        krylov.append(krylov[-1] @ f)
    krylov = Mat.vstack(krylov)
    d = krylov.rank()
    c = krylov.take_rows(range(d)).solve_left(krylov.row(d))
    return [field.neg(x) for x in c.to_rows()[0]] + [field.one()]


# Enumerate GF(p)^k in blocks of about this many entries.
_ENUM_BLOCK_ENTRIES = 1 << 16


def _digits(start: int, stop: int, base: int, width: int) -> np.ndarray:
    """The base-`base` digits of start..stop-1, one row each, digit 0 first.

    Repeated division keeps every value below stop; a weights vector
    base**i would overflow int64 once base**(width - 1) >= 2**63.
    """
    idx = np.arange(start, stop, dtype=np.int64)
    out = np.empty((stop - start, width), dtype=np.int64)
    for k in range(width):
        out[:, k] = idx % base
        idx //= base
    return out


def _enumerate_idempotent(m: FDModule, flat: Mat):
    """The first nontrivial idempotent sum c_i f_i, and how many elements were tested.

    flat holds the End basis f_i as rows of dim^2 entries.  The
    coefficient vectors c run in counter order, c_0 fastest; each block is
    one product with flat and one batched square.  Returns (Mat or None,
    count); with no idempotent the count is p^dim End.
    """
    field, n, e = m.field, m.dim, flat.rows
    p, total = field.p, field.p**e
    ident = np.eye(n, dtype=np.int64)
    step = max(1, _ENUM_BLOCK_ENTRIES // (n * n))
    for start in range(0, total, step):
        digits = _digits(start, min(start + step, total), p, e)
        x = (Mat.of_array(field, digits) @ flat).array().reshape(-1, n, n)
        hits = (
            (_product(field, x, x) == x).all(axis=(1, 2))
            & x.any(axis=(1, 2))
            & (x != ident).any(axis=(1, 2))
        ).nonzero()[0]
        if hits.size:
            return Mat.of_array(field, x[hits[0]]), start + int(hits[0]) + 1
    return None, total


def indecomposability(m: FDModule, seed: int, budget: int = 1 << 17) -> IndecResult:
    """Fitting search plus exact certification where affordable.

    The search runs in this order, after the method of Lux and Szőke
    (Exp. Math. 16, 2007):

    1. dim End = 1: certified indecomposable.
    2. Each End basis element as a Fitting candidate.
    3. Over GF(p) with p^dim End within the budget: the exhaustive
       idempotent enumeration decides, decomposed or certified.
    4. Otherwise 40 seeded random End elements as Fitting candidates.
       Over GF(p) each one f that does not split is followed by f - l for
       every nonzero root l in GF(p) of the minimal polynomial of a seeded
       random vector under f: an eigenvalue, so f - l is singular and
       splits unless f - l is nilpotent.
    5. probably-indecomposable.

    "decomposed" always carries an idempotent; "indecomposable" is
    claimed only by steps 1 and 3.
    """
    if m.dim == 0:
        raise ModuleError("indecomposability of the zero module")
    end = hom_space(m, m)
    e = len(end)
    if e == 1:
        return IndecResult("indecomposable", certificate="dim End = 1")
    field, n = m.field, m.dim
    tried = 0
    for f in end:
        tried += 1
        split = _fitting_split(m, f.matrix)
        if split is not None:
            return IndecResult("decomposed", witness=split, tried=tried)
    flat = Mat.flat_stack(f.matrix for f in end)
    if field.is_prime_field and field.p**e <= budget:
        idem, count = _enumerate_idempotent(m, flat)
        if idem is not None:
            witness = ModuleMap(m, m, idem)
            return IndecResult("decomposed", witness=witness, tried=tried, enumerated=count)
        return IndecResult(
            "indecomposable",
            certificate=f"no nontrivial idempotent among {field.p}^{e} End elements",
            tried=tried,
            enumerated=count,
        )

    rng = random.Random(seed)
    draw = partial(rng.randrange, field.p) if field.is_prime_field else partial(rng.randint, -3, 3)
    vectors = random.Random(f"eigenvalue shifts {seed}")
    ident = Mat.identity(field, n)

    def random_candidates():  # built lazily: the search usually stops at the first
        for _ in range(40):
            f = (Mat.of_array(field, [[draw() for _ in range(e)]]) @ flat).reshape(n, n)
            yield f
            if field.is_prime_field:
                v = Mat.of_array(field, [[vectors.randrange(field.p) for _ in range(n)]])
                for lam in _roots_mod_p(_krylov_minpoly(f, v), field.p):
                    if lam:
                        yield f - ident.scale(lam)

    for mat in random_candidates():
        tried += 1
        split = _fitting_split(m, mat)
        if split is not None:
            return IndecResult("decomposed", witness=split, tried=tried)
    return IndecResult("probably-indecomposable", tried=tried)


def _split(m: FDModule, seed: int):
    """Split m by the indecomposability search until no piece splits.

    Returns a list of (summand, inclusion, projection, IndecResult), each
    result certified or probably indecomposable.
    """
    res = indecomposability(m, seed)
    if res.status != "decomposed":
        return [(m, identity_map(m), identity_map(m), res)]
    ker, img = _kernel_and_image(res.witness.matrix)
    tinv = Mat.vstack([ker.basis, img.basis]).inverse()
    out = []
    for offset, space in ((0, ker), (ker.dim, img)):
        sub, incl = submodule_module(m, space)
        proj = ModuleMap(m, sub, tinv.take_columns(range(offset, offset + space.dim)), check=False)
        for piece, pi, pp, r in _split(sub, seed):
            out.append((piece, pi.then(incl), proj.then(pp), r))
    return out


def decompose(m: FDModule, seed: int):
    """Full decomposition into certified indecomposables.

    Returns a list of (summand, inclusion, projection); raises when a
    piece cannot be certified within indecomposability's default budget.
    """
    pieces = _split(m, seed) if m.dim else []
    if any(res.status != "indecomposable" for *_, res in pieces):
        raise ModuleError("cannot certify a summand as indecomposable within budget")
    return [piece[:3] for piece in pieces]


def _first_iso(m: FDModule, n: FDModule, maps=None):
    """The first invertible map of maps = hom_space(m, n), or None.

    For m or n indecomposable this decides m = n: the maps that are not
    invertible then form a proper subspace, rad End(m) theta for any
    isomorphism theta.
    """
    if m.dim != n.dim:
        return None
    maps = hom_space(m, n) if maps is None else maps
    return next((f for f in maps if f.matrix.is_invertible()), None)


def iso_test(m: FDModule, n: FDModule, seed: int = 0, indec: IndecResult = None):
    """An isomorphism m -> n as a ModuleMap, or None when there is none.

    indec is m's IndecResult when the caller already has it.  When m or n
    is certified indecomposable (m is tried first) the witness is the
    first invertible map of hom_space(m, n); for m decomposed, the
    summands of both sides are matched pairwise in the same way and the
    witness is the sum of the matches.
    """
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return zero_map(m, n)
    if indec is None:
        indec = indecomposability(m, seed)
    if indec.status != "decomposed":
        certified = indec.status == "indecomposable"
        if not certified and indecomposability(n, seed).status != "indecomposable":
            raise ModuleError(
                "iso_test: could not certify either module indecomposable within the budget"
            )
        return _first_iso(m, n)
    rest = _split(n, seed)
    witness = Mat.zeros(m.field, m.dim, n.dim)
    for piece, _, proj, res in _split(m, seed):
        for k, (q, incl, _, _) in enumerate(rest):
            theta = _first_iso(piece, q)
            if theta is not None:
                witness = witness + proj.matrix @ theta.matrix @ incl.matrix
                del rest[k]
                break
        else:
            # matched summands cancel (Krull-Schmidt), so an indecomposable
            # piece of m must be a summand of a piece of n still in rest
            if res.status == "indecomposable" and not any(
                is_direct_summand(piece, q)[0] for q, *_ in rest if q.dim > piece.dim
            ):
                return None
            raise ModuleError(
                "iso_test: could not match a summand or certify it indecomposable"
                " within the budget"
            )
    return ModuleMap(m, n, witness, check=False)


def rad_end(x: FDModule):
    """Basis of rad End(x) via the trace form, with a nilpotency check.

    Requires characteristic 0 or p > dim End(x); the computed kernel is
    verified to be a nilpotent ideal, which pins it to the radical.
    """
    end = hom_space(x, x)
    e = len(end)
    if e <= 1:
        return []
    field = x.field
    if field.is_prime_field and field.p <= e:
        raise UnsupportedCharacteristicError(
            f"trace-form radical needs char 0 or p > dim End = {e}, "
            f"got p = {field.p}"
        )
    # tr(f_i f_j) = vec(f_i) . vec(f_j^T)
    flat = Mat.flat_stack(f.matrix for f in end)
    gram = flat @ Mat.flat_stack(f.matrix.transpose() for f in end).transpose()
    rad_flat = gram.kernel() @ flat
    rad = _maps(x, x, rad_flat)
    # verify nilpotency: the trace-form kernel is a two-sided ideal, and a
    # nilpotent ideal is contained in the radical, forcing equality
    amb = x.dim * x.dim
    base = [f.matrix for f in rad]
    power = Subspace.from_vectors(field, amb, rad_flat)
    for _ in range(e + 1):
        if power.dim == 0:
            return rad
        prods = [f.matrix @ bmat for f in _maps(x, x, power.basis) for bmat in base]
        power = _flat_span(field, amb, prods)
    raise UnsupportedCharacteristicError(
        "trace form is degenerate at this characteristic (kernel not nilpotent)"
    )


def rad_hom(m: FDModule, n: FDModule, seed: int = 0, decomp_m=None, decomp_n=None):
    """Basis of rad Hom(m, n), computed blockwise on indecomposables."""
    if m.dim == 0 or n.dim == 0:
        return []
    dm = decomp_m if decomp_m is not None else decompose(m, seed)
    dn = decomp_n if decomp_n is not None else decompose(n, seed)
    field = m.field
    collected = []
    for x, _, px in dm:
        for y, iy, _ in dn:
            hom = hom_space(x, y)
            theta = _first_iso(x, y, hom)
            if theta is not None:
                block = [r.matrix @ theta.matrix for r in rad_end(x)]
            else:
                block = [f.matrix for f in hom]
            for bmat in block:
                collected.append(px.matrix @ bmat @ iy.matrix)
    return _maps(m, n, _flat_span(field, m.dim * n.dim, collected).basis)
