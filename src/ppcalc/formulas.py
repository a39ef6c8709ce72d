"""Positive primitive formulas over a finite-dimensional algebra.

A pp formula in n free variables is  exists y_1..y_c : (x, y) A = 0
for an (n+c) x e matrix A over the algebra.  Solution sets are
subspaces preserved by all module homomorphisms; the ordering is
implication, decided exactly through free realisations.
"""

from __future__ import annotations

from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .algebra import Algebra, AlgebraElement
from .linalg import Mat, Subspace, _product, _zeros
from .modules import (
    FDModule,
    _hom_system,
    _side_by_side,
    direct_sum,
    fp_module,
    free_module,
    quotient_module,
    submodule_generated,
    zero_module,
)

__all__ = [
    "PpFormula",
    "PpPair",
    "FreeRealisation",
    "FormulaError",
    "top_formula",
    "zero_formula",
    "assemble",
    "eval_formula",
    "conj",
    "sum_formula",
    "free_realisation",
    "pp_type_generator",
    "implies",
    "equivalent",
    "pair_implies",
    "pair_equivalent",
    "meet_and_sum_pairs",
    "pair_open",
]


class FormulaError(ValueError):
    pass


class PpFormula:
    """exists y (x y) A = 0, with A stored as one coefficient matrix.

    matrix is a read-only (n+c) x (e * dim A) Mat whose block j of row i
    is the coefficient row of entry (i, j) of A.  coeffs may be such a
    Mat, a dict {(i, j): AlgebraElement} or a dense list of rows.  Columns
    of A that are identically zero (trivial equations) are dropped, the
    rest kept in order.  coeffs, entry and dense are built on demand.

    c and e are the complexity statistics: the number of bound variables
    and the number of equations.  realisation, when given, is a pair
    (module, tuple) fixed as the formula's free realisation: it is stored
    once, as a FreeRealisation, and never changed.
    """

    def __init__(self, algebra: Algebra, n: int, c: int, e: int, coeffs,
                 realisation=None):
        self.algebra = algebra
        self.n = n
        self.c = c
        field, dim, rows = algebra.field, algebra.dim, n + c
        if not isinstance(coeffs, Mat):
            if not hasattr(coeffs, "items"):  # dense list of rows
                coeffs = {(i, j): x for i, row in enumerate(coeffs) for j, x in enumerate(row)}
            a = _zeros(field, rows, e * dim)
            for (i, j), elt in coeffs.items():
                if not (0 <= i < rows and 0 <= j < e):
                    raise FormulaError(f"entry index {(i, j)} out of range")
                a[i, j * dim : (j + 1) * dim] = elt.coeffs.array()[0]
            coeffs = Mat._of(field, a)
        elif coeffs.shape != (rows, e * dim):
            raise FormulaError(f"coefficient matrix shape {coeffs.shape}, expected {(rows, e * dim)}")
        # drop columns that are identically zero (trivial equations); copy only then
        blocks = coeffs.array().reshape(rows, e, dim)
        live = (blocks != 0).any(axis=(0, 2))
        self.e = int(live.sum())
        if self.e < e:
            coeffs = Mat._of(field, blocks[:, live].reshape(rows, self.e * dim))
        self.matrix = coeffs
        if realisation is not None:
            realisation = FreeRealisation(realisation[0], tuple(realisation[1]))
            if len(realisation.tuple) != n:
                raise FormulaError("realisation tuple arity mismatch")
        self._realisation = realisation

    @property
    def realisation(self) -> "FreeRealisation | None":
        """The free realisation fixed at construction, or None."""
        return self._realisation

    def blocks(self):
        """The matrix as an (n+c) x e x dim A array of coefficient rows."""
        return self.matrix.array().reshape(self.n + self.c, self.e, self.algebra.dim)

    def entry(self, i: int, j: int) -> AlgebraElement:
        if not (0 <= i < self.n + self.c and 0 <= j < self.e):
            raise FormulaError(f"entry index {(i, j)} out of range")
        block = self.blocks()[i, j : j + 1]
        return AlgebraElement(self.algebra, Mat._of(self.algebra.field, block))

    def dense(self):
        """Matrix as a dense list of rows of AlgebraElements."""
        return [[self.entry(i, j) for j in range(self.e)] for i in range(self.n + self.c)]

    @property
    def coeffs(self):
        """A read-only {(i, j): AlgebraElement} view of the nonzero entries.

        Built from the matrix on each access, in row-major order.
        """
        cells = zip(*np.nonzero((self.blocks() != 0).any(axis=2)))
        return MappingProxyType({(int(i), int(j)): self.entry(i, j) for i, j in cells})

    def key(self):
        return (self.n, self.c, self.e, self.matrix.key())

    def __eq__(self, other):
        return (
            isinstance(other, PpFormula)
            and self.algebra == other.algebra
            and self.key() == other.key()
        )

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PpFormula(n={self.n}, c={self.c}, e={self.e})"

    def with_realisation(self, module, tup) -> "PpFormula":
        """The same formula with (module, tup) as its free realisation.

        Returns a new formula; self is unchanged.  Nothing checks that the
        formula generates the pp-type of tup in module: implies and beta
        trust it (see FreeRealisation).
        """
        return PpFormula(self.algebra, self.n, self.c, self.e, self.matrix, (module, tup))


class FreeRealisation(NamedTuple):
    """A module C and tuple c whose pp-type a formula generates.

    tuple is a Python tuple of 1 x dim C Mats, so the value is immutable,
    and it is equal and hashed by content (FDModule and Mat are).
    implies trusts the realisations of both of its formulas: psi <= phi
    is read off Hom(C_phi, C_psi), so a tuple whose pp-type is not the
    one phi generates gives wrong answers.
    """

    module: FDModule
    tuple: tuple


def top_formula(algebra: Algebra, n: int) -> PpFormula:
    """x = x: no equations, realised by the free generators of A^n."""
    return PpFormula(algebra, n, 0, 0, Mat.zeros(algebra.field, n, 0), free_module(algebra, n))


def zero_formula(algebra: Algebra, n: int) -> PpFormula:
    """x = 0: one equation per free variable, realised in the zero module."""
    z = zero_module(algebra)
    ident = Mat.identity(algebra.field, n).kron(algebra.one)
    return PpFormula(algebra, n, 0, n, ident, (z, (z.zero_vector(),) * n))


def _formula_matrix(phi: PpFormula, m: FDModule) -> Mat:
    """The k-linear system encoding (x y) A = 0 inside m."""
    d, field = m.dim, m.field
    big = _zeros(field, (phi.n + phi.c) * d, phi.e * d)
    blocks = phi.blocks()
    i, j = np.nonzero((blocks != 0).any(axis=2))
    if i.size:
        coeffs = Mat._of(field, blocks[i, j])
        prods = (coeffs @ m.stack.reshape(m.algebra.dim, d * d)).array().reshape(i.size, d, d)
        # block (i, j) of big is entry [i, :, j, :] of this view
        big.reshape(phi.n + phi.c, d, phi.e, d)[i, :, j, :] = prods
    return Mat._of(field, big)


def eval_formula(phi: PpFormula, m: FDModule) -> Subspace:
    """The solution set phi(m) as a subspace of m^n."""
    if phi.algebra != m.algebra:
        raise FormulaError("formula and module live over different algebras")
    # phi(m) is the left kernel of the system projected to the free variables
    k = phi.n * m.dim
    return Subspace.from_vectors(m.field, k, _formula_matrix(phi, m).projected_kernel(k))


def assemble(algebra: Algebra, n_free: int, n_aux: int, instances, raw=None,
             realisation=None):
    """Build  exists aux, (inner bounds) : /\\ inst_i(slots @ C_i) /\\ raw = 0.

    Slots are n_free + n_aux scalar variables (free ones first).  Each
    instance is (formula, C) where C is a scalar (n_free+n_aux) x inst.n
    matrix substituting slot combinations for the instance's free
    variables; the instance's own bound variables are appended fresh.
    The matrix is filled whole: an instance's slot rows are the product
    C @ (its free rows), and its bound rows are copied in.  raw, when
    given, is an (n_free+n_aux) x (r * dim A) Mat of r extra equation
    columns over the slots alone, laid out as PpFormula.matrix.
    realisation is passed on to the PpFormula constructor.
    """
    n_slots = n_free + n_aux
    field, dim = algebra.field, algebra.dim
    for f, cmat in instances:
        if f.algebra != algebra:
            raise FormulaError("assemble: instance over a different algebra")
        if cmat.shape != (n_slots, f.n):
            raise FormulaError(
                f"assemble: substitution matrix shape {cmat.shape},"
                f" expected {(n_slots, f.n)}"
            )
    if raw is None:
        raw = Mat.zeros(field, n_slots, 0)
    if raw.rows != n_slots or raw.cols % dim:
        raise FormulaError(f"assemble: raw columns of shape {raw.shape} over {n_slots} slots")
    inner_c = sum(f.c for f, _ in instances)
    total_e = sum(f.e for f, _ in instances) + raw.cols // dim
    out = _zeros(field, n_slots + inner_c, total_e * dim)
    col, bound = 0, n_slots
    for f, cmat in instances:
        a, width = f.matrix.array(), f.e * dim
        out[:n_slots, col : col + width] = _product(field, cmat.array(), a[: f.n])
        out[bound : bound + f.c, col : col + width] = a[f.n :]
        col += width
        bound += f.c
    out[:n_slots, col:] = raw.array()
    return PpFormula(algebra, n_free, n_aux + inner_c, total_e, Mat._of(field, out), realisation)


def _subst_blocks(field, n_blocks: int, m: int, *cols) -> Mat:
    """B kron I_m: a substitution for assemble that counts slots in m-blocks.

    Slot block i is slots i*m .. i*m + m - 1 and variable block j is the
    instance's variables j*m .. j*m + m - 1.  B is the scalar n_blocks x
    len(cols) matrix whose column j is cols[j]: a block index, selecting
    that block, or a {block: coefficient} dict, a combination of blocks.
    """
    b = _zeros(field, n_blocks, len(cols))
    for j, col in enumerate(cols):
        for i, coeff in (col.items() if isinstance(col, dict) else [(col, 1)]):
            b[i, j] = field.coerce(coeff)
    return Mat._of(field, b).kron(Mat.identity(field, m))


def _summed(a: FreeRealisation, b: FreeRealisation):
    """The direct sum of two realisations' modules, with both tuples carried in.

    a and b have equal arity.  Returns (total, left, right): the sum and
    the images of a's and b's tuples in it.
    """
    total, i1, i2, _, _ = direct_sum(a.module, b.module)
    return total, [i1(x) for x in a.tuple], [i2(y) for y in b.tuple]


def _pushout(total, left, right) -> FreeRealisation:
    """The meet's free realisation: total modulo the submodule generated by
    the differences left_i - right_i, with the classes of left as the tuple."""
    q, proj = quotient_module(total, submodule_generated(total, [x - y for x, y in zip(left, right)]))
    return FreeRealisation(q, tuple(proj(x) for x in left))


def _added(total, left, right) -> FreeRealisation:
    """The sum's free realisation: total with the tuple left_i + right_i."""
    return FreeRealisation(total, tuple(x + y for x, y in zip(left, right)))


def meet_and_sum_pairs(a: FreeRealisation, b: FreeRealisation):
    """Free realisations of the meet and of the sum of the formulas that
    a and b realise, both from one direct sum.

    The meet's is the pushout of the maps A^n -> C_a and A^n -> C_b that
    send the free generators to the tuples (_pushout); the sum's is
    C_a + C_b with the tuple a_i + b_i (_added).  conj and sum_formula
    attach the same realisations.
    """
    if len(a.tuple) != len(b.tuple):
        raise FormulaError("conj needs equal arities")
    if a.module.algebra != b.module.algebra:
        raise FormulaError("conj needs a common algebra")
    summed = _summed(a, b)
    return _pushout(*summed), _added(*summed)


def conj(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """Conjunction: shared free variables, bound variables kept apart.

    When both inputs carry free realisations, the pushout realisation of
    the meet (_pushout) is attached to the result.
    """
    if phi.n != psi.n:
        raise FormulaError("conj needs equal arities")
    if phi.algebra != psi.algebra:
        raise FormulaError("conj needs a common algebra")
    ident = Mat.identity(phi.algebra.field, phi.n)
    real = None
    if phi.realisation is not None and psi.realisation is not None:
        real = _pushout(*_summed(phi.realisation, psi.realisation))
    return assemble(phi.algebra, phi.n, 0, [(phi, ident), (psi, ident)], realisation=real)


def sum_formula(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """Sum: x = x1 + x2 with phi(x1) and psi(x2).

    When both inputs carry free realisations, the direct sum of theirs
    with the tuples added (_added) is attached to the result.
    """
    if phi.n != psi.n:
        raise FormulaError("sum needs equal arities")
    if phi.algebra != psi.algebra:
        raise FormulaError("sum needs a common algebra")
    real = None
    if phi.realisation is not None and psi.realisation is not None:
        real = _added(*_summed(phi.realisation, psi.realisation))
    # slot blocks x (free) and x1 (aux): phi sees x1, psi sees x - x1
    sub = partial(_subst_blocks, phi.algebra.field, 2, phi.n)
    instances = [(phi, sub(1)), (psi, sub({0: 1, 1: -1}))]
    return assemble(phi.algebra, phi.n, phi.n, instances, realisation=real)


def free_realisation(phi: PpFormula) -> FreeRealisation:
    """A free realisation of phi.

    The realisation fixed when phi was constructed, if it has one;
    otherwise the canonical finitely presented module on n + c generators
    with the formula's columns as relations, built anew on each call.
    phi is not changed: a formula used many times without a realisation
    should be rebuilt once with phi.with_realisation(*free_realisation(phi)).
    """
    if phi.realisation is not None:
        return phi.realisation
    q, gens, _ = fp_module(phi.algebra, phi.dense())
    fr = FreeRealisation(q, tuple(gens[: phi.n]))
    if not eval_formula(phi, q).contains_vector(_flat(q, fr.tuple)):
        raise FormulaError("internal: realisation tuple fails its own formula")
    return fr


def pp_type_generator(m: FDModule, tup) -> PpFormula:
    """A generator of the pp-type of the tuple in m.

    Shape: exists y_1..y_d with x = y G and y H = 0, where y runs over a
    k-basis of m, G expresses the tuple over that basis and the columns
    of H are a k-basis of the linear relation space of the basis tuple.
    For n = 1 this gives c = dim m and d(phi) <= dim m * dim A + 1.
    """
    a, field, d = m.algebra, m.field, m.dim
    tup = [m.element(t) for t in tup]
    n = len(tup)
    # relation space of the spanning tuple (the standard basis of m):
    # rows indexed by (basis index, algebra basis index)
    ker = _side_by_side(m.stack, a.dim).reshape(d * a.dim, d).kernel()
    # row t: x_t in column t; row n + i: -g_ti y_i in column t, where
    # x_t = sum_i g_ti y_i, and in column n + j the coefficients of y_i
    # in relation j
    g = Mat.vstack([Mat.zeros(field, 0, d)] + tup)
    rels = ker.array().reshape(ker.rows, d, a.dim).transpose(1, 0, 2)
    matrix = Mat.vstack([
        Mat.hstack([Mat.identity(field, n).kron(a.one), Mat.zeros(field, n, ker.rows * a.dim)]),
        Mat.hstack([(-g).transpose().kron(a.one), Mat._of(field, rels.reshape(d, ker.rows * a.dim))]),
    ])
    return PpFormula(a, n, d, n + ker.rows, matrix, (m, tup))


def _flat(module: FDModule, tup) -> Mat:
    """The tuple's vectors side by side, as one row."""
    return Mat.hstack(tup) if tup else Mat.zeros(module.field, 1, 0)


def pair_implies(psi: FreeRealisation, phi: FreeRealisation) -> bool:
    """Decide psi <= phi for the formulas free-realised by
    psi = (C_psi, c_psi) and phi = (C_phi, c_phi).

    By the free-realisation criterion, psi <= phi iff some homomorphism
    C_phi -> C_psi sends c_phi to c_psi.  Equal realisations are decided
    at once, the identity map being one.  The cheap fields are compared first:
    the dimensions, then the tuples, then the modules, by identity and
    then by actions (FDModule.__eq__).
    Otherwise the maps are those of hom_space's spinning system [Phi | L],
    with L replaced by the evaluation E at c_phi, so one solve of
    y [Phi | E] = [0 | c_psi] decides.
    """
    (target, c_psi), (source, c_phi) = psi, phi
    if len(c_psi) != len(c_phi):
        raise FormulaError("implies needs equal arities")
    if target.algebra != source.algebra:
        raise FormulaError("implies needs a common algebra")
    if target.dim == source.dim and c_psi == c_phi and target == source:
        return True
    at = _flat(source, c_phi).reshape(len(c_phi), source.dim)
    system, nrel = _hom_system(source, target, at=at)
    rhs = Mat.hstack([Mat.zeros(target.field, 1, nrel * target.dim), _flat(target, c_psi)])
    return system.solve_left(rhs) is not None


def pair_equivalent(a, b) -> bool:
    return pair_implies(a, b) and pair_implies(b, a)


def implies(psi: PpFormula, phi: PpFormula) -> bool:
    """Decide psi <= phi (solution-set inclusion in every module).

    pair_implies on the two formulas' free realisations.  The answer
    trusts the realisations attached to both formulas (see
    PpFormula.with_realisation).
    """
    return pair_implies(free_realisation(psi), free_realisation(phi))


def equivalent(phi: PpFormula, psi: PpFormula) -> bool:
    return implies(phi, psi) and implies(psi, phi)


class PpPair:
    """A pp-pair bottom <= top.

    The inequality is verified through free realisations at construction
    unless justification="conj-with-top" records that bottom was built
    as a conjunction including top, which forces it structurally.
    """

    def __init__(self, top: PpFormula, bottom: PpFormula, justification: str = "verify"):
        if top.n != bottom.n:
            raise FormulaError("pair needs equal arities")
        self.top = top
        self.bottom = bottom
        self.justification = justification
        if justification == "verify":
            if not implies(bottom, top):
                raise FormulaError("pp-pair rejected: bottom does not imply top")
        elif justification != "conj-with-top":
            raise FormulaError(f"unknown pair justification {justification!r}")

    def open_on(self, m: FDModule) -> bool:
        return pair_open(self, m)

    def __repr__(self):
        return f"PpPair({self.top!r} / {self.bottom!r})"


def pair_open(pair: PpPair, m: FDModule) -> bool:
    """True iff top(m) strictly contains bottom(m)."""
    st = eval_formula(pair.top, m)
    sb = eval_formula(pair.bottom, m)
    if not st.contains(sb):
        raise FormulaError("internal: pair solution sets are not nested")
    return st.dim > sb.dim
