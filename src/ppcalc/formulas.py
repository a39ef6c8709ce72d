"""Positive primitive formulas over a finite-dimensional algebra.

A pp formula in n free variables is  exists y_1..y_c : (x, y) A = 0
for an (n+c) x e matrix A over the algebra.  Solution sets are
subspaces preserved by all module homomorphisms; the ordering is
implication, decided exactly through free realisations.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, AlgebraElement
from .linalg import Mat, Subspace
from .modules import FDModule, _hom_system, fp_module

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
    "pair_open",
]


class FormulaError(ValueError):
    pass


class PpFormula:
    """exists y (x y) A = 0; entries stored sparsely by (row, column).

    c and e are the complexity statistics: the number of bound variables
    and the number of equations.
    """

    def __init__(self, algebra: Algebra, n: int, c: int, e: int, coeffs):
        self.algebra = algebra
        self.n = n
        self.c = c
        if isinstance(coeffs, dict):
            items = coeffs.items()
        else:  # dense list of rows
            items = (
                ((i, j), coeffs[i][j])
                for i in range(len(coeffs))
                for j in range(len(coeffs[i]))
            )
        cleaned = {}
        for (i, j), elt in items:
            if not (0 <= i < n + c and 0 <= j < e):
                raise FormulaError(f"entry index {(i, j)} out of range")
            if not elt.is_zero():
                cleaned[(i, j)] = elt
        # drop columns that are identically zero (trivial equations)
        live = sorted({j for (_, j) in cleaned})
        remap = {j: k for k, j in enumerate(live)}
        self.e = len(live)
        self.coeffs = {(i, remap[j]): elt for (i, j), elt in cleaned.items()}
        self._realisation = None

    def entry(self, i: int, j: int) -> AlgebraElement:
        return self.coeffs.get((i, j), self.algebra.zero_element())

    def dense(self):
        """Matrix as a dense list of rows of AlgebraElements."""
        return [
            [self.entry(i, j) for j in range(self.e)] for i in range(self.n + self.c)
        ]

    def key(self):
        return (
            self.n,
            self.c,
            self.e,
            tuple(sorted(((i, j), elt.key()) for (i, j), elt in self.coeffs.items())),
        )

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
        """Attach (module, tup) as this formula's free realisation.

        Nothing checks that the formula generates the pp-type of tup in
        module: implies and beta trust it (see FreeRealisation).
        """
        self._realisation = FreeRealisation(module, tup, self)
        return self


class FreeRealisation:
    """A module C and tuple c whose pp-type the formula generates.

    Construction checks only the arity.  implies trusts the realisations
    of both of its formulas: psi <= phi is read off Hom(C_phi, C_psi), so
    a tuple whose pp-type is not the one phi generates gives wrong answers.
    """

    def __init__(self, module: FDModule, tup, formula: PpFormula):
        self.module = module
        self.tuple = list(tup)
        self.formula = formula
        if len(self.tuple) != formula.n:
            raise FormulaError("realisation tuple arity mismatch")

    def tuple_flat(self) -> Mat:
        if not self.tuple:
            return Mat.zeros(self.module.field, 1, 0)
        return Mat.hstack(self.tuple)

    def __repr__(self):
        return f"FreeRealisation(dim {self.module.dim}, arity {self.formula.n})"


def top_formula(algebra: Algebra, n: int) -> PpFormula:
    """x = x: no equations."""
    return PpFormula(algebra, n, 0, 0, {})


def zero_formula(algebra: Algebra, n: int) -> PpFormula:
    """x = 0: one equation per free variable."""
    one = algebra.one_element()
    return PpFormula(algebra, n, 0, n, {(i, i): one for i in range(n)})


def _formula_matrix(phi: PpFormula, m: FDModule) -> Mat:
    """The k-linear system encoding (x y) A = 0 inside m."""
    d = m.dim
    rows, cols = (phi.n + phi.c) * d, phi.e * d
    field = m.field
    cache = {}
    big = Mat.zeros(field, rows, cols).array().copy()
    for (i, j), elt in phi.coeffs.items():
        k = elt.key()
        if k not in cache:
            cache[k] = m.act(elt).array()
        big[i * d : (i + 1) * d, j * d : (j + 1) * d] = cache[k]
    return Mat.of_array(field, big)


def eval_formula(phi: PpFormula, m: FDModule) -> Subspace:
    """The solution set phi(m) as a subspace of m^n."""
    if phi.algebra != m.algebra:
        raise FormulaError("formula and module live over different algebras")
    d = m.dim
    big = _formula_matrix(phi, m)
    ker = big.kernel_basis()
    # the span of the projected rows is the projection of the span
    return Subspace.from_vectors(m.field, phi.n * d, ker.take_columns(range(phi.n * d)))


def assemble(algebra: Algebra, n_free: int, n_aux: int, instances, raw_cols=()):
    """Build  exists aux, (inner bounds) : /\\ inst_i(slots @ C_i) /\\ raw = 0.

    Slots are n_free + n_aux scalar variables (free ones first).  Each
    instance is (formula, C) where C is a scalar (n_free+n_aux) x inst.n
    matrix substituting slot combinations for the instance's free
    variables; the instance's own bound variables are appended fresh.
    raw_cols are extra equation columns over the slots alone.
    """
    n_slots = n_free + n_aux
    field = algebra.field
    total_c = n_aux + sum(f.c for f, _ in instances)
    total_e = sum(f.e for f, _ in instances) + len(raw_cols)
    coeffs = {}
    col_off = 0
    bound_off = n_slots
    for f, cmat in instances:
        if f.algebra != algebra:
            raise FormulaError("assemble: instance over a different algebra")
        if cmat.shape != (n_slots, f.n):
            raise FormulaError(
                f"assemble: substitution matrix shape {cmat.shape},"
                f" expected {(n_slots, f.n)}"
            )
        for (i, j), elt in f.coeffs.items():
            if i < f.n:
                for s in range(n_slots):
                    cs = cmat.entry(s, i)
                    if cs != 0:
                        key = (s, col_off + j)
                        term = elt * cs
                        if key in coeffs:
                            coeffs[key] = coeffs[key] + term
                        else:
                            coeffs[key] = term
            else:
                coeffs[(bound_off + (i - f.n), col_off + j)] = elt
        col_off += f.e
        bound_off += f.c
    for col in raw_cols:
        if len(col) != n_slots:
            raise FormulaError("assemble: raw column has wrong length")
        for s, elt in enumerate(col):
            if not elt.is_zero():
                coeffs[(s, col_off)] = elt
        col_off += 1
    return PpFormula(algebra, n_free, total_c, total_e, coeffs)


def realisation_map_from_free(fr: FreeRealisation):
    """The map A^n -> C sending the free generators to the tuple."""
    from .modules import ModuleMap, free_module

    c_mod = fr.module
    a = c_mod.algebra
    n = fr.formula.n
    free, _ = free_module(a, n)
    rows = []
    for i in range(n):
        for l in range(a.dim):
            rows.append((fr.tuple[i] @ c_mod.action[l]).to_rows()[0])
    mat = Mat.from_rows(c_mod.field, rows) if rows else Mat.zeros(c_mod.field, 0, c_mod.dim)
    return ModuleMap(free, c_mod, mat)


def meet_realisation(phi: PpFormula, psi: PpFormula, out: PpFormula) -> FreeRealisation:
    """Free realisation of the meet: pushout of the two tuple maps."""
    from .modules import pushout

    fr_phi = free_realisation(phi)
    fr_psi = free_realisation(psi)
    f = realisation_map_from_free(fr_phi)
    g = realisation_map_from_free(fr_psi)
    p, hf, _ = pushout(f, g)
    tup = [hf(fr_phi.tuple[i]) for i in range(phi.n)]
    return FreeRealisation(p, tup, out)


def conj(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """Conjunction: shared free variables, bound variables kept apart.

    When both inputs carry free realisations, the pushout realisation of
    the meet is attached to the result.
    """
    if phi.n != psi.n:
        raise FormulaError("conj needs equal arities")
    if phi.algebra != psi.algebra:
        raise FormulaError("conj needs a common algebra")
    ident = Mat.identity(phi.algebra.field, phi.n)
    out = assemble(phi.algebra, phi.n, 0, [(phi, ident), (psi, ident)])
    if phi._realisation is not None and psi._realisation is not None:
        out._realisation = meet_realisation(phi, psi, out)
    return out


def sum_formula(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """Sum: x = x1 + x2 with phi(x1) and psi(x2)."""
    if phi.n != psi.n:
        raise FormulaError("sum needs equal arities")
    if phi.algebra != psi.algebra:
        raise FormulaError("sum needs a common algebra")
    n = phi.n
    field = phi.algebra.field
    ident = Mat.identity(field, n)
    zero = Mat.zeros(field, n, n)
    c_phi = Mat.vstack([zero, ident])        # phi sees x1 (the aux block)
    c_psi = Mat.vstack([ident, -ident])      # psi sees x - x1
    out = assemble(phi.algebra, n, n, [(phi, c_phi), (psi, c_psi)])
    fr_phi, fr_psi = phi._realisation, psi._realisation
    if fr_phi is not None and fr_psi is not None:
        from .modules import direct_sum

        total, i1, i2, _, _ = direct_sum(fr_phi.module, fr_psi.module)
        tup = [
            i1(fr_phi.tuple[i]) + i2(fr_psi.tuple[i]) for i in range(n)
        ]
        out.with_realisation(total, tup)
    return out


def free_realisation(phi: PpFormula, via: str = "auto") -> FreeRealisation:
    """A free realisation of phi.

    via="auto" reuses a realisation attached by the constructing
    operation; via="fp" always builds the canonical finitely presented
    module on n + c generators with the formula's columns as relations.
    """
    if via == "auto" and phi._realisation is not None:
        return phi._realisation
    q, gens, _ = fp_module(phi.algebra, phi.dense())
    fr = FreeRealisation(q, gens[: phi.n], phi)
    sol = eval_formula(phi, q)
    if not sol.contains_vector(fr.tuple_flat()):
        raise FormulaError("internal: realisation tuple fails its own formula")
    if via == "auto":
        phi._realisation = fr
    return fr


def pp_type_generator(m: FDModule, tup) -> PpFormula:
    """A generator of the pp-type of the tuple in m.

    Shape: exists y_1..y_d with x = y G and y H = 0, where y runs over a
    k-basis of m, G expresses the tuple over that basis and the columns
    of H are a k-basis of the linear relation space of the basis tuple.
    For n = 1 this gives c = dim m and d(phi) <= dim m * dim A + 1.
    """
    a = m.algebra
    field = m.field
    d = m.dim
    tup = [m.element(t) for t in tup]
    n = len(tup)
    # relation space of the spanning tuple (the standard basis of m):
    # rows indexed by (basis index, algebra basis index)
    if d:
        rel = Mat.hstack(m.action).reshape(d * a.dim, d)
        ker = rel.kernel()
    else:
        ker = Mat.zeros(field, 0, 0)
    coeffs = {}
    one = a.one_element()
    for t in range(n):
        coeffs[(t, t)] = one
        for i in range(d):
            g = tup[t].entry(0, i)
            if g != 0:
                coeffs[(n + i, t)] = a.scalar_element(field.neg(g))
    # row j * d + i of blocks: the coefficients of y_i in relation j
    blocks = ker.reshape(ker.rows * d, a.dim)
    for k in np.flatnonzero((blocks.array() != 0).any(axis=1)):
        j, i = divmod(int(k), d)
        coeffs[(n + i, n + j)] = a.element(blocks.row(k))
    out = PpFormula(a, n, d, n + ker.rows, coeffs)
    out.with_realisation(m, tup)
    return out


def implies(psi: PpFormula, phi: PpFormula) -> bool:
    """Decide psi <= phi (solution-set inclusion in every module).

    By the free-realisation criterion, psi <= phi iff some homomorphism
    C_phi -> C_psi sends c_phi to c_psi, where (C_phi, c_phi) and
    (C_psi, c_psi) are free realisations of phi and psi.  The maps are
    those of hom_space's spinning system [Phi | L], with L replaced by
    the evaluation E at c_phi, so one solve of y [Phi | E] = [0 | c_psi]
    decides.  The answer trusts the realisations attached to both
    formulas (see PpFormula.with_realisation).
    """
    if psi.n != phi.n:
        raise FormulaError("implies needs equal arities")
    if psi.algebra != phi.algebra:
        raise FormulaError("implies needs a common algebra")
    fr_psi, fr_phi = free_realisation(psi), free_realisation(phi)
    target = fr_psi.module
    c_phi = fr_phi.tuple_flat().reshape(phi.n, fr_phi.module.dim)
    system, nrel = _hom_system(fr_phi.module, target, at=c_phi)
    rhs = Mat.hstack([Mat.zeros(target.field, 1, nrel * target.dim), fr_psi.tuple_flat()])
    return system.solve_left(rhs) is not None


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
