"""Interpretation-functor data and its calculus.

An interpretation functor into Mod-S is given by a pp-pair phi/psi of
arity m over R together with one pp-2m-formula rho per S-basis element;
on a module M in its domain it produces phi(M)/psi(M) with the S-action
defined by the rhos.  This module provides the well-definedness and
module-axiom checks, evaluation on objects and maps, the Hom-functor
data of a bimodule, isolating pp-pairs relative to an inventory, and the
pullback of a pp-pair along the functor with its explicit bound on the
number of bound variables.
"""

from __future__ import annotations

from functools import partial

from .algebra import Algebra
from .formulas import (
    PpFormula,
    PpPair,
    _subst_blocks,
    assemble,
    conj,
    eval_formula,
    pp_type_generator,
    sum_formula,
    zero_formula,
)
from .linalg import Mat, Subspace, quotient_basis
from .modules import (
    Bimodule,
    FDModule,
    IndecResult,
    ModuleMap,
    _images,
    identity_map,
    indecomposability,
    rad_hom,
    validate_module,
)

__all__ = [
    "InterpData",
    "InterpImage",
    "IsolatingPair",
    "BoundReport",
    "InterpError",
    "axiom_pairs",
    "closure_report",
    "apply_interp",
    "apply_map",
    "hom_interp_data",
    "isolating_pair",
    "pullback_formula",
    "pullback_pair",
    "bounds",
]


class InterpError(ValueError):
    pass


class InterpData:
    """(m, phi/psi, one rho per S-basis element), everything over R."""

    def __init__(self, source: Algebra, target: Algebra, m: int, pair: PpPair, rhos):
        self.R = source
        self.S = target
        self.m = m
        self.pair = pair
        self.rhos = list(rhos)
        if pair.top.n != m or pair.bottom.n != m:
            raise InterpError(f"pair arity must be {m}")
        if pair.top.algebra != source:
            raise InterpError("pair must live over the source algebra")
        if len(self.rhos) != target.dim:
            raise InterpError("need one action formula per target basis element")
        for rho in self.rhos:
            if rho.n != 2 * m:
                raise InterpError(f"action formulas must have arity {2 * m}")
            if rho.algebra != source:
                raise InterpError("action formulas must live over the source algebra")

    @property
    def phi(self) -> PpFormula:
        return self.pair.top

    @property
    def psi(self) -> PpFormula:
        return self.pair.bottom

    def __repr__(self):
        return f"InterpData(m={self.m}, Mod-{self.R!r} -> Mod-{self.S!r})"


def welldef_condition_pairs(data: InterpData, k: int):
    """The two pp-pairs whose closure on M makes rho_k well-defined.

    (1)  phi(x) -> exists y [phi(y) and rho(x, y)]
    (2)  exists x [psi(x) and rho(x, y)] -> psi(y)
    Each implication a -> b is encoded as the pair a / (a and b).
    """
    m = data.m
    rho = data.rhos[k]
    sub = partial(_subst_blocks, data.R.field, 2, m)
    # (1): free x-block 0, aux y-block 1
    exists_part = assemble(data.R, m, m, [(data.phi, sub(1)), (rho, sub(0, 1))])
    pair1 = PpPair(data.phi, conj(data.phi, exists_part), justification="conj-with-top")
    # (2): free y-block 0, aux x-block 1
    reach = assemble(data.R, m, m, [(data.psi, sub(1)), (rho, sub(1, 0))])
    pair2 = PpPair(reach, conj(reach, data.psi), justification="conj-with-top")
    return pair1, pair2


def axiom_pairs(data: InterpData):
    """The p^2 + 2p pp-pairs axiomatising the functor's domain.

    For each basis pair (i, j) a pair forcing rho_i-then-rho_j to agree
    with the structure-constant combination of the rho_l, plus the two
    well-definedness pairs per generator.
    """
    m = data.m
    p = data.S.dim
    out = []
    for k, label in enumerate(data.S.labels):
        pair1, pair2 = welldef_condition_pairs(data, k)
        out.append((f"welldef1[{label}]", pair1))
        out.append((f"welldef2[{label}]", pair2))
    # slot blocks: x (free), u, v, w_1..w_p (aux)
    sub = partial(_subst_blocks, data.R.field, 3 + p, m)
    x_to_w = [(data.rhos[l], sub(0, 3 + l)) for l in range(p)]
    for i in range(p):
        for j in range(p):
            # v - sum_l alpha_l w_l, for the coeff row alpha of s_i s_j over the S-basis
            alphas = data.S.mul[i][j].to_rows()[0]
            v_minus_w = {2: 1, **{3 + l: -a for l, a in enumerate(alphas)}}
            instances = [(data.rhos[i], sub(0, 1)), (data.rhos[j], sub(1, 2))]
            instances += x_to_w + [(data.psi, sub(v_minus_w))]
            comp = assemble(data.R, m, (2 + p) * m, instances)
            pair = PpPair(data.phi, conj(data.phi, comp), justification="conj-with-top")
            out.append((f"compose[{data.S.labels[i]},{data.S.labels[j]}]", pair))
    return out


def closure_report(pairs, module: FDModule):
    """Which of the named pp-pairs are closed on the module."""
    entries = []
    ok = True
    for name, pair in pairs:
        closed = not pair.open_on(module)
        entries.append({"pair": name, "closed": closed})
        ok = ok and closed
    return {"check": "axiom-closure", "ok": ok, "pairs": entries}


class InterpImage:
    """The value of an interpretation functor on one module."""

    def __init__(self, data: InterpData, source: FDModule, module: FDModule,
                 phi_space: Subspace, psi_space: Subspace, stack: Mat):
        self.data = data
        self.source = source
        self.module = module
        self.phi_space = phi_space
        self.psi_space = psi_space
        # psi(M)'s basis, then the coset representatives; rows in source^m flattened
        self._stack = stack
        self.reps = [stack.row(i) for i in range(psi_space.dim, stack.rows)]

    def rep_rows(self) -> Mat:
        """The coset representatives as the rows of one matrix."""
        return self._stack.take_rows(range(self.psi_space.dim, self._stack.rows))

    def to_class(self, v: Mat) -> Mat:
        """Quotient coordinates of the rows of v, vectors of phi(M)."""
        return _to_class(self._stack, self.psi_space.dim, v)


def _to_class(stack: Mat, psi_dim: int, v: Mat) -> Mat:
    """Coordinates of the rows of v over the rows of stack past psi_dim."""
    x = stack.solve_left(v)
    if x is None:
        raise InterpError("vector is not in the sort's solution set")
    return x.take_columns(range(psi_dim, stack.rows))


def _action_values(rho_space: Subspace, phi_space: Subspace, reps: Mat) -> Mat:
    """Rows b with (rep, b) in rho(M) and b in phi(M), one per row rep of reps."""
    amb = phi_space.ambient
    field = phi_space.field
    # x [rho; 0 -phi] = [reps 0]: the rho part of x gives (rep, b), b in phi(M)
    system = Mat.vstack(
        [rho_space.basis, Mat.hstack([Mat.zeros(field, phi_space.dim, amb), -phi_space.basis])]
    )
    x = system.solve_left(Mat.hstack([reps, Mat.zeros(field, reps.rows, amb)]))
    if x is None:
        raise InterpError(
            "inconsistent data: no action value inside the sort "
            "(well-definedness condition (1) fails)"
        )
    b2 = rho_space.basis.take_columns(range(amb, 2 * amb))
    return x.take_columns(range(rho_space.dim)) @ b2


def apply_interp(data: InterpData, module: FDModule, check: bool = True) -> InterpImage:
    """Evaluate the functor on a module: phi(M)/psi(M) with the rho-actions.

    With check=True (the default) every axiom pair is evaluated once
    first, and a failure raises: an open well-definedness pair names its
    generators, any other open pair its own name.  Each rho-action takes
    one solve for the values of all coset representatives and one for
    their classes.
    """
    return _interp_image(data, module, axiom_pairs(data) if check else None)


def _interp_image(data: InterpData, module: FDModule, pairs) -> InterpImage:
    """apply_interp, checking the given axiom pairs first unless pairs is None."""
    if module.algebra != data.R:
        raise InterpError("module must live over the source algebra")
    if pairs is not None:
        cl = closure_report(pairs, module)
        bad = [e["pair"] for e in cl["pairs"] if not e["closed"]]
        ill = [g for g in data.S.labels if f"welldef1[{g}]" in bad or f"welldef2[{g}]" in bad]
        if ill:
            raise InterpError(f"data not well-defined on module: generators {ill}")
        if bad:
            raise InterpError(f"axiom pairs open on module: {bad}")
    phi_space = eval_formula(data.phi, module)
    psi_space = eval_formula(data.psi, module)
    if not phi_space.contains(psi_space):
        raise InterpError("psi solutions not inside phi solutions")
    stack = Mat.vstack([psi_space.basis] + quotient_basis(psi_space, phi_space))
    rep_rows = stack.take_rows(range(psi_space.dim, stack.rows))
    mats = [
        _to_class(stack, psi_space.dim, _action_values(eval_formula(rho, module), phi_space, rep_rows))
        for rho in data.rhos
    ]
    result = FDModule(data.S, rep_rows.rows, mats)
    rep_result = validate_module(result)
    if not rep_result.ok:
        raise InterpError(f"constructed value is not an S-module: {rep_result.problems[0]}")
    return InterpImage(data, module, result, phi_space, psi_space, stack)


def apply_map(data: InterpData, f: ModuleMap, img_src: InterpImage = None,
              img_tgt: InterpImage = None, check: bool = True) -> ModuleMap:
    """The induced map between functor values (componentwise image)."""
    pairs = axiom_pairs(data) if check and (img_src is None or img_tgt is None) else None
    if img_src is None:
        img_src = _interp_image(data, f.source, pairs)
    if img_tgt is None:
        img_tgt = _interp_image(data, f.target, pairs)
    big = Mat.identity(f.source.field, data.m).kron(f.matrix)
    return ModuleMap(img_src.module, img_tgt.module, img_tgt.to_class(img_src.rep_rows() @ big))


def hom_interp_data(b: Bimodule) -> InterpData:
    """Data of the functor Hom_R(B, -): Mod-R -> Mod-S.

    The sort is the pp-type generator of the generating tuple (so its
    solutions are exactly the hom images of the tuple) over x = 0, and
    the action of an S-basis element is the quantifier-free formula
    rewriting the tuple by the left action expressed in right-action
    coordinates.
    """
    r_mod = b.right_module()
    n = len(b.generators)
    phi = pp_type_generator(r_mod, b.generators)
    psi = zero_formula(b.R, n)
    # express s_k * t_i as sum_j t_j r_ji with r_ji in R: row j * dim R + l
    # of gen_mat is t_j times basis_l(R)
    gens = Mat.vstack([Mat.zeros(b.field, 0, b.dim)] + b.generators)
    gen_mat = _images(r_mod, gens)
    # row (i, k) of lefts is s_k * t_i, of sol its coordinates in gen_mat's rows
    lefts = (gens @ Mat.hstack(b.left_action)).reshape(n * b.S.dim, b.dim)
    sol = gen_mat.solve_left(lefts)
    if sol is None:
        raise InterpError("left action escapes the generated module")
    minus_one = -Mat.identity(b.field, n).kron(b.R.one)
    # row (i, k) holds r_ji in block j; rho_k's row j holds it in block i
    blocks = sol.array().reshape(n, b.S.dim, n, b.R.dim).transpose(1, 2, 0, 3)
    rhos = [
        PpFormula(b.R, 2 * n, 0, n, Mat.vstack([Mat._of(b.field, r.reshape(n, n * b.R.dim)), minus_one]))
        for r in blocks
    ]
    pair = PpPair(phi, psi)
    return InterpData(b.R, b.S, n, pair, rhos)


class IsolatingPair:
    """A pp-1-pair open exactly on modules with the subject as a summand.

    The guarantee is scoped: it holds for direct sums of the inventory
    members the pair was built against.
    """

    def __init__(self, pair: PpPair, subject: FDModule, scope: str):
        self.pair = pair
        self.subject = subject
        self.scope = scope

    def open_on(self, module: FDModule) -> bool:
        return self.pair.open_on(module)

    def __repr__(self):
        return f"IsolatingPair(subject dim {self.subject.dim}, scope {self.scope})"


def isolating_pair(subject: FDModule, a_vec: Mat, inventory_members, seed: int = 0,
                   indec: IndecResult = None) -> IsolatingPair:
    """Isolate an indecomposable inside sums of inventory members.

    top: the pp-type generator of a nonzero element a; bottom: the sum of
    the pp-type generators of g(a) over a basis g of rad Hom(subject, X)
    for each inventory member X, plus x = 0.  A section of the subject
    keeps a out of the bottom (a radical endomorphism is nilpotent), and
    any non-split image lands in it.  indec is the subject's IndecResult
    when the caller already has it.
    """
    a_vec = subject.element(a_vec)
    if a_vec.is_zero():
        raise InterpError("the isolated element must be nonzero")
    if indec is None:
        indec = indecomposability(subject, seed)
    if indec.status != "indecomposable":
        raise InterpError("subject must be certified indecomposable")
    algebra = subject.algebra
    phi = pp_type_generator(subject, [a_vec])
    bottom = zero_formula(algebra, 1)
    triv_subject = [(subject, identity_map(subject), identity_map(subject))]
    for x in inventory_members:
        triv_x = [(x, identity_map(x), identity_map(x))]
        for g in rad_hom(subject, x, seed, decomp_m=triv_subject, decomp_n=triv_x):
            image = a_vec @ g.matrix
            bottom = sum_formula(bottom, pp_type_generator(x, [image]))
    pair = PpPair(phi, bottom)
    d = subject.dim
    if phi.c != d:
        raise InterpError("internal: generator has unexpected bound-variable count")
    if phi.e > d * algebra.dim + 1:
        raise InterpError("internal: generator exceeds its equation bound")
    dims = sorted({m.dim for m in inventory_members})
    return IsolatingPair(pair, subject, f"direct sums of inventory members (dims {dims})")


def pullback_formula(data: InterpData, gamma: PpFormula) -> PpFormula:
    """Pull a pp-1-formula over S back along the functor.

    A tuple is a solution exactly when its class in the functor value
    satisfies gamma; each of gamma's variables becomes an m-block, bound
    witnesses for the S-scalar actions are routed through the rhos, and
    each equation is forced into psi.
    """
    if gamma.n != 1:
        raise InterpError("pullback expects a formula of arity 1")
    if gamma.algebra != data.S:
        raise InterpError("formula must live over the target algebra")
    m = data.m
    p = data.S.dim
    field = data.R.field
    d = gamma.c
    e = gamma.e
    # slot blocks: X (free), Y_j, Z_k, W_i, U_jk
    y, z, w, u = 1, 1 + d, 1 + d + p, 1 + d + p + e
    n_blocks = u + d * p
    sub = partial(_subst_blocks, field, n_blocks, m)
    instances = [(data.phi, sub(0))]
    instances += [(data.phi, sub(z + k)) for k in range(p)]
    instances += [(data.phi, sub(y + j)) for j in range(d)]
    instances += [(data.phi, sub(u + j * p + k)) for j in range(d) for k in range(p)]
    instances += [(data.rhos[k], sub(0, z + k)) for k in range(p)]
    instances += [(data.rhos[k], sub(y + j, u + j * p + k)) for j in range(d) for k in range(p)]
    instances += [(data.psi, sub(w + i)) for i in range(e)]
    # raw column i * m + t: sum_k b_ik Z_k + sum_jk a_jik U_jk - W_i = 0 at
    # coordinate t, where gamma's entries are b_i (row 0) and a_ji (row 1 + j);
    # as scalars it is blocks kron I_m, one slot block per row of blocks
    g = gamma.blocks()
    blocks = Mat.vstack([
        Mat.zeros(field, 1 + d, e),  # X, Y_j
        Mat._of(field, g[0].T),  # Z_k
        -Mat.identity(field, e),  # W_i
        Mat._of(field, g[1:].transpose(0, 2, 1).reshape(d * p, e)),  # U_jk
    ])
    raw = blocks.kron(Mat.identity(field, m)).kron(data.R.one)
    return assemble(data.R, m, (n_blocks - 1) * m, instances, raw)


class BoundReport:
    """The bound-variable budget of a pulled-back pair."""

    def __init__(self, d, m, p, c_phi, c_psi, c_rhos, dim_r, c_sigma=None):
        self.d = d
        self.m = m
        self.p = p
        self.c_phi = c_phi
        self.c_psi = c_psi
        self.c_rhos = list(c_rhos)
        self.dim_r = dim_r
        self.n_d = (
            m * (d + p + (d * p + 1) + d * p)
            + (1 + p + d + d * p) * c_phi
            + (d + 1) * sum(self.c_rhos)
            + (d * p + 1) * c_psi
        )
        self.b_d = (self.n_d + m) * dim_r
        self.c_sigma = c_sigma

    def as_dict(self):
        out = {
            "d": self.d,
            "m": self.m,
            "p": self.p,
            "c_phi": self.c_phi,
            "c_psi": self.c_psi,
            "c_rhos": self.c_rhos,
            "dim_r": self.dim_r,
            "n_d": self.n_d,
            "b_d": self.b_d,
        }
        if self.c_sigma is not None:
            out["c_sigma"] = self.c_sigma
        return out

    def __repr__(self):
        return f"BoundReport(n_{self.d} = {self.n_d}, b_{self.d} = {self.b_d})"


def bounds(d: int, m: int, p: int, c_phi: int = 0, c_psi: int = 0,
           c_rhos=None, dim_r: int = 1) -> BoundReport:
    """Pure bound arithmetic for given data statistics."""
    if d < 1:
        raise InterpError("bounds need d >= 1")
    if c_rhos is None:
        c_rhos = [0] * p
    if len(c_rhos) != p:
        raise InterpError(f"need one c_rho per generator: {len(c_rhos)} given, p = {p}")
    if min([m, p, c_phi, c_psi, dim_r, *c_rhos]) < 0:
        raise InterpError("bound statistics must be non-negative")
    return BoundReport(d, m, p, c_phi, c_psi, c_rhos, dim_r)


def pullback_pair(data: InterpData, pair: PpPair, d: int):
    """Pull back an isolating pair; returns (sigma/tau, bound report).

    The top formula must be in the presentation shape: exactly d bound
    variables and at most d * dim S + 1 equations.  tau is the pullback
    of the bottom conjoined with sigma, making the pair inequality
    structural.
    """
    gamma, delta = pair.top, pair.bottom
    p = data.S.dim
    if gamma.c != d or gamma.e > d * p + 1:
        raise InterpError(
            f"top formula not in presentation shape (c = {gamma.c}, e = {gamma.e}); "
            "renormalise via pp_type_generator"
        )
    sigma = pullback_formula(data, gamma)
    tau = conj(pullback_formula(data, delta), sigma)
    out = PpPair(sigma, tau, justification="conj-with-top")
    report = BoundReport(
        d,
        data.m,
        p,
        data.phi.c,
        data.psi.c,
        [rho.c for rho in data.rhos],
        data.R.dim,
        c_sigma=sigma.c,
    )
    if sigma.c > report.n_d:
        raise InterpError(
            f"internal: pulled-back formula exceeds its bound ({sigma.c} > {report.n_d})"
        )
    return out, report
