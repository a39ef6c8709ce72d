"""Controlled representation embeddings and their inverse interpretation data.

A tensor embedding is controlled by a module C when every hom space
between image modules splits as the functor's image plus the maps
factoring through add(C), with the latter inside the radical.  In that
case the functor Hom_R(B, -) / Hom_R(B, -)_C is an interpretation
functor sending each image module back to its source, which
roundtrip_check verifies with an explicit isomorphism witness.
"""

from __future__ import annotations

from .formulas import PpPair, pp_type_generator
from .interp import InterpData, InterpError, apply_interp, hom_interp_data
from .linalg import Mat
from .modules import (
    Bimodule,
    FDModule,
    ModuleError,
    ModuleMap,
    _maps,
    direct_sum_many,
    hom_space,
    iso_test,
    maps_subspace,
    rad_hom,
    tensor_hom,
    tensor_over,
    zero_module,
)

__all__ = [
    "EmbeddingData",
    "PreEnvelope",
    "preenvelope",
    "hom_through_C",
    "check_controlled",
    "inverse_interp",
    "roundtrip_check",
]


class EmbeddingData:
    """A tensor-embedding bimodule with an optional control module over R."""

    def __init__(self, bimodule: Bimodule, control: FDModule = None):
        self.bimodule = bimodule
        self.control = control
        if control is not None and control.algebra != bimodule.R:
            raise ModuleError("control module must live over the right algebra")

    @property
    def effective_control(self) -> FDModule:
        return self.control if self.control is not None else zero_module(self.bimodule.R)

    def __repr__(self):
        c = self.control.dim if self.control is not None else 0
        return f"EmbeddingData({self.bimodule!r}, control dim {c})"


class PreEnvelope:
    """A map M -> C^n through which every map from M into add(C) factors."""

    def __init__(self, source: FDModule, control: FDModule, power: int,
                 target: FDModule, delta: ModuleMap):
        self.source = source
        self.control = control
        self.power = power
        self.target = target
        self.delta = delta

    def __repr__(self):
        return f"PreEnvelope({self.source.dim} -> C^{self.power})"


def preenvelope(m: FDModule, c: FDModule) -> PreEnvelope:
    """Stack a basis of Hom(m, c) into a single map m -> c^n."""
    basis = hom_space(m, c)
    n = len(basis)
    target, incls, _ = direct_sum_many([c] * n, algebra=m.algebra)
    if n:
        mat = Mat.hstack([f.matrix for f in basis])
    else:
        mat = Mat.zeros(m.field, m.dim, 0)
    delta = ModuleMap(m, target, mat)
    return PreEnvelope(m, c, n, target, delta)


def hom_through_C(m: FDModule, n: FDModule, c: FDModule):
    """Basis of the maps m -> n factoring through add(c).

    Computed as the image of precomposition with the preenvelope, which
    captures every factorisation through a finite power of c.
    """
    if c is None or c.dim == 0:
        return []
    env = preenvelope(m, c)
    out = []
    for h in hom_space(env.target, n):
        out.append(env.delta.then(h))
    return _maps(m, n, maps_subspace(out, m, n).basis)


def check_controlled(emb: EmbeddingData, pairs, seed: int = 0):
    """Verify the controlled decomposition on pairs of S-modules.

    For each pair (M, N): the functor image of Hom_S(M, N) and the maps
    through the control class must intersect trivially and together fill
    Hom_R(FM, FN); the control part must lie in the radical.
    """
    b = emb.bimodule
    c = emb.effective_control
    entries = []
    ok = True
    for m, n in pairs:
        tm, tn = tensor_over(m, b), tensor_over(n, b)
        fm, fn = tm.module, tn.module
        homs = hom_space(m, n)
        image_maps = [tensor_hom(f, b, tm, tn) for f in homs]
        image_span = maps_subspace(image_maps, fm, fn)
        control_maps = hom_through_C(fm, fn, c)
        control_span = maps_subspace(control_maps, fm, fn)
        total = len(hom_space(fm, fn))
        meet = image_span.intersect(control_span).dim
        sums_ok = image_span.dim + control_span.dim == total and meet == 0
        faithful = image_span.dim == len(homs)
        if control_span.dim == 0:
            radical_ok = True
        else:
            rad_span = maps_subspace(rad_hom(fm, fn, seed), fm, fn)
            radical_ok = rad_span.contains(control_span)
        row = {
            "pair_dims": [m.dim, n.dim],
            "image_dim": image_span.dim,
            "control_dim": control_span.dim,
            "hom_dim": total,
            "decomposition": sums_ok,
            "faithful": faithful,
            "radical_containment": radical_ok,
            "ok": sums_ok and faithful and radical_ok,
        }
        ok = ok and row["ok"]
        entries.append(row)
    return {"check": "controlled-embedding", "ok": ok, "pairs": entries}


def inverse_interp(emb: EmbeddingData) -> InterpData:
    """Interpretation data for Hom_R(B, -) / Hom_R(B, -)_C.

    The sort's bottom is the pp-type generator of the preenvelope image
    of the generating tuple; with zero control this is x = 0 and the
    data coincides with the plain Hom-functor data.
    """
    base = hom_interp_data(emb.bimodule)
    c = emb.effective_control
    if c.dim == 0:
        return base
    env = preenvelope(emb.bimodule.right_module(), c)
    images = [env.delta(t) for t in emb.bimodule.generators]
    bottom = pp_type_generator(env.target, images)
    try:
        pair = PpPair(base.phi, bottom)
    except Exception as exc:
        raise InterpError(
            f"preenvelope does not refine the sort: {exc}; "
            f"hom basis has {env.power} coordinates"
        )
    return InterpData(base.R, base.S, base.m, pair, base.rhos)


def roundtrip_check(emb: EmbeddingData, n_mod: FDModule, data: InterpData = None,
                    seed: int = 0):
    """Apply the inverse data to the image of a module and compare.

    A failure indicates that the controlledness hypothesis does not hold
    for this data.
    """
    if data is None:
        data = inverse_interp(emb)
    t = tensor_over(n_mod, emb.bimodule)
    img = apply_interp(data, t.module, check=False)
    witness = iso_test(img.module, n_mod, seed)
    return {
        "check": "roundtrip",
        "ok": witness is not None,
        "dims": [n_mod.dim, img.module.dim],
        "witness": witness.matrix.to_rows() if witness is not None else None,
    }
