"""Ready-made small algebras, modules and bimodules used in tests and demos.

The running example: S = k[x]/(x^2) (as the one-loop quiver algebra with
x^2 = 0), R = the Kronecker algebra, and the dim-4 (S, R)-bimodule whose
tensor functor sends a module M to the Kronecker representation
(M => M; 1, x).  It is that functor's value on the regular module
Lambda_Lambda.  Its generating tuple is (w, xw) for w the first copy's
unit.

For a one-vertex S with loops x_1, ..., x_n and the (n+1)-arrow
Kronecker algebra R the functor is (M => M; 1, x_1, ..., x_n); with
S = k<x,y>/(x,y)^2 and R = K_3 it is the wild example's.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, QuiverSpec, algebra_from_quiver
from .linalg import FieldSpec, Mat
from .modules import Bimodule, FDModule, regular_module

__all__ = [
    "lambda_algebra",
    "kronecker_algebra",
    "simple_lambda_module",
    "embedding_bimodule",
    "kronecker_rep",
    "functor_image",
]


def lambda_algebra(field: FieldSpec) -> Algebra:
    """k[x]/(x^2) as a quiver algebra: one vertex, one loop, x*x = 0."""
    q = QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x"])]], cap=2)
    return algebra_from_quiver(q, field)


def kronecker_algebra(field: FieldSpec) -> Algebra:
    """Path algebra of the two-arrow quiver 1 => 2 (basis e1, e2, a, b)."""
    return algebra_from_quiver(QuiverSpec(2, [(1, 2, "a"), (1, 2, "b")]), field)


def simple_lambda_module(lam: Algebra) -> FDModule:
    """The simple module k[x]/(x) over k[x]/(x^2)."""
    f = lam.field
    return FDModule(lam, 1, [Mat.identity(f, 1), Mat.zeros(f, 1, 1)])


def kronecker_rep(kron: Algebra, *arrow_mats: Mat) -> FDModule:
    """The representation of a quiver 1 => 2 with vertex spaces k^d1, k^d2.

    arrow_mats holds one d1 x d2 matrix per arrow of kron.quiver, in
    order, each acting from the vertex-1 block to the vertex-2 block.
    """
    f = kron.field
    arrows = [label for *_, label in kron.quiver.arrows]
    if len(arrow_mats) != len(arrows):
        raise ValueError(f"need one matrix per arrow, {len(arrows)} in all")
    d1, d2 = arrow_mats[0].shape
    if any(m.shape != (d1, d2) for m in arrow_mats):
        raise ValueError("arrow matrices must share their shape")
    d = d1 + d2
    blocks = np.full((2 + len(arrows), d, d), f.zero(), dtype=f.dtype)
    e1, e2 = blocks[:2]
    e1[range(d1), range(d1)] = f.one()
    e2[range(d1, d), range(d1, d)] = f.one()
    for block, m in zip(blocks[2:], arrow_mats):
        block[:d1, d1:] = m.array()
    named = dict(zip(["e1", "e2", *arrows], blocks))
    return FDModule(kron, d, [Mat.of_array(f, named[label]) for label in kron.labels])


def functor_image(kron: Algebra, m: FDModule) -> FDModule:
    """(M => M; 1, x_1, ...): the representation the bimodule realises.

    The loops x_1, ... are the arrows of m.algebra.quiver, in order.
    """
    loops = [m.action[m.algebra.labels.index(label)] for *_, label in m.algebra.quiver.arrows]
    return kronecker_rep(kron, Mat.identity(kron.field, m.dim), *loops)


def embedding_bimodule(lam: Algebra, kron: Algebra) -> Bimodule:
    """The bimodule F(S_S) for F: M |-> (M => M; 1, x_1, ...), S = lam.

    The right action is F on the regular module.  A left multiplication
    is an endomorphism of S_S, and F acts on it in both vertex blocks.
    The basis is S's basis in each vertex block, the vertex-1 block
    first; the generators are the vertex-1 block.  For Lambda that is
    w, xw, u, xu with w the vertex-1 unit and u = w*a the vertex-2 unit,
    generated by (w, xw).
    """
    f, d = lam.field, lam.dim
    right = functor_image(kron, regular_module(lam)).action
    left = [Mat.identity(f, 2).kron(lam.left_mult_matrix(lam.basis_element(i).coeffs)) for i in range(d)]
    gens = [Mat.identity(f, 2 * d).row(i) for i in range(d)]
    return Bimodule(lam, kron, 2 * d, left, right, gens)
