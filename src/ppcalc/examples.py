"""Ready-made small algebras, modules and bimodules used in tests and demos.

The running example: S = k[x]/(x^2) (as the one-loop quiver algebra with
x^2 = 0), R = the Kronecker algebra, and the dim-4 (S, R)-bimodule whose
tensor functor sends a module M to the Kronecker representation
(M => M; 1, x).  It is that functor's value on the regular module
Lambda_Lambda.  Its generating tuple is (w, xw) for w the first copy's
unit.
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


def kronecker_rep(kron: Algebra, a_mat: Mat, b_mat: Mat) -> FDModule:
    """The Kronecker module with vertex spaces k^d1, k^d2 and arrow maps.

    a_mat, b_mat are d1 x d2 matrices acting from the vertex-1 block to
    the vertex-2 block.
    """
    f = kron.field
    d1, d2 = a_mat.rows, a_mat.cols
    if b_mat.shape != (d1, d2):
        raise ValueError("arrow matrices must share their shape")
    d = d1 + d2
    blocks = np.full((4, d, d), f.zero(), dtype=f.dtype)
    e1, e2, a, b = blocks
    e1[range(d1), range(d1)] = f.one()
    e2[range(d1, d), range(d1, d)] = f.one()
    a[:d1, d1:] = a_mat.array()
    b[:d1, d1:] = b_mat.array()
    named = {"e1": e1, "e2": e2, "a": a, "b": b}
    return FDModule(kron, d, [Mat.of_array(f, named[label]) for label in kron.labels])


def functor_image(kron: Algebra, m: FDModule) -> FDModule:
    """(M => M; 1, x): the Kronecker representation the bimodule realises."""
    f = kron.field
    x_act = m.action[m.algebra.labels.index("x")]
    return kronecker_rep(kron, Mat.identity(f, m.dim), x_act)


def embedding_bimodule(lam: Algebra, kron: Algebra) -> Bimodule:
    """The dim-4 bimodule F(Lambda_Lambda) for F: M |-> (M => M; 1, x).

    The right action is F on the regular module.  A left multiplication
    is an endomorphism of Lambda_Lambda, and F acts on it in both vertex
    blocks.  Basis order: w, xw, u, xu with w the vertex-1 unit and
    u = w*a the vertex-2 unit; the generators are (w, xw).
    """
    f, d = lam.field, lam.dim
    right = functor_image(kron, regular_module(lam)).action
    left = [Mat.identity(f, 2).kron(lam.left_mult_matrix(lam.basis_element(i).coeffs)) for i in range(d)]
    gens = [Mat.identity(f, 2 * d).row(i) for i in range(2)]
    return Bimodule(lam, kron, 2 * d, left, right, gens)
