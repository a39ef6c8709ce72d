"""Ready-made small algebras, modules and bimodules used in tests and demos.

The running example: S = k[x]/(x^2) (as the one-loop quiver algebra with
x^2 = 0), R = the Kronecker algebra, and the dim-4 (S, R)-bimodule whose
tensor functor sends a module M to the Kronecker representation
(M => M; 1, x).  Its generating tuple is (w, xw) for w the first copy's
unit.
"""

from __future__ import annotations

import numpy as np

from .algebra import Algebra, QuiverSpec, algebra_from_quiver
from .linalg import FieldSpec, Mat
from .modules import Bimodule, FDModule

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
    """The dim-4 bimodule for M |-> (M => M; 1, x), generators (w, xw).

    Basis order: w, xw, u, xu with w the vertex-1 unit and u = w*a the
    vertex-2 unit.
    """
    f = lam.field

    def rows(*vals):
        return Mat.from_rows(f, [list(v) for v in vals])

    left_e1 = Mat.identity(f, 4)
    left_x = rows([0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0])
    right = {
        "e1": rows([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
        "e2": rows([0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]),
        "a": rows([0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]),
        "b": rows([0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]),
    }
    left_action = []
    for label in lam.labels:
        left_action.append({"e1": left_e1, "x": left_x}[label])
    right_action = [right[label] for label in kron.labels]
    gens = [rows([1, 0, 0, 0]), rows([0, 1, 0, 0])]
    return Bimodule(lam, kron, 4, left_action, right_action, gens)
