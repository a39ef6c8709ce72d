import pytest

from ppcalc.examples import (
    embedding_bimodule,
    kronecker_algebra,
    kronecker_rep,
    lambda_algebra,
    simple_lambda_module,
)
from ppcalc.linalg import GF, QQ, Mat
from ppcalc.modules import Bimodule, regular_module


@pytest.fixture(scope="session")
def lam2():
    return lambda_algebra(GF(2))


@pytest.fixture(scope="session")
def lam3():
    return lambda_algebra(GF(3))


@pytest.fixture(scope="session")
def lamq():
    return lambda_algebra(QQ)


@pytest.fixture(scope="session")
def kron2():
    return kronecker_algebra(GF(2))


@pytest.fixture(scope="session")
def s1_2(lam2):
    return simple_lambda_module(lam2)


@pytest.fixture(scope="session")
def reg2(lam2):
    return regular_module(lam2)


@pytest.fixture(scope="session")
def bim2(lam2, kron2):
    return embedding_bimodule(lam2, kron2)


@pytest.fixture(scope="session")
def forget_x2(lam2, kron2):
    """The bimodule of F(M) = (M => M; 1, 0), built as embedding_bimodule is.

    F is exact but not a representation embedding: it forgets x, so it
    sends S + S and Lambda to isomorphic Kronecker modules.  Checks that
    need an embedding are shown to fail on it.
    """
    f, d = lam2.field, lam2.dim
    right = kronecker_rep(kron2, Mat.identity(f, d), Mat.zeros(f, d, d)).action
    left = [Mat.identity(f, 2).kron(lam2.left_mult_matrix(lam2.basis_element(i).coeffs)) for i in range(d)]
    gens = [Mat.identity(f, 2 * d).row(i) for i in range(2)]
    return Bimodule(lam2, kron2, 2 * d, left, right, gens)
