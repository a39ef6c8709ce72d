import pytest

from ppcalc.examples import kronecker_algebra, lambda_algebra
from ppcalc.inventory import (
    BudgetExceeded,
    direct_sums_up_to,
    enumerate_indecomposables,
    verify_completeness,
)
from ppcalc.linalg import GF, Mat
from ppcalc.modules import is_direct_summand, iso_test, regular_module


def test_lambda_f2_cap2_is_simple_and_regular(lam2, s1_2, reg2):
    inv = enumerate_indecomposables(lam2, 2, seed=0)
    assert [m.dim for m in inv.members] == [1, 2]
    assert iso_test(inv.members[0], s1_2)
    assert iso_test(inv.members[1], reg2)


def test_lambda_f2_cap4_no_new_indecomposables(lam2):
    inv = enumerate_indecomposables(lam2, 4, seed=0)
    assert [m.dim for m in inv.members] == [1, 2]


def test_lambda_f3_cap3(lam3):
    inv = enumerate_indecomposables(lam3, 3, seed=0)
    assert [m.dim for m in inv.members] == [1, 2]


def test_kronecker_f2_cap2(kron2):
    # two simples plus the three dim-2 representations indexed by P^1(F_2)
    inv = enumerate_indecomposables(kron2, 2, seed=0)
    assert [m.dim for m in inv.members] == [1, 1, 2, 2, 2]


def test_kronecker_f2_cap4_classification(kron2):
    # known pencil classification over F_2: per-dimension counts 2, 3, 2, 4
    inv = enumerate_indecomposables(kron2, 4, seed=0)
    counts = {d: len(inv.by_dim(d)) for d in range(1, 5)}
    assert counts == {1: 2, 2: 3, 3: 2, 4: 4}
    assert len(inv) == 11


def test_kronecker_f3_cap3():
    kron3 = kronecker_algebra(GF(3))
    inv = enumerate_indecomposables(kron3, 3, seed=0)
    counts = {d: len(inv.by_dim(d)) for d in range(1, 4)}
    # P^1(F_3) has 4 points at dimension 2
    assert counts == {1: 2, 2: 4, 3: 2}


def test_cap_zero_empty(lam2):
    inv = enumerate_indecomposables(lam2, 0, seed=0)
    assert len(inv) == 0


def test_budget_guard(kron2):
    with pytest.raises(BudgetExceeded, match="budget"):
        enumerate_indecomposables(kron2, 4, budget=100, seed=0)


def test_naive_mode_matches_quiver_mode(lam2):
    from test_algebra import nilpotent_lambda

    raw = nilpotent_lambda(GF(2))
    assert raw.quiver is None
    inv = enumerate_indecomposables(raw, 2, seed=0)
    assert [m.dim for m in inv.members] == [1, 2]
    reg = regular_module(raw)
    assert is_direct_summand(inv.members[1], reg)[0]


def test_completeness_lambda(lam2):
    inv = enumerate_indecomposables(lam2, 2, seed=0)
    report = verify_completeness(inv, 2, seed=0)
    assert report["ok"]
    assert report["dims"][0]["iso_classes"] == 1  # only the simple at dim 1
    assert report["dims"][1]["iso_classes"] == 2  # S + S and the regular


def test_completeness_kronecker_small(kron2):
    inv = enumerate_indecomposables(kron2, 2, seed=0)
    report = verify_completeness(inv, 2, seed=0)
    assert report["ok"]
    # dim 2: S1+S1, S1+S2, S2+S2 and the three dim-2 indecomposables
    assert report["dims"][1]["iso_classes"] == 6


def test_direct_sums_up_to(lam2):
    inv = enumerate_indecomposables(lam2, 2, seed=0)
    sums = list(direct_sums_up_to(inv, 3, 6))
    assert sums[0][0].dim == 0 and sums[0][1] == ()
    dims = sorted(m.dim for m, _ in sums)
    # combos of S1 (1) and the regular (2) with <= 3 summands:
    # sizes 0..3 over two members
    assert len(sums) == 1 + 2 + 3 + 4
    assert max(dims) == 6


@pytest.mark.parametrize(
    "make, p, big, small",
    [
        (lambda_algebra, 2, 4, 2),
        (lambda_algebra, 2, 4, 3),
        (kronecker_algebra, 2, 4, 2),
        (kronecker_algebra, 2, 4, 3),
        (kronecker_algebra, 3, 3, 2),
    ],
)
def test_up_to_equals_fresh_enumeration(make, p, big, small):
    algebra = make(GF(p))
    prefix = enumerate_indecomposables(algebra, big, seed=0).up_to(small)
    fresh = enumerate_indecomposables(algebra, small, seed=0)
    assert prefix.cap == fresh.cap == small
    assert prefix.exhaustive and fresh.exhaustive
    assert prefix.algebra == fresh.algebra
    assert len(prefix) == len(fresh)
    for got, want in zip(prefix.members, fresh.members):
        assert got.dim == want.dim
        assert got.action == want.action
    for d in range(1, small + 1):
        assert [m.action for m in prefix.by_dim(d)] == [m.action for m in fresh.by_dim(d)]


def test_up_to_refuses_a_larger_cap(lam2):
    with pytest.raises(ValueError, match="cap 3"):
        enumerate_indecomposables(lam2, 2, seed=0).up_to(3)
