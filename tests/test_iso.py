"""Isomorphism of indecomposables by one hom space.

iso_test, rad_hom and verify_completeness decide whether two
indecomposables are isomorphic by the first invertible map of
hom_space(m, n).  The references below decide it by the two-sided summand
test, which builds Hom(m, n) and Hom(n, m) and tests every composite: the
answers must agree, and the witnesses must be equal bit for bit whenever
m is certified indecomposable.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ppcalc import inventory
from ppcalc.algebra import QuiverSpec, algebra_from_quiver
from ppcalc.examples import kronecker_algebra, kronecker_rep, simple_lambda_module
from ppcalc.inventory import enumerate_indecomposables, verify_completeness
from ppcalc.linalg import GF, Mat
from ppcalc.modules import (
    ModuleError,
    ModuleMap,
    _first_iso,
    _flat_span,
    _split,
    decompose,
    direct_sum,
    hom_space,
    identity_map,
    indecomposability,
    is_direct_summand,
    iso_test,
    rad_end,
    rad_hom,
    regular_module,
    zero_map,
)

from test_modules import ORACLE, ORACLE_FIELDS, conjugate, oracle_algebras, regular_kronecker


def ref_iso_test(m, n, seed=0, indec=None):
    """iso_test by the two-sided summand test, with its split maps as witnesses."""
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return zero_map(m, n)
    if indec is None:
        indec = indecomposability(m, seed)
    if indec.status == "indecomposable":
        ok, maps = is_direct_summand(m, n)
        return maps[0] if ok else None
    if indec.status == "probably-indecomposable":
        if indecomposability(n, seed).status != "indecomposable":
            raise ModuleError(
                "iso_test: could not certify either module indecomposable within the budget"
            )
        ok, maps = is_direct_summand(n, m)
        return maps[1] if ok else None
    rest = _split(n, seed)
    witness = Mat.zeros(m.field, m.dim, n.dim)
    for piece, _, proj, res in _split(m, seed):
        for k, (q, incl, _, _) in enumerate(rest):
            if q.dim == piece.dim:
                ok, maps = is_direct_summand(piece, q)
                if ok:
                    witness = witness + proj.matrix @ maps[0].matrix @ incl.matrix
                    del rest[k]
                    break
        else:
            if res.status == "indecomposable" and not any(
                is_direct_summand(piece, q)[0] for q, *_ in rest if q.dim > piece.dim
            ):
                return None
            raise ModuleError(
                "iso_test: could not match a summand or certify it indecomposable"
                " within the budget"
            )
    return ModuleMap(m, n, witness, check=False)


def ref_rad_hom(m, n, seed=0, decomp_m=None, decomp_n=None):
    """rad_hom with theta the split injection of the two-sided summand test."""
    if m.dim == 0 or n.dim == 0:
        return []
    dm = decomp_m if decomp_m is not None else decompose(m, seed)
    dn = decomp_n if decomp_n is not None else decompose(n, seed)
    collected = []
    for x, _, px in dm:
        for y, iy, _ in dn:
            summand, witness = (False, None)
            if x.dim == y.dim:
                summand, witness = is_direct_summand(x, y)
            if summand:
                block = [r.matrix @ witness[0].matrix for r in rad_end(x)]
            else:
                block = [f.matrix for f in hom_space(x, y)]
            for bmat in block:
                collected.append(px.matrix @ bmat @ iy.matrix)
    span = _flat_span(m.field, m.dim * n.dim, collected)
    return [
        ModuleMap(m, n, span.basis.row(i).reshape(m.dim, n.dim), check=False)
        for i in range(span.dim)
    ]


def ref_first_iso(m, n):
    """verify_completeness's former match: the split injection of the summand test."""
    if m.dim != n.dim:
        return None
    ok, maps = is_direct_summand(m, n)
    return maps[0] if ok else None


def outcome(fn, *args, **kwargs):
    """("raised", type, message) or ("returned", value as comparable bytes)."""
    try:
        return ("returned", bits(fn(*args, **kwargs)))
    except ModuleError as exc:
        return ("raised", type(exc), str(exc))


def bits(w):
    """A witness or a rad_hom basis as comparable bytes."""
    if w is None:
        return None
    if isinstance(w, list):
        return [bits(f) for f in w]
    return (w.source.dim, w.target.dim, w.matrix.array().dtype, w.matrix.key())


def three_kronecker(field):
    return algebra_from_quiver(QuiverSpec(2, [(1, 2, "a"), (1, 2, "b"), (1, 2, "c")]), field)


@functools.cache
def indecomposables(field):
    """Indecomposables over Lambda and over the Kronecker algebra, by algebra.

    Over GF(2) and GF(3) these are inventory members; over the other
    fields, the simple and regular Lambda-modules, the simple Kronecker
    modules, the regular R_a(n) and one preprojective of dim 3.
    """
    lam, kron = oracle_algebras(field)[:2]
    if field.is_prime_field and field.p <= 3:
        return {
            "lam": enumerate_indecomposables(lam, 2).members,
            "kron": enumerate_indecomposables(kron, 3).members,
        }
    one, zero = Mat.identity(field, 1), Mat.zeros(field, 1, 1)
    rows = functools.partial(Mat.from_rows, field)
    kron_members = [
        kronecker_rep(kron, Mat.zeros(field, 1, 0), Mat.zeros(field, 1, 0)),
        kronecker_rep(kron, Mat.zeros(field, 0, 1), Mat.zeros(field, 0, 1)),
        kronecker_rep(kron, one, zero),
        kronecker_rep(kron, zero, one),
        kronecker_rep(kron, rows([[1, 0]]), rows([[0, 1]])),
        regular_kronecker(field, 1, 2),
        regular_kronecker(field, 0, 2),
    ]
    return {"lam": [simple_lambda_module(lam), regular_module(lam)], "kron": kron_members}


@st.composite
def iso_pairs(draw, field):
    """(m, n, known): m a member or a sum of two, n of the same dim in a
    random basis, isomorphic to m about half the time; known is m's
    trivial decomposition when m is a member, else None."""
    members = indecomposables(field)[draw(st.sampled_from(["lam", "kron"]))]
    sums = [direct_sum(a, b)[0] for i, a in enumerate(members) for b in members[i:]]
    m = draw(st.sampled_from(members + sums))
    others = [x for x in members + sums if x.dim == m.dim and x is not m]
    n = conjugate(draw, m if not others or draw(st.booleans()) else draw(st.sampled_from(others)))
    known = [(m, identity_map(m), identity_map(m))] if m in members else None
    return m, n, known


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_iso_test_matches_the_summand_test(case, data):
    field = ORACLE_FIELDS[case]
    m, n, _ = data.draw(iso_pairs(field))
    seed = data.draw(st.integers(0, 3))
    # a budget of 1 leaves m uncertified unless dim End = 1, so n is certified
    indec = indecomposability(m, seed, budget=data.draw(st.sampled_from([1, 1 << 17])))
    got = outcome(iso_test, m, n, seed, indec)
    want = outcome(ref_iso_test, m, n, seed, indec)
    if indec.status == "indecomposable" or got[0] == "raised":
        assert got == want
    else:
        assert got[0] == want[0] and (got[1] is None) == (want[1] is None)
    if got[0] == "returned" and got[1] is not None:
        w = iso_test(m, n, seed, indec)
        assert w.source is m and w.target is n
        assert w.matrix.is_invertible() and w.intertwines()


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_rad_hom_matches_the_summand_test(case, data):
    field = ORACLE_FIELDS[case]
    m, n, known = data.draw(iso_pairs(field))
    assert outcome(rad_hom, m, n) == outcome(ref_rad_hom, m, n)
    if known is not None:
        # m and its random-basis copy n are indecomposable, if not certified
        args = dict(decomp_m=known, decomp_n=[(n, identity_map(n), identity_map(n))])
        assert outcome(rad_hom, m, n, **args) == outcome(ref_rad_hom, m, n, **args)


@pytest.mark.parametrize("case", sorted(ORACLE_FIELDS))
@ORACLE
@given(data=st.data())
def test_first_iso_is_the_split_injection_of_the_summand_test(case, data):
    field = ORACLE_FIELDS[case]
    m, n, known = data.draw(iso_pairs(field))
    if known is None:
        # a decomposable m: any invertible map found is an isomorphism
        w = _first_iso(m, n)
        assert w is None or (w.matrix.is_invertible() and w.intertwines())
        return
    assert bits(_first_iso(m, n)) == bits(ref_first_iso(m, n))


# the linear quiver 3 -> 2 -> 1: its two dim-2 members have a nonzero map
# between them, so an inventory that took any basis map for an
# isomorphism would lose one
LINEAR_A3 = QuiverSpec(3, [(2, 1, "a"), (3, 2, "b")], cap=3)


@pytest.mark.parametrize(
    "algebra, cap",
    [
        (kronecker_algebra(GF(2)), 4),
        (three_kronecker(GF(2)), 3),
        (algebra_from_quiver(LINEAR_A3, GF(2)), 3),
    ],
    ids=["kronecker-cap4", "k3-cap3", "a3-cap3"],
)
def test_inventory_matches_the_summand_test(algebra, cap, monkeypatch):
    inv = enumerate_indecomposables(algebra, cap)
    report = verify_completeness(inv, cap)
    assert report["ok"]
    monkeypatch.setattr(inventory, "_first_iso", ref_first_iso)
    ref = enumerate_indecomposables(algebra, cap)
    assert [m.action for m in inv] == [m.action for m in ref]
    assert verify_completeness(ref, cap) == report
