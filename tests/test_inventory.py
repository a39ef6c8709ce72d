import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ppcalc.algebra import Algebra, QuiverSpec, algebra_from_quiver
from ppcalc.examples import kronecker_algebra, lambda_algebra
from ppcalc.inventory import (
    _BATCH_LIMIT,
    BudgetExceeded,
    Inventory,
    _absolute_counts,
    _compositions,
    _digits,
    _ext_classes,
    _ExtensionCounts,
    _generating_data,
    _kac_counts,
    _middle_terms,
    _naive_candidates,
    _radical_covers,
    _vector_candidates,
    direct_sums_up_to,
    enumerate_indecomposables,
    verify_completeness,
)
from ppcalc.linalg import GF, Mat
from ppcalc.modules import (
    FDModule,
    ModuleError,
    hom_space,
    indecomposability,
    is_direct_summand,
    iso_test,
    regular_module,
    validate_module,
)


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


@pytest.mark.parametrize("cap", [-1, -3])
def test_negative_cap_raises(lam2, cap):
    # a negative cap gave an empty inventory, as if it were 0, and up_to
    # took one
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_indecomposables(lam2, cap, seed=0)
    with pytest.raises(ValueError, match="non-negative"):
        enumerate_indecomposables(lam2, 2, seed=0).up_to(cap)


def quiver_candidates(algebra, d):
    """Every module of dimension d, its dimension vectors in lexicographic order."""
    return itertools.chain.from_iterable(
        _vector_candidates(algebra, comp) for comp in _compositions(d, algebra.quiver.n_vertices)
    )


def reference_candidates(algebra, d):
    """The arrow matrices of every d-dimensional module, one assignment at a
    time: dimension vectors in lexicographic order, and within each the
    assignments counted in base p with digit 0 (the first entry of the
    first arrow's block, row by row) fastest."""
    q, p = algebra.quiver, algebra.field.p
    out = []
    for comp in itertools.product(range(d + 1), repeat=q.n_vertices):
        if sum(comp) != d:
            continue
        offs = np.cumsum((0,) + comp)
        shapes = [(comp[s - 1], comp[t - 1]) for s, t, _ in q.arrows]
        k = sum(r * c for r, c in shapes)
        for combo in itertools.product(range(p), repeat=k):
            digits = combo[::-1]
            mats, pos = {}, 0
            for (s, t, lab), (r, c) in zip(q.arrows, shapes):
                full = np.zeros((d, d), dtype=np.int64)
                block = np.array(digits[pos : pos + r * c], dtype=np.int64).reshape(r, c)
                full[offs[s - 1] : offs[s - 1] + r, offs[t - 1] : offs[t - 1] + c] = block
                mats[lab] = full
                pos += r * c
            holds = True
            for rel in q.relations:
                acc = np.zeros((d, d), dtype=np.int64)
                for coeff, word in rel:
                    prod = np.eye(d, dtype=np.int64)
                    for lab in word:
                        prod = prod @ mats[lab] % p
                    acc = (acc + coeff * prod) % p
                holds = holds and not acc.any()
            if holds:
                out.append([mats[lab].tolist() for _, _, lab in q.arrows])
    return out


@pytest.mark.parametrize(
    "make, p, d, assignments",
    [
        (lambda_algebra, 2, 3, [512]),  # one partial block
        (lambda_algebra, 2, 4, [65536]),  # sixteen full blocks
        (lambda_algebra, 3, 3, [19683]),  # five blocks, the last partial
        (kronecker_algebra, 2, 5, [1, 256, 4096, 4096, 256, 1]),  # exactly one block
        (kronecker_algebra, 3, 4, [1, 729, 6561, 729, 1]),  # two blocks
    ],
)
def test_quiver_candidates_match_brute_force(make, p, d, assignments):
    assert _BATCH_LIMIT == 4096  # the cases are sized around one block
    algebra = make(GF(p))
    q = algebra.quiver
    arrows = [algebra.labels.index(lab) for _, _, lab in q.arrows]
    got = [[m.action[i].to_rows() for i in arrows] for m in quiver_candidates(algebra, d)]
    want = reference_candidates(algebra, d)
    if not q.relations:
        assert len(want) == sum(assignments)
    assert got == want


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


def test_completeness_lambda_without_the_regular_module_fails(lam2):
    # negative control: every dim-2 module decomposes into members only if
    # the regular module is one of them
    inv = enumerate_indecomposables(lam2, 2, seed=0)
    partial = Inventory(lam2, 2, [m for m in inv.members if m.dim != 2])
    report = verify_completeness(partial, 2, seed=0)
    assert not report["ok"]
    assert [(d["dim"], d["ok"]) for d in report["dims"]] == [(1, True), (2, False)]


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


def test_arrowless_quiver_candidates_and_inventory():
    # two vertices and no arrows: one candidate per dimension vector, acting
    # by the two vertex idempotents; the members are the two simples
    from ppcalc.algebra import QuiverSpec, algebra_from_quiver

    algebra = algebra_from_quiver(QuiverSpec(2, []), GF(2))
    assert algebra.labels == ["e1", "e2"]
    for d in range(1, 4):
        got = [[a.to_rows() for a in m.action] for m in quiver_candidates(algebra, d)]
        want = [
            [np.diag([1] * i + [0] * (d - i)).tolist(), np.diag([0] * i + [1] * (d - i)).tolist()]
            for i in range(d + 1)
        ]
        assert got == want
    inv = enumerate_indecomposables(algebra, 3, seed=0)
    assert [[a.to_rows() for a in m.action] for m in inv.members] == [[[[0]], [[1]]], [[[1]], [[0]]]]


def test_quiver_candidates_take_blocks_of_at_most_the_limit(monkeypatch):
    from ppcalc import inventory

    sizes = []

    def counted(start, stop, base, width):
        sizes.append(stop - start)
        return _digits(start, stop, base, width)

    monkeypatch.setattr(inventory, "_digits", counted)
    for _ in quiver_candidates(lambda_algebra(GF(3)), 3):
        pass
    # one 3 x 3 loop over GF(3): 3^9 assignments, five blocks
    assert sum(sizes) == 3**9 and len(sizes) == 5
    assert max(sizes) <= _BATCH_LIMIT


def ref_naive_candidates(algebra, d, gen_data):
    """_naive_candidates one itertools.product tuple at a time (last entry fastest)."""
    gens, recipes, coords = gen_data
    field = algebra.field
    n_entries = len(gens) * d * d
    for combo in itertools.product(range(field.p), repeat=n_entries):
        gmats = []
        for g in range(len(gens)):
            block = combo[g * d * d : (g + 1) * d * d]
            gmats.append(Mat.from_rows(field, [list(block[i * d : (i + 1) * d]) for i in range(d)]))
        mats = []
        for recipe in recipes:
            if recipe[0] == "one":
                mats.append(Mat.identity(field, d))
            elif recipe[0] == "gen":
                mats.append(gmats[recipe[1]])
            else:
                mats.append(mats[recipe[1]] @ mats[recipe[2]])
        flat = coords @ Mat.flat_stack(mats)
        cand = FDModule(algebra, d, [flat.row(b).reshape(d, d) for b in range(algebra.dim)])
        if validate_module(cand).ok:
            yield cand


def structure_constant_copy(algebra):
    return Algebra(algebra.field, algebra.labels, algebra.one, algebra.mul)


@pytest.mark.parametrize(
    "make, p, dims",
    [(lambda_algebra, 2, (1, 2)), (lambda_algebra, 3, (1, 2)), (kronecker_algebra, 2, (1, 2))],
)
def test_naive_candidates_keep_product_order(make, p, dims):
    algebra = structure_constant_copy(make(GF(p)))
    gen_data = _generating_data(algebra)
    assert algebra.quiver is None and len(gen_data[0]) >= 1
    for d in dims:
        got = [m.action for m in _naive_candidates(algebra, d, gen_data)]
        want = [m.action for m in ref_naive_candidates(algebra, d, gen_data)]
        assert got and got == want


def test_naive_candidates_across_blocks(monkeypatch):
    from ppcalc import inventory

    # Lambda over GF(3) at dim 2: 3^4 = 81 assignments, in twelve blocks of at most 7
    algebra = structure_constant_copy(lambda_algebra(GF(3)))
    gen_data = _generating_data(algebra)
    want = [m.action for m in ref_naive_candidates(algebra, 2, gen_data)]
    monkeypatch.setattr(inventory, "_BATCH_LIMIT", 7)
    assert want and [m.action for m in _naive_candidates(algebra, 2, gen_data)] == want


# -- Kac's counts by Hua's formula, and the stop rule they give ------------

KRONECKER = QuiverSpec(2, [(1, 2, "a"), (1, 2, "b")])
K3 = QuiverSpec(2, [(1, 2, "a"), (1, 2, "b"), (1, 2, "c")])
A2 = QuiverSpec(2, [(1, 2, "a")])
A3 = QuiverSpec(3, [(1, 2, "a"), (2, 3, "b")], cap=3)
D4 = QuiverSpec(4, [(1, 4, "a"), (2, 4, "b"), (3, 4, "c")])
ARROWLESS = QuiverSpec(2, [])


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_kac_polynomials_in_closed_form(q):
    kron = _absolute_counts(KRONECKER, q, 5)
    assert [kron[(n, n)] for n in (1, 2)] == [q + 1, q + 1]
    assert [kron[(n, n + 1)] for n in (0, 1, 2)] == [1, 1, 1]
    # the Jordan loop x, with no relation: one nilpotent class per size
    # and q eigenvalues
    assert _absolute_counts(QuiverSpec(1, [(1, 1, "x")]), q, 4) == {(n,): q for n in range(1, 5)}
    k3 = _absolute_counts(K3, q, 3)
    assert k3[(1, 1)] == k3[(1, 2)] == q * q + q + 1
    # Dynkin quivers (Gabriel): 1 on the positive roots, 0 elsewhere
    roots = {
        A2: {(1, 0), (0, 1), (1, 1)},
        A3: {(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)},
    }
    for quiver, positive in roots.items():
        values = _absolute_counts(quiver, q, 4)
        assert len(values) > len(positive)
        assert {alpha: int(alpha in positive) for alpha in values} == values


def no_stop_inventory(algebra, cap, seed=0):
    """The inventory walk without the stop rule: every candidate of each
    dimension is decided and tested against every member of that
    dimension.  Returns the members, their dimension vectors, and, per
    dimension vector, the position among its candidates of its last member."""
    members, vectors, seen, last = [], [], Counter(), {}
    for d in range(1, cap + 1):
        for cand in quiver_candidates(algebra, d):
            vector = dimension_vector(cand)
            seen[vector] += 1
            res = indecomposability(cand, seed)
            assert res.status != "probably-indecomposable"
            if res.status != "indecomposable":
                continue
            if not any(iso_test(cand, m, seed, res) for m in members if m.dim == d):
                members.append(cand)
                vectors.append(vector)
                last[vector] = seen[vector]
    return members, vectors, last


def dimension_vector(module):
    """The ranks of the vertex idempotents' actions on a module over a quiver algebra."""
    algebra = module.algebra
    return tuple(
        module.action[algebra.labels.index(f"e{i}")].rank()
        for i in range(1, algebra.quiver.n_vertices + 1)
    )


@pytest.mark.parametrize(
    "quiver, p, cap, size",
    [
        (KRONECKER, 2, 5, 13),
        (KRONECKER, 3, 3, 8),
        (K3, 2, 3, 23),
        (K3, 3, 3, 41),
        (A3, 2, 3, 6),
        (D4, 2, 3, 10),
        (ARROWLESS, 2, 3, 2),
    ],
    ids=["kronecker-gf2-cap5", "kronecker-gf3-cap3", "k3-gf2-cap3", "k3-gf3-cap3",
         "a3-gf2-cap3", "d4-gf2-cap3", "arrowless-gf2-cap3"],
)
def test_kac_stop_keeps_the_no_stop_inventory(quiver, p, cap, size):
    algebra = algebra_from_quiver(quiver, GF(p))
    want, vectors, last = no_stop_inventory(algebra, cap)
    inv = enumerate_indecomposables(algebra, cap, seed=0)
    assert len(want) == size
    assert [m.action for m in inv.members] == [m.action for m in want]
    # the reference's per-vector counts are Kac's, with 0 on the others
    kac = _kac_counts(quiver, p, cap)
    assert set(kac) == {c for d in range(1, cap + 1) for c in _compositions(d, quiver.n_vertices)}
    assert {alpha: Counter(vectors)[alpha] for alpha in kac} == kac
    # each vector with members is walked up to its last member, and no further;
    # a vector with none is not walked
    assert inv.decided == sum(last.values())
    assert inv.assignments == sum(
        p ** sum(c[s - 1] * c[t - 1] for s, t, _ in quiver.arrows) for c in kac
    )


def test_kac_stop_raises_when_a_vector_runs_out(monkeypatch):
    # negative control: a count one too high at (1, 1) cannot be met, since
    # the Kronecker quiver has three indecomposables there over GF(2)
    from ppcalc import inventory

    def over_count(quiver, p, cap):
        counts = _kac_counts(quiver, p, cap)
        counts[(1, 1)] += 1
        return counts

    monkeypatch.setattr(inventory, "_kac_counts", over_count)
    with pytest.raises(ModuleError, match=r"dimension vector \(1, 1\) has 3 .* count 4"):
        enumerate_indecomposables(kronecker_algebra(GF(2)), 2, seed=0)


# -- quivers with relations: walked per vector, stopped at extension counts ---

A3_AB_ZERO = QuiverSpec(3, [(1, 2, "a"), (2, 3, "b")], relations=[[(1, ["a", "b"])]])
COMMUTATIVE_SQUARE = QuiverSpec(
    4,
    [(1, 2, "a"), (2, 4, "b"), (1, 3, "c"), (3, 4, "d")],
    relations=[[(1, ["a", "b"]), (-1, ["c", "d"])]],
    cap=3,
)
LOOP_AND_ARROW = QuiverSpec(
    2, [(1, 1, "x"), (1, 2, "a")], relations=[[(1, ["x", "x"])], [(1, ["x", "a"])]]
)


TWO_LOOPS_RAD2 = QuiverSpec(  # S = k<x, y>/(x, y)^2
    1,
    [(1, 1, "x"), (1, 1, "y")],
    relations=[[(1, [a, b])] for a in "xy" for b in "xy"],
)


@pytest.mark.parametrize(
    "quiver, p, cap, size, decided, assignments",
    [
        (A3_AB_ZERO, 2, 3, 5, 7, 36),
        (A3_AB_ZERO, 3, 3, 5, 7, 63),
        (COMMUTATIVE_SQUARE, 2, 3, 10, 20, 74),
        (LOOP_AND_ARROW, 2, 3, 5, 12, 609),
        (TWO_LOOPS_RAD2, 2, 3, 6, 34, 262404),
    ],
    ids=["a3-ab-gf2-cap3", "a3-ab-gf3-cap3", "square-gf2-cap3", "loop-arrow-gf2-cap3",
         "two-loops-rad2-gf2-cap3"],
)
def test_relations_walk_per_vector_keeps_the_per_dimension_inventory(
    quiver, p, cap, size, decided, assignments
):
    algebra = algebra_from_quiver(quiver, GF(p))
    want, _, last = no_stop_inventory(algebra, cap)
    inv = enumerate_indecomposables(algebra, cap, seed=0)
    assert len(want) == size
    assert [m.action for m in inv.members] == [m.action for m in want]
    # each vector's walk stops at its last member, and a vector with no
    # member is not walked
    assert inv.decided == sum(last.values()) == decided
    assert inv.assignments == assignments == sum(
        p ** sum(c[s - 1] * c[t - 1] for s, t, _ in quiver.arrows)
        for d in range(1, cap + 1)
        for c in _compositions(d, quiver.n_vertices)
    )


@pytest.mark.parametrize("p, cap, decided", [(2, 4, 3), (3, 3, 3)])
def test_lambda_inventory_skips_the_dimensions_without_members(p, cap, decided):
    # the extension counts of (3,) and (4,) are 0: Ext^1(S, Lambda) = 0,
    # and every extension of S by a sum of copies of S splits off a copy
    inv = enumerate_indecomposables(lambda_algebra(GF(p)), cap, seed=0)
    assert [m.dim for m in inv.members] == [1, 2]
    assert inv.decided == decided


def test_ext_classes_are_made_once_per_vertex_and_member(monkeypatch):
    # the commutative square over GF(2) at cap 3 asks for 32 distinct
    # (vertex, member) pairs over its vectors of dims 2 and 3; remaking
    # them for every vector made 96 calls
    from ppcalc import inventory

    calls = []
    monkeypatch.setattr(inventory, "_ext_classes", lambda cover, k: calls.append((id(cover), id(k))) or _ext_classes(cover, k))
    inv = enumerate_indecomposables(algebra_from_quiver(COMMUTATIVE_SQUARE, GF(2)), 3, seed=0)
    assert len(inv.members) == 10
    assert len(calls) == len(set(calls)) == 32


@pytest.mark.parametrize(
    "algebra, cap, middle_terms, decided",
    [
        (lambda_algebra(GF(2)), 4, 4, 3),
        (algebra_from_quiver(TWO_LOOPS_RAD2, GF(2)), 3, 16, 34),
        (algebra_from_quiver(KRONECKER, GF(2)), 3, 0, None),
    ],
    ids=["lambda-gf2-cap4", "two-loops-rad2-gf2-cap3", "kronecker-gf2-cap3"],
)
def test_inventory_counts_the_middle_terms_it_decides(monkeypatch, algebra, cap, middle_terms, decided):
    # every middle term _middle_terms yields is decided by indecomposability;
    # decided keeps counting the walk candidates alone
    from ppcalc import inventory

    yielded = []
    monkeypatch.setattr(inventory, "_middle_terms",
                        lambda cover, summands: (yielded.append(e) or e for e in _middle_terms(cover, summands)))
    inv = enumerate_indecomposables(algebra, cap, seed=0)
    assert inv.middle_terms == len(yielded) == middle_terms
    if decided is not None:
        assert inv.decided == decided
    assert inv.up_to(cap - 1).middle_terms is None


def test_extension_stop_raises_when_a_vector_runs_out(monkeypatch):
    # negative control: a count one too high at (2,) cannot be met, since
    # Lambda has one indecomposable there, the regular module
    from ppcalc import inventory

    count = _ExtensionCounts.__call__

    def over_count(counts, alpha):
        return count(counts, alpha) + (alpha == (2,))

    monkeypatch.setattr(inventory._ExtensionCounts, "__call__", over_count)
    with pytest.raises(ModuleError, match=r"dimension vector \(2,\) has 1 .* count 2"):
        enumerate_indecomposables(lambda_algebra(GF(2)), 2, seed=0)


def extension_counts(algebra, cap):
    """_ExtensionCounts at every vector of total dimension <= cap, from the
    members of the algebra's inventory at cap - 1."""
    inv = enumerate_indecomposables(algebra, cap - 1, seed=0)
    count = _ExtensionCounts(algebra, [(dimension_vector(m), m) for m in inv.members], 0)
    return {
        alpha: count(alpha)
        for d in range(1, cap + 1)
        for alpha in _compositions(d, algebra.quiver.n_vertices)
    }


@pytest.mark.parametrize(
    "quiver, p, cap",
    [(KRONECKER, 2, 4), (KRONECKER, 3, 3), (K3, 2, 3), (A3, 2, 3), (A3, 3, 3)],
    ids=["kronecker-gf2-cap4", "kronecker-gf3-cap3", "k3-gf2-cap3", "a3-gf2-cap3", "a3-gf3-cap3"],
)
def test_extension_counts_equal_kac_counts(quiver, p, cap):
    # two independent counts of the same indecomposables: Hua's formula,
    # and the middle terms of extensions of the members below
    assert extension_counts(algebra_from_quiver(quiver, GF(p)), cap) == _kac_counts(quiver, p, cap)


@pytest.mark.parametrize("p, cap", [(2, 3), (3, 2)])
def test_extension_counts_of_rad_square_zero_equal_the_kronecker_counts(p, cap):
    # the separated quiver of S = k<x, y>/(x, y)^2 is the Kronecker quiver:
    # the indecomposables of S of dimension d >= 2 match those of the
    # Kronecker quiver of total dimension d (Auslander, Reiten and Smaloe,
    # Representation Theory of Artin Algebras, X.2)
    counts = extension_counts(algebra_from_quiver(TWO_LOOPS_RAD2, GF(p)), cap)
    kac = _kac_counts(KRONECKER, p, cap)
    assert counts[(1,)] == 1
    for d in range(2, cap + 1):
        assert counts[(d,)] == sum(n for alpha, n in kac.items() if sum(alpha) == d)


@pytest.mark.parametrize(
    "quiver, p",
    [(QuiverSpec(1, [(1, 1, "x")], relations=[[(1, ["x", "x"])]]), 3), (TWO_LOOPS_RAD2, 2),
     (LOOP_AND_ARROW, 3), (A3_AB_ZERO, 2)],
    ids=["lambda-gf3", "two-loops-rad2-gf2", "loop-arrow-gf3", "a3-ab-gf2"],
)
def test_middle_terms_are_one_per_point_of_the_nonzero_ext_parts(quiver, p):
    # dim Ext^1(S_v, K) = dim Hom(Omega_v, K) - dim Hom(P_v, K) + dim Hom(S_v, K),
    # from Hom(-, K) on 0 -> Omega_v -> P_v -> S_v -> 0; the middle terms of
    # K_1 + ... + K_r are one per projective point of each Ext^1(S_v, K_i)
    algebra = algebra_from_quiver(quiver, GF(p))
    members = enumerate_indecomposables(algebra, 2, seed=0).members
    for cover in _radical_covers(algebra):
        proj, omega = cover[:2]
        [simple] = _middle_terms(cover, [])
        assert simple.dim == 1
        ext = {}
        for k in members:
            dims = [len(hom_space(a, k)) for a in (omega, proj, simple)]
            ext[id(k)] = dims[0] - dims[1] + dims[2]
            assert len(_ext_classes(cover, k)) == ext[id(k)]
        for combo in itertools.combinations_with_replacement(members, 2):
            if not all(ext[id(k)] for k in combo):
                continue
            summands = [(k, _ext_classes(cover, k)) for k in combo]
            middles = list(_middle_terms(cover, summands))
            assert len(middles) == math.prod((p ** ext[id(k)] - 1) // (p - 1) for k in combo)
            for middle in middles:
                assert validate_module(middle).ok
                assert middle.dim == 1 + sum(k.dim for k in combo)


def test_completeness_two_loops_rad2_gf2_cap3():
    # every module of dimension <= 3 decomposes into the members that the
    # extension counts stopped at, and every multiset of them occurs
    algebra = algebra_from_quiver(TWO_LOOPS_RAD2, GF(2))
    report = verify_completeness(enumerate_indecomposables(algebra, 3, seed=0), 3, seed=0)
    assert report["ok"]
    # members by dimension 1, 3, 2: dim 2 holds S + S and three members,
    # dim 3 S + S + S, S plus each dim-2 member and two members
    assert [d["iso_classes"] for d in report["dims"]] == [1, 4, 6]
