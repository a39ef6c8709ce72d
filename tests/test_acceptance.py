"""The acceptance gate: every criterion must pass at its stated tolerance.

The full suite runs once per session; each test asserts one criterion
and prints its pass/fail line.  Determinism and the 10-minute budget are
part of criterion 10 (which reruns the other nine internally).
"""

import hashlib
import re
from pathlib import Path
from unittest import mock

import pytest

from ppcalc import acceptance
from ppcalc.acceptance import CRITERIA_NAMES, RunConfig, render_json, render_text, run_acceptance
from ppcalc.controlled import EmbeddingData, inverse_interp, roundtrip_check
from ppcalc.examples import kronecker_algebra, lambda_algebra
from ppcalc.interp import apply_interp, hom_interp_data, isolating_pair
from ppcalc.inventory import direct_sums_up_to, enumerate_indecomposables, sum_combos
from ppcalc.linalg import GF
from ppcalc.modules import is_direct_summand, tensor_over

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def report():
    return run_acceptance(RunConfig(seed=0))


def _get(report, cid):
    for c in report["criteria"]:
        if c["id"] == cid:
            return c
    raise AssertionError(f"criterion {cid} missing from the report")


@pytest.mark.parametrize("cid", sorted(CRITERIA_NAMES))
def test_criterion(report, cid, capsys):
    c = _get(report, cid)
    status = "PASS" if c["passed"] else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {cid:>2}: {status}  {CRITERIA_NAMES[cid]}")
    assert c["passed"], c["details"]


def test_criterion_1_sample_is_substantial(report):
    d = _get(report, 1)["details"]
    assert d["sample_size"] >= 10
    # the one-variable pp lattice of k[x]/(x^2) is a four-element chain and
    # the sample covers all of it
    assert d["equivalence_classes"] == 4
    assert d["pairs_checked"] >= 55
    assert d["runtime_under_60s"]


def test_criterion_2_has_strict_pairs(report):
    assert _get(report, 2)["details"]["strict_pairs"] > 0


def test_criterion_4_covers_both_algebras(report):
    assert _get(report, 4)["details"]["subjects"] == 10


@pytest.fixture(scope="module")
def gf3_inventories():
    """Criterion 4's GF(3) inventories at cap 3."""
    makes = {"lambda": lambda_algebra, "kronecker": kronecker_algebra}
    return {name: enumerate_indecomposables(make(GF(3)), 3, seed=0) for name, make in makes.items()}


def isolating(subject, members):
    return isolating_pair(subject, subject.basis_vector(0), members, 0)


@pytest.mark.parametrize("name", ["lambda", "kronecker"])
def test_criterion_4_sums_follow_from_their_members(gf3_inventories, name):
    # criterion 4 decides each sum from the members; the direct tests on
    # every built sum must agree with that derivation
    inv = gf3_inventories[name]
    sums = list(direct_sums_up_to(inv, 3, 6))
    assert [combo for _, combo in sums] == list(sum_combos(inv, 3, 6))
    pairs = 0
    for subject in inv.members:
        iso = isolating(subject, inv.members)
        opens = [iso.open_on(x) for x in inv.members]
        summands = [is_direct_summand(subject, x)[0] for x in inv.members]
        for l_mod, combo in sums:
            assert iso.open_on(l_mod) == any(opens[i] for i in combo), combo
            assert is_direct_summand(subject, l_mod)[0] == any(summands[i] for i in combo), combo
            pairs += 1
    # 2 subjects x 10 sums over Lambda, 8 x 123 over Kronecker: 1,004 in all
    assert pairs == {2: 20, 8: 984}[len(inv.members)]


def test_criterion_4_catches_the_isolating_pair_of_another_member(gf3_inventories):
    # negative control: member 2's pair checked as if it isolated member 3
    # (both dim 2) opens on sums that member 3 is not a summand of
    inv = gf3_inventories["kronecker"]
    two, three = inv.members[2], inv.members[3]
    assert two.dim == three.dim == 2
    iso = isolating(two, inv.members)
    derived = acceptance._subject_failures(3, three, iso, inv.members, list(sum_combos(inv, 3, 6)))
    direct = [
        {"subject": 3, "sum": list(combo), "reason": "isolation"}
        for l_mod, combo in direct_sums_up_to(inv, 3, 6)
        if iso.open_on(l_mod) != is_direct_summand(three, l_mod)[0]
    ]
    assert derived == direct
    assert len(derived) == 54 and derived[0]["sum"] == [2]


def test_criterion_4_reports_bounds_before_sums(gf3_inventories):
    # a pair whose top formula has the arity of another dimension fails the
    # bounds check, and its sums are then not tested
    inv = gf3_inventories["lambda"]
    simple, regular = inv.members
    iso = isolating(regular, inv.members)
    got = acceptance._subject_failures(0, simple, iso, inv.members, list(sum_combos(inv, 3, 6)))
    assert got == [{"subject": 0, "reason": "bounds"}]


def test_criterion_5_exact_dimensions(report):
    rows = _get(report, 5)["details"]["modules"]
    dims = {r["module_dim"]: r["image_dim"] for r in rows}
    assert dims == {1: 1, 2: 2}


def test_criterion_5_round_trip_fails_under_the_forget_x_bimodule(lam2, forget_x2):
    # negative control: the inverse data of a functor that forgets x does
    # not bring back either member of Lambda's inventory
    emb = EmbeddingData(forget_x2, control=None)
    data = inverse_interp(emb)
    reports = [roundtrip_check(emb, n, data, 0) for n in enumerate_indecomposables(lam2, 2, seed=0).members]
    assert [r["ok"] for r in reports] == [False, False]
    assert [r["dims"] for r in reports] == [[1, 2], [2, 4]]
    assert [r["witness"] for r in reports] == [None, None]


def test_criterion_6_simple_is_not_a_summand_under_the_forget_x_bimodule(lam2, forget_x2):
    # negative control: the simple module is lost from its double image,
    # while the regular module is still a summand of its own
    data = hom_interp_data(forget_x2)
    simple, regular = enumerate_indecomposables(lam2, 2, seed=0).members
    doubles = [
        apply_interp(data, tensor_over(n, forget_x2).module, check=False).module
        for n in (simple, regular)
    ]
    assert doubles[0].dim == 2
    assert is_direct_summand(simple, doubles[0]) == (False, None)
    assert is_direct_summand(regular, doubles[1])[0]


def test_criterion_7_bound_values(report):
    d = _get(report, 7)["details"]
    assert d["n_d"] == 40 and d["c_sigma"] == 38
    assert d["modules_checked"] == 11


def test_criterion_8_reference_integers(report):
    d = _get(report, 8)["details"]
    assert d["n_1"] == 16 and d["b_1"] == 72


def test_criterion_9_proper_domain(report):
    d = _get(report, 9)["details"]
    assert d["pair_count"] == 8  # p^2 + 2p with p = 2
    assert len(d["open_on_outside_module"]) >= 1


def test_criterion_10_flags(report):
    d = _get(report, 10)["details"]
    assert d["inventory_dims"] == [1, 2]
    assert d["deterministic_reruns"]
    assert d["runtime_under_10min"]


def test_suite_passes_and_renders(report):
    assert report["passed"]
    text = render_text(report)
    assert text.count("PASS") == 11  # ten criteria plus the suite line


def core_body_sha256(report):
    """The sha256 of criteria 1-9 as the benchmark hashes them (a core pass names none)."""
    core = [{k: v for k, v in c.items() if k != "name"} for c in report["criteria"] if c["id"] <= 9]
    return hashlib.sha256(render_json({"criteria": core}).encode()).hexdigest()


def pinned_core_sha256():
    return re.search(r'^CORE_BODY_SHA256 = "([0-9a-f]{64})"$', WORKLOADS.read_text(), re.M).group(1)


def test_core_body_is_byte_identical(report):
    assert core_body_sha256(report) == pinned_core_sha256()


def test_timings_sit_beside_the_criteria(report):
    # one wall time per criterion, outside the deterministic body
    timings = report["timings"]
    assert sorted(timings) == list(range(1, 11))
    assert all(isinstance(s, float) and s >= 0 for s in timings.values())
    # criterion 10 reruns criteria 1-9, so it takes about their sum (half is a loose floor)
    assert timings[10] >= 0.5 * sum(timings[c] for c in range(1, 10))
    assert all("timings" not in c and "seconds" not in c["details"] for c in report["criteria"])
    assert "timings" not in render_text(report) and "timings" in render_json(report)
    # a report with timings keeps the pinned criteria body
    assert core_body_sha256(report) == pinned_core_sha256()


def test_run_core_is_the_plain_criteria_list():
    criteria = [{"id": i} for i in range(1, 10)]
    with mock.patch.object(acceptance, "_core_criteria", lambda cfg: iter(criteria)):
        assert acceptance._run_core(RunConfig()) == criteria


def test_run_config_is_an_immutable_value():
    assert RunConfig() == RunConfig(0, 10**7) == RunConfig(seed=0)
    assert RunConfig(3).seed == 3 and RunConfig(3).budget == 10**7
    assert RunConfig(budget=5) == (0, 5)
    with pytest.raises(AttributeError):
        RunConfig().seed = 1


def test_core_pass_builds_four_inventories():
    # the GF(2) case (caps 4) and the GF(3) case (caps 3) hold every
    # inventory criteria 1-9 read
    with mock.patch.object(
        acceptance, "enumerate_indecomposables", wraps=enumerate_indecomposables
    ) as spy:
        acceptance._run_core(RunConfig())
    built = [(str(c.args[0].field), c.args[0].labels, c.args[1]) for c in spy.call_args_list]
    lam, kron = ["e1", "x"], ["e1", "e2", "a", "b"]
    assert built == [("GF(2)", lam, 4), ("GF(2)", kron, 4), ("GF(3)", lam, 3), ("GF(3)", kron, 3)]


def test_criterion_9_fails_under_the_forget_x_bimodule(forget_x2):
    # negative control: the vertex-2 data does not bring the regular module
    # back from its image under a functor that forgets x; the vertex-2
    # simple is outside the domain whatever the bimodule
    cfg = RunConfig()
    case = acceptance._lambda_case(cfg, GF(2), 2)._replace(bim=forget_x2)
    c9 = acceptance._criterion_9(cfg, case)
    assert not c9["passed"]
    rows = c9["details"]["image_modules"]
    assert [(r["module_dim"], r["recovers_source"]) for r in rows] == [(1, True), (2, False)]
    assert c9["details"]["open_on_outside_module"] == [
        "welldef1[x]", "compose[e1,e1]", "compose[e1,x]", "compose[x,e1]", "compose[x,x]",
    ]


@pytest.fixture(scope="module")
def wild_case():
    """S = k<x,y>/(x,y)^2 into the 3-Kronecker quiver over GF(2), S at cap 2 and K_3 at cap 3."""
    from ppcalc.examples import embedding_bimodule
    from test_lattice import wild_algebras

    s, k3 = wild_algebras(GF(2))
    s_inv, k3_inv = (enumerate_indecomposables(a, cap, seed=0) for a, cap in ((s, 2), (k3, 3)))
    return acceptance.Case(s, k3, embedding_bimodule(s, k3), s_inv, k3_inv)


def test_criteria_5_and_6_pass_on_the_wild_case(wild_case):
    c5, c6 = acceptance._criterion_5_6(RunConfig(), wild_case)
    assert c5["passed"] and c6["passed"]
    assert [r["module_dim"] for r in c5["details"]["modules"]] == [1, 2, 2, 2]


def test_criterion_7_passes_on_the_wild_case(wild_case):
    c7 = acceptance._criterion_7(RunConfig(), wild_case)
    assert c7["passed"]
    assert c7["details"] == {"c_sigma": 78, "n_d": 81, "modules_checked": 23, "mismatches": []}


def test_criterion_9_passes_on_the_wild_case(wild_case):
    c9 = acceptance._criterion_9(RunConfig(), wild_case)
    assert c9["passed"]
    d = c9["details"]
    assert d["pair_count"] == 15  # p^2 + 2p with p = 3
    assert [r["recovers_source"] for r in d["image_modules"]] == [True] * 4
    assert len(d["open_on_outside_module"]) == 11
