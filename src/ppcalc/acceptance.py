"""The acceptance suite: ten machine-checked criteria at fixed tolerances.

Everything is exact; the only tolerances are the two wall-clock caps
(the lattice check under 60 s, the suite under 10 min).  The criteria
body is deterministic for a fixed seed: timings appear in it only as
booleans, and the determinism criterion recomputes the other criteria
from scratch and compares the rendered bytes.  The seconds each criterion
took are reported beside the body, in the report's `timings`.
"""

from __future__ import annotations

import json
import time
from typing import NamedTuple

from .algebra import Algebra
from .controlled import EmbeddingData, inverse_interp, roundtrip_check
from .examples import embedding_bimodule, kronecker_algebra, kronecker_rep, lambda_algebra
from .formulas import (
    PpFormula,
    PpPair,
    eval_formula,
    pair_open,
    zero_formula,
)
from .interp import (
    InterpData,
    apply_interp,
    axiom_pairs,
    bounds,
    closure_report,
    hom_interp_data,
    isolating_pair,
    pullback_pair,
)
from .inventory import (
    Inventory,
    enumerate_indecomposables,
    sum_combos,
    verify_completeness,
)
from .lattice import (
    BetaMap,
    beta,
    order_table,
    standard_sample,
    verify_embedding,
    verify_lattice_hom,
)
from .linalg import GF, Mat
from .modules import Bimodule, is_direct_summand, iso_test, tensor_over

__all__ = ["RunConfig", "run_acceptance", "render_text", "render_json"]

CRITERIA_NAMES = {
    1: "lattice homomorphism under the embedding bimodule",
    2: "lattice embedding: strict inequalities stay strict",
    3: "implication oracle agrees with pointwise inclusion",
    4: "isolating pairs detect summands, within stated bounds",
    5: "inverse functor round trip with explicit isomorphisms",
    6: "every module is a summand of its double image",
    7: "pulled-back pair detects summands of functor values",
    8: "bound arithmetic reference values",
    9: "axiom pairs cut out a proper definable domain",
    10: "inventory exactness, determinism, total runtime",
}

SUITE_BUDGET_S = 600.0  # criterion 10's bound on the whole suite's wall clock


class RunConfig(NamedTuple):
    """Seeded, budgeted configuration of one acceptance run."""

    seed: int = 0
    budget: int = 10**7


class Case(NamedTuple):
    """An embedding's two algebras, its bimodule and both inventories over one field.

    s_inv and r_inv are the inventories of S and R at the case's caps;
    smaller caps are their prefixes (Inventory.up_to).
    """

    s: Algebra
    r: Algebra
    bim: Bimodule
    s_inv: Inventory
    r_inv: Inventory


def _lambda_case(cfg: RunConfig, field, cap: int) -> Case:
    """Lambda into Kronecker over field, both inventories at cap."""
    s, r = lambda_algebra(field), kronecker_algebra(field)
    invs = (enumerate_indecomposables(a, cap, cfg.budget, cfg.seed) for a in (s, r))
    return Case(s, r, embedding_bimodule(s, r), *invs)


def _pointwise_mismatches(sample, order, members):
    """The ordered pairs [i, j] where order[i][j] disagrees with inclusion
    of the solution sets of sample[i] in those of sample[j] on every member."""
    evals = [[eval_formula(f, m) for m in members] for f in sample]
    return [
        [i, j]
        for i in range(len(sample))
        for j in range(len(sample))
        if order[i][j] != all(ev_j.contains(ev_i) for ev_i, ev_j in zip(evals[i], evals[j]))
    ]


def _criterion_1_2_3(cfg: RunConfig, case: Case):
    """The shared sample drives the first three criteria, yielded as each is decided."""
    sample = standard_sample(case.s, case.s_inv.up_to(3).members)
    bmap = BetaMap(case.bim)

    start = time.monotonic()
    betas = [beta(bmap, f) for f in sample]
    order = order_table(sample)
    hom_report = verify_lattice_hom(bmap, sample, betas, order)
    elapsed = time.monotonic() - start
    c1 = {
        "id": 1,
        "passed": hom_report["ok"] and len(sample) >= 10 and elapsed < 60.0,
        "details": {
            "sample_size": len(sample),
            # two formulas are equivalent iff their order-table rows are equal
            "equivalence_classes": len(set(map(tuple, order))),
            "pairs_checked": hom_report["pairs_checked"],
            "failures": hom_report["failures"],
            "runtime_under_60s": elapsed < 60.0,
        },
    }
    yield c1

    emb_report = verify_embedding(bmap, sample, betas, order)
    c2 = {
        "id": 2,
        "passed": emb_report["ok"] and emb_report["strict_pairs"] > 0,
        "details": {
            "strict_pairs": emb_report["strict_pairs"],
            "failures": emb_report["failures"],
        },
    }
    yield c2

    members = case.s_inv.members
    mismatches = _pointwise_mismatches(sample, order, members)
    c3 = {
        "id": 3,
        "passed": not mismatches,
        "details": {
            "ordered_pairs_checked": len(sample) ** 2,
            "inventory_size": len(members),
            "mismatches": mismatches,
        },
    }
    yield c3


def _subject_failures(m_idx, subject, iso, members, combos):
    """Criterion 4's failures for one subject and its isolating pair.

    A pp pair commutes with finite direct sums, so it opens on a sum of
    members iff it opens on one of them; by Krull-Schmidt the
    indecomposable subject is a summand of such a sum iff it is a summand
    of one of them.  So every combo of members is decided from one
    isolation test and one summand test per member, and no sum is built.
    """
    top = iso.pair.top
    if top.c != subject.dim or top.e > subject.dim * subject.algebra.dim + 1:
        return [{"subject": m_idx, "reason": "bounds"}]
    opens = [iso.open_on(x) for x in members]
    summands = [is_direct_summand(subject, x)[0] for x in members]
    return [
        {"subject": m_idx, "sum": list(combo), "reason": "isolation"}
        for combo in combos
        if any(opens[i] for i in combo) != any(summands[i] for i in combo)
    ]


def _criterion_4(cfg: RunConfig, case: Case):
    failures = []
    subjects = 0
    for inv in (case.s_inv, case.r_inv):
        combos = list(sum_combos(inv, 3, 6))
        for m_idx, subject in enumerate(inv.members):
            subjects += 1
            iso = isolating_pair(
                subject, subject.basis_vector(0), inv.members, cfg.seed
            )
            failures += _subject_failures(m_idx, subject, iso, inv.members, combos)
    return {
        "id": 4,
        "passed": not failures,
        "details": {"subjects": subjects, "failures": failures},
    }


def _criterion_5_6(cfg: RunConfig, case: Case):
    """The round trip (5), then the double image (6), yielded as each is decided."""
    inv = case.s_inv
    emb = EmbeddingData(case.bim, control=None)
    data = inverse_interp(emb)
    rows = []
    ok5 = True
    for n_mod in inv.members:
        rep = roundtrip_check(emb, n_mod, data, cfg.seed)
        ok5 = ok5 and rep["ok"] and rep["dims"][1] == n_mod.dim
        rows.append(
            {
                "module_dim": n_mod.dim,
                "image_dim": rep["dims"][1],
                "isomorphic_with_witness": rep["ok"],
            }
        )
    yield {"id": 5, "passed": ok5, "details": {"modules": rows}}

    hom_data = hom_interp_data(case.bim)
    double_rows = []
    ok6 = True
    for n_mod in inv.members:
        t = tensor_over(n_mod, case.bim)
        gfn = apply_interp(hom_data, t.module, check=False)
        is_summand = is_direct_summand(n_mod, gfn.module)[0]
        ok6 = ok6 and is_summand
        double_rows.append(
            {"module_dim": n_mod.dim, "double_image_dim": gfn.module.dim, "summand": is_summand}
        )
    yield {"id": 6, "passed": ok6, "details": {"modules": double_rows}}


def _criterion_7(cfg: RunConfig, case: Case):
    data = hom_interp_data(case.bim)
    s_inv = case.s_inv.up_to(2)
    simple = s_inv.by_dim(1)[0]
    iso = isolating_pair(simple, simple.basis_vector(0), s_inv.members, cfg.seed)
    sigma_tau, report = pullback_pair(data, iso.pair, d=1)
    reference = bounds(
        1, data.m, data.S.dim, data.phi.c, data.psi.c, [r.c for r in data.rhos], case.r.dim
    )
    pairs = axiom_pairs(data)
    mismatches = []
    for idx, m in enumerate(case.r_inv.members):
        # an open axiom pair puts m outside the functor's domain
        if not closure_report(pairs, m)["ok"]:
            mismatches.append(idx)
            continue
        img = apply_interp(data, m, check=False)
        expected = is_direct_summand(simple, img.module)[0]
        if pair_open(sigma_tau, m) != expected:
            mismatches.append(idx)
    return {
        "id": 7,
        "passed": report.c_sigma <= reference.n_d and not mismatches,
        "details": {
            "c_sigma": report.c_sigma,
            "n_d": reference.n_d,
            "modules_checked": len(case.r_inv.members),
            "mismatches": mismatches,
        },
    }


def _criterion_8(cfg: RunConfig):
    rep = bounds(1, 2, 2, 0, 0, [0, 0], 4)
    return {
        "id": 8,
        "passed": rep.n_d == 16 and rep.b_d == 72,
        "details": {"n_1": rep.n_d, "b_1": rep.b_d},
    }


def _vertex2_sort_data(s, r):
    """Inverse-on-the-image data of F: M |-> (M => M; 1, x_1, ...), sort vertex 2.

    phi says x e1 = 0, so x lies at vertex 2.  A path w_1...w_k of S acts
    through bound z_1, ..., z_k at vertex 1 (z_i e2 = 0): z_1 a = x,
    z_{i+1} a = z_i b_{w_i} and z_k b_{w_k} = y, for a the first arrow of
    R and b_j the arrow of loop j; the empty path gives y = x.  Each loop
    is pulled back through a, which is only possible where a acts
    invertibly; the resulting domain is a proper definable subcategory
    containing the image of the embedding.
    """
    one, e1, e2 = r.one_element(), r.basis_element("e1"), r.basis_element("e2")
    first, *rest = (r.basis_element(label) for *_, label in r.quiver.arrows)
    b_of = dict(zip((label for *_, label in s.quiver.arrows), rest))
    rhos = []
    for _, word in s.paths:
        # rows x, y, z_1, ..., z_k; row * coeff is what the next z a (or y) equals
        coeffs, row, coeff, k = {}, 0, one, len(word)
        for i, loop in enumerate(word):
            coeffs[2 + i, 2 * i] = e2
            coeffs[2 + i, 2 * i + 1], coeffs[row, 2 * i + 1] = first, -coeff
            row, coeff = 2 + i, b_of[loop]
        coeffs[row, 2 * k], coeffs[1, 2 * k] = coeff, -one
        rhos.append(PpFormula(r, 2, k, 2 * k + 1, coeffs))
    phi = PpFormula(r, 1, 0, 1, {(0, 0): e1})
    return InterpData(r, s, 1, PpPair(phi, zero_formula(r, 1)), rhos)


def _criterion_9(cfg: RunConfig, case: Case):
    data = _vertex2_sort_data(case.s, case.r)
    pairs = axiom_pairs(data)
    image_reports = []
    image_ok = True
    image_isos = True
    for n_mod in case.s_inv.up_to(2).members:
        t = tensor_over(n_mod, case.bim)
        rep = closure_report(pairs, t.module)
        image_ok = image_ok and rep["ok"]
        img = apply_interp(data, t.module, check=False)
        back = iso_test(img.module, n_mod, cfg.seed) is not None
        image_isos = image_isos and back
        image_reports.append({"module_dim": n_mod.dim, "all_closed": rep["ok"], "recovers_source": back})
    # the simple module at the second vertex is outside the domain
    zero = Mat.zeros(case.r.field, 0, 1)
    s2 = kronecker_rep(case.r, *[zero] * len(case.r.quiver.arrows))
    s2_report = closure_report(pairs, s2)
    open_on_s2 = [e["pair"] for e in s2_report["pairs"] if not e["closed"]]
    return {
        "id": 9,
        "passed": image_ok and image_isos and len(open_on_s2) > 0,
        "details": {
            "pair_count": len(pairs),
            "image_modules": image_reports,
            "open_on_outside_module": open_on_s2,
        },
    }


def _core_criteria(cfg: RunConfig):
    """Criteria 1-9 of one core pass, yielded in id order as each is decided."""
    f2 = _lambda_case(cfg, GF(2), 4)
    yield from _criterion_1_2_3(cfg, f2)
    yield _criterion_4(cfg, _lambda_case(cfg, GF(3), 3))
    yield from _criterion_5_6(cfg, f2)
    yield _criterion_7(cfg, f2)
    yield _criterion_8(cfg)
    yield _criterion_9(cfg, f2)


def _run_core(cfg: RunConfig):
    """The list of criteria 1-9 of one core pass."""
    return list(_core_criteria(cfg))


def _criterion_10(cfg: RunConfig, first_pass):
    """Inventory exactness and a deterministic rerun; run_acceptance adds the runtime."""
    lam = lambda_algebra(GF(2))
    inv = enumerate_indecomposables(lam, 2, cfg.budget, cfg.seed)
    dims = [m.dim for m in inv.members]
    x_matrix = inv.members[1].action[lam.labels.index("x")] if dims == [1, 2] else None
    inv_ok = (
        dims == [1, 2]
        and x_matrix is not None
        and not x_matrix.is_zero()
        and (x_matrix @ x_matrix).is_zero()
        and verify_completeness(inv, 2, cfg.seed)["ok"]
    )
    second_pass = _run_core(cfg)
    deterministic = render_json({"criteria": first_pass}) == render_json(
        {"criteria": second_pass}
    )
    return {
        "id": 10,
        "passed": inv_ok and deterministic,
        "details": {
            "inventory_dims": dims,
            "completeness_ok": inv_ok,
            "deterministic_reruns": deterministic,
        },
    }


def run_acceptance(cfg: RunConfig = None):
    """Run all ten criteria; criterion 10 re-runs the first nine.

    `timings` maps each criterion id to the wall seconds between the
    previous criterion's result and its own.  So criterion 1 includes the
    GF(2) case (the inventories of Lambda and Kronecker at cap 4 and the
    embedding bimodule) and the shared sample, betas and order table; 4
    includes the GF(3) case; 5 includes the inverse functor data; 10
    includes its rerun of criteria 1-9.
    """
    cfg = cfg or RunConfig()
    start = time.monotonic()
    criteria, timings = [], {}
    lap = time.perf_counter()
    for c in _core_criteria(cfg):
        now = time.perf_counter()
        criteria.append(c)
        timings[c["id"]], lap = now - lap, now
    c10 = _criterion_10(cfg, criteria)
    timings[10] = time.perf_counter() - lap
    in_time = time.monotonic() - start < SUITE_BUDGET_S
    c10["details"]["runtime_under_10min"] = in_time
    c10["passed"] = c10["passed"] and in_time
    criteria.append(c10)
    for c in criteria:
        c["name"] = CRITERIA_NAMES[c["id"]]
    return {
        "suite": "acceptance",
        "seed": cfg.seed,
        "criteria": criteria,
        "passed": all(c["passed"] for c in criteria),
        "timings": {cid: round(s, 3) for cid, s in timings.items()},
    }


def render_json(report) -> str:
    return json.dumps(report, sort_keys=True, indent=2)


def render_text(report) -> str:
    lines = []
    for c in report.get("criteria", []):
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(f"criterion {c['id']:>2}: {status}  {c.get('name', '')}")
    if "passed" in report:
        lines.append("suite: " + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)
