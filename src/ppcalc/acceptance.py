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
from .examples import embedding_bimodule, kronecker_algebra, lambda_algebra
from .formulas import (
    PpFormula,
    PpPair,
    eval_formula,
    pair_open,
    zero_formula,
)
from .interp import (
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
from .linalg import GF
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


class PassContext(NamedTuple):
    """What criteria 1-9 share within one core pass over GF(2).

    lam_inv is the inventory of Lambda at cap 4; smaller caps are its
    prefixes (Inventory.up_to).
    """

    lam: Algebra
    kron: Algebra
    bim: Bimodule
    lam_inv: Inventory


def _f2_context(cfg: RunConfig) -> PassContext:
    lam = lambda_algebra(GF(2))
    kron = kronecker_algebra(GF(2))
    bim = embedding_bimodule(lam, kron)
    lam_inv = enumerate_indecomposables(lam, 4, cfg.budget, cfg.seed)
    return PassContext(lam, kron, bim, lam_inv)


def _sample_classes(order):
    """Number of equivalence classes of a sample, given its order table."""
    reps = []
    for i in range(len(order)):
        if not any(order[i][r] and order[r][i] for r in reps):
            reps.append(i)
    return len(reps)


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


def _criterion_1_2_3(cfg: RunConfig, ctx: PassContext):
    """The shared sample drives the first three criteria, yielded as each is decided."""
    sample = standard_sample(ctx.lam, ctx.lam_inv.up_to(3).members)
    bmap = BetaMap(ctx.bim)

    start = time.monotonic()
    betas = [beta(bmap, f) for f in sample]
    order = order_table(sample)
    hom_report = verify_lattice_hom(bmap, sample, betas, order)
    elapsed = time.monotonic() - start
    classes = _sample_classes(order)
    c1 = {
        "id": 1,
        "passed": hom_report["ok"] and len(sample) >= 10 and elapsed < 60.0,
        "details": {
            "sample_size": len(sample),
            "equivalence_classes": classes,
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

    members = ctx.lam_inv.members
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


def _criterion_4(cfg: RunConfig):
    failures = []
    subjects = 0
    for make in (lambda_algebra, kronecker_algebra):
        inv = enumerate_indecomposables(make(GF(3)), 3, cfg.budget, cfg.seed)
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


def _criterion_5_6(cfg: RunConfig, ctx: PassContext):
    """The round trip (5), then the double image (6), yielded as each is decided."""
    inv = ctx.lam_inv
    emb = EmbeddingData(ctx.bim, control=None)
    data = inverse_interp(emb)
    rows = []
    ok5 = True
    expected_dims = {1: 1, 2: 2}  # image dims for the simple and the regular
    for n_mod in inv.members:
        rep = roundtrip_check(emb, n_mod, data, cfg.seed)
        want = expected_dims.get(n_mod.dim)
        dim_ok = want is None or rep["dims"][1] == want
        ok5 = ok5 and rep["ok"] and dim_ok
        rows.append(
            {
                "module_dim": n_mod.dim,
                "image_dim": rep["dims"][1],
                "isomorphic_with_witness": rep["ok"],
            }
        )
    yield {"id": 5, "passed": ok5, "details": {"modules": rows}}

    hom_data = hom_interp_data(ctx.bim)
    double_rows = []
    ok6 = True
    for n_mod in inv.members:
        t = tensor_over(n_mod, ctx.bim)
        gfn = apply_interp(hom_data, t.module, check=False)
        is_summand = is_direct_summand(n_mod, gfn.module)[0]
        ok6 = ok6 and is_summand
        double_rows.append(
            {"module_dim": n_mod.dim, "double_image_dim": gfn.module.dim, "summand": is_summand}
        )
    yield {"id": 6, "passed": ok6, "details": {"modules": double_rows}}


def _criterion_7(cfg: RunConfig, ctx: PassContext):
    kron = ctx.kron
    data = hom_interp_data(ctx.bim)
    lam_inv = ctx.lam_inv.up_to(2)
    simple = lam_inv.by_dim(1)[0]
    iso = isolating_pair(simple, simple.basis_vector(0), lam_inv.members, cfg.seed)
    sigma_tau, report = pullback_pair(data, iso.pair, d=1)
    reference = bounds(
        1, data.m, data.S.dim, data.phi.c, data.psi.c, [r.c for r in data.rhos], kron.dim
    )
    kron_inv = enumerate_indecomposables(kron, 4, cfg.budget, cfg.seed)
    pairs = axiom_pairs(data)
    mismatches = []
    for idx, m in enumerate(kron_inv.members):
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
            "modules_checked": len(kron_inv.members),
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


def _vertex2_sort_data(lam, kron):
    """Inverse-on-the-image data with the vertex-2 component as sort.

    The action of x pulls back through the first arrow, which is only
    possible where that arrow acts invertibly; the resulting domain is a
    proper definable subcategory containing the image of the embedding.
    """
    from .interp import InterpData

    one = kron.one_element()
    e1 = kron.basis_element("e1")
    e2 = kron.basis_element("e2")
    a_ = kron.basis_element("a")
    b_ = kron.basis_element("b")
    phi = PpFormula(kron, 1, 0, 1, {(0, 0): e1})  # x e1 = 0, i.e. x = x e2
    psi = zero_formula(kron, 1)
    rho_unit = PpFormula(kron, 2, 0, 1, {(0, 0): one, (1, 0): -one})  # y = x
    rho_x = PpFormula(
        kron,
        2,
        1,
        3,
        {
            (2, 0): e2,          # z e2 = 0: the witness sits at vertex 1
            (2, 1): a_, (0, 1): -one,  # z a = x
            (2, 2): b_, (1, 2): -one,  # z b = y
        },
    )
    rhos = []
    for label in lam.labels:
        rhos.append({"e1": rho_unit, "x": rho_x}[label])
    return InterpData(kron, lam, 1, PpPair(phi, psi), rhos)


def _criterion_9(cfg: RunConfig, ctx: PassContext):
    lam, kron, bim = ctx.lam, ctx.kron, ctx.bim
    data = _vertex2_sort_data(lam, kron)
    pairs = axiom_pairs(data)
    lam_inv = ctx.lam_inv.up_to(2)
    image_reports = []
    image_ok = True
    image_isos = True
    for n_mod in lam_inv.members:
        t = tensor_over(n_mod, bim)
        rep = closure_report(pairs, t.module)
        image_ok = image_ok and rep["ok"]
        img = apply_interp(data, t.module, check=False)
        back = iso_test(img.module, n_mod, cfg.seed) is not None
        image_isos = image_isos and back
        image_reports.append({"module_dim": n_mod.dim, "all_closed": rep["ok"], "recovers_source": back})
    # the simple module at the second vertex is outside the domain
    from .examples import kronecker_rep
    from .linalg import Mat

    s2 = kronecker_rep(kron, Mat.zeros(GF(2), 0, 1), Mat.zeros(GF(2), 0, 1))
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
    ctx = _f2_context(cfg)
    yield from _criterion_1_2_3(cfg, ctx)
    yield _criterion_4(cfg)
    yield from _criterion_5_6(cfg, ctx)
    yield _criterion_7(cfg, ctx)
    yield _criterion_8(cfg)
    yield _criterion_9(cfg, ctx)


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
    pass context (the inventory of Lambda at cap 4 and the embedding
    bimodule) and the shared sample, betas and order table; 5 includes the
    inverse functor data; 10 includes its rerun of criteria 1-9.
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
