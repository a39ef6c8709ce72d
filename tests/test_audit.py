"""The answers of one acceptance core pass, audited by perfbench/oracle.py.

The oracle shares no linear algebra with ppcalc: it reads matrices out
with to_rows() and checks them by plain elimination and products, int64
mod p or Fraction rows.  Each test records every answer of one kind that
a core pass at seed 0 gives, then checks each against the oracle.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from ppcalc import acceptance, formulas, interp, inventory, modules
from ppcalc.acceptance import RunConfig

ORACLE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
_spec = importlib.util.spec_from_file_location("perfbench_oracle", ORACLE_PATH)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)


def test_every_quotient_of_a_core_pass_is_a_surjection_killing_the_subspace(monkeypatch):
    answers = []
    real = modules.quotient_module

    def recorded(m, u):
        q, proj = real(m, u)
        answers.append((m, u, q, proj))
        return q, proj

    # every place the name is bound and called from
    for module in (modules, formulas, inventory):
        monkeypatch.setattr(module, "quotient_module", recorded)
    acceptance._run_core(RunConfig(seed=0))
    assert len(answers) > 300
    for m, u, q, proj in answers:
        field, rows = m.field, proj.matrix.to_rows()
        assert u.dim + q.dim == m.dim
        assert oracle.rank(field, rows) == q.dim  # onto
        if not q.dim:  # the oracle's arrays need at least one entry
            continue
        pmat = oracle._array(field, rows)
        assert oracle.intertwines(m, q, pmat)
        if u.dim:
            assert oracle.rank(field, oracle.mul(field, oracle._array(field, u.basis.to_rows()), pmat)) == 0


def test_every_decomposition_of_a_core_pass_is_a_nontrivial_idempotent(monkeypatch):
    answers = []
    real = modules.indecomposability

    def recorded(m, seed, budget=1 << 17):
        res = real(m, seed, budget)
        answers.append((m, res))
        return res

    # every place the name is bound and called from, iso_test and _split included
    for module in (modules, interp, inventory):
        monkeypatch.setattr(module, "indecomposability", recorded)
    acceptance._run_core(RunConfig(seed=0))
    statuses = Counter(res.status for _, res in answers)
    assert set(statuses) == {"decomposed", "indecomposable"} and statuses["decomposed"] > 100
    for m, res in answers:
        if res.status == "decomposed":
            oracle.check_idempotent(m, res.witness)
