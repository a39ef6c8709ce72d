"""The answers of one acceptance core pass, audited by perfbench/oracle.py.

The oracle shares no linear algebra with ppcalc: it reads matrices out
with to_rows() and checks them by plain elimination and products, int64
mod p or Fraction rows.  Each test records every answer of one kind that
a core pass at seed 0 gives, then checks each against the oracle.
"""

import importlib.util
from pathlib import Path

from ppcalc import acceptance, formulas, modules
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

    # the two places the name is bound and called from
    monkeypatch.setattr(modules, "quotient_module", recorded)
    monkeypatch.setattr(formulas, "quotient_module", recorded)
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
