"""The answers of one acceptance core pass, audited by perfbench/oracle.py.

The oracle shares no linear algebra with ppcalc: it reads matrices out
with to_rows() and checks them by plain elimination and products, int64
mod p or Fraction rows.  Each test records every answer of one kind that
a core pass at seed 0 gives, then checks each against the oracle.
"""

import importlib.util
from collections import Counter
from pathlib import Path

from ppcalc import acceptance, formulas, interp, inventory, lattice, modules
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


def test_every_implication_of_a_core_pass_agrees_with_the_formula_in_the_realisation(monkeypatch):
    # psi <= phi iff the tuple c_psi of psi's free realisation (C_psi, c_psi)
    # satisfies phi in C_psi; a pair-level verdict is checked on phi's
    # realisation through the pp-type generator of c_phi in C_phi
    formula_level, pair_level = {}, {}
    implies, pair_implies = formulas.implies, formulas.pair_implies

    def content(pair):
        return pair[0], tuple(t.key() for t in pair[1])

    def record(answers, key, verdict, *inputs):
        assert answers.setdefault(key, (verdict, inputs))[0] == verdict

    def recorded_implies(psi, phi):
        verdict = implies(psi, phi)
        psi_pair = formulas.realisation_pair(psi)
        record(formula_level, (content(psi_pair), phi.key()), verdict, psi_pair, phi)
        return verdict

    def recorded_pair_implies(psi, phi):
        verdict = pair_implies(psi, phi)
        record(pair_level, (content(psi), content(phi)), verdict, psi, phi)
        return verdict

    # every place the names are bound and called from; implies and
    # pair_equivalent reach pair_implies through formulas
    for module in (formulas, lattice):
        monkeypatch.setattr(module, "implies", recorded_implies)
    monkeypatch.setattr(formulas, "pair_implies", recorded_pair_implies)
    acceptance._run_core(RunConfig(seed=0))
    # distinct inputs: 293 to implies, 401 to pair_implies (86 false each)
    for answers in (formula_level, pair_level):
        verdicts = Counter(verdict for verdict, _ in answers.values())
        assert len(answers) > 250 and verdicts[False] > 50
    for verdict, ((module, tup), phi) in formula_level.values():
        assert oracle.satisfies(phi, module, tup) == verdict
    for verdict, ((module, tup), phi) in pair_level.values():
        assert oracle.satisfies(formulas.pp_type_generator(*phi), module, tup) == verdict
