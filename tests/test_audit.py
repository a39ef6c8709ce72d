"""The answers of one acceptance core pass, audited by perfbench/oracle.py.

The oracle shares no linear algebra with ppcalc: it reads matrices out
with to_rows() and checks them by plain elimination and products, int64
mod p or Fraction rows.  Each test records every answer of one kind that
a core pass at seed 0 gives, then checks each against the oracle.  The
last test audits the top rungs of one ladder_fp repetition, built by
perfbench/gen.py, whose answers are known by construction.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from ppcalc import acceptance, controlled, formulas, interp, inventory, lattice, linalg, modules
from ppcalc.acceptance import RunConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
gen = _load("gen")


def test_every_quotient_of_a_core_pass_is_a_surjection_killing_the_subspace(monkeypatch):
    answers = []
    real = modules.quotient_module

    def recorded(m, u):
        q, proj = real(m, u)
        answers.append((m, u, q, proj))
        return q, proj

    # every place the name is bound and called from
    for module in (modules, formulas):
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
    assert set(statuses) == {"decomposed", "indecomposable"} and statuses["decomposed"] >= 46
    for m, res in answers:
        if res.status == "decomposed":
            oracle.check_idempotent(m, res.witness)


def test_every_implication_of_a_core_pass_agrees_with_the_formula_in_the_realisation(monkeypatch):
    # psi <= phi iff the tuple c_psi of psi's free realisation (C_psi, c_psi)
    # satisfies phi in C_psi; a pair-level verdict is checked on phi's
    # realisation through the pp-type generator of c_phi in C_phi
    formula_level, pair_level = {}, {}
    implies, pair_implies = formulas.implies, formulas.pair_implies

    def record(answers, key, verdict, *inputs):
        assert answers.setdefault(key, (verdict, inputs))[0] == verdict

    def recorded_implies(psi, phi):
        verdict = implies(psi, phi)
        psi_real = formulas.free_realisation(psi)
        record(formula_level, (psi_real, phi.key()), verdict, psi_real, phi)
        return verdict

    def recorded_pair_implies(psi, phi):
        verdict = pair_implies(psi, phi)
        record(pair_level, (psi, phi), verdict, psi, phi)
        return verdict

    # every place the names are bound and called from; implies and
    # pair_equivalent reach pair_implies through formulas, the lattice
    # checks call it on their distinct realisations
    monkeypatch.setattr(formulas, "implies", recorded_implies)
    for module in (formulas, lattice):
        monkeypatch.setattr(module, "pair_implies", recorded_pair_implies)
    acceptance._run_core(RunConfig(seed=0))
    # distinct inputs: 13 to implies, all true; 401 to pair_implies, 86 false
    counts = [Counter(verdict for verdict, _ in answers.values()) for answers in (formula_level, pair_level)]
    assert counts == [Counter({True: 13}), Counter({True: 315, False: 86})]
    for verdict, ((module, tup), phi) in formula_level.values():
        assert oracle.satisfies(phi, module, tup) == verdict
    for verdict, ((module, tup), phi) in pair_level.values():
        assert oracle.satisfies(formulas.pp_type_generator(*phi), module, tup) == verdict


def hom_system_rows(m, n):
    """The system of f -> (a_l f - f b_l)_l on m.dim x n.dim matrices f,
    one row per unit matrix E_ij, from the action matrices' rows."""
    dm, dn = m.dim, n.dim
    rows = [[] for _ in range(dm * dn)]
    for am, an in zip(m.action, n.action):
        a, b = am.to_rows(), an.to_rows()
        for i in range(dm):
            for j in range(dn):
                # (a E_ij)[r][c] = a[r][i] if c == j; (E_ij b)[r][c] = b[j][c] if r == i
                rows[i * dn + j] += [
                    (a[r][i] if c == j else 0) - (b[j][c] if r == i else 0) for r in range(dm) for c in range(dn)
                ]
    return rows


def test_every_hom_space_of_a_core_pass_is_a_basis_of_the_oracle_dimension(monkeypatch):
    answers = []
    real = modules.hom_space

    def recorded(m, n):
        maps = real(m, n)
        answers.append((m, n, maps))
        return maps

    # every place the name is bound and called from
    for module in (modules, controlled):
        monkeypatch.setattr(module, "hom_space", recorded)
    acceptance._run_core(RunConfig(seed=0))
    assert len(answers) == 355
    for m, n, maps in answers:
        assert m.dim * n.dim <= 16
        expected = m.dim * n.dim - oracle.rank(m.field, hom_system_rows(m, n))
        oracle.check_hom_basis(m, n, maps, expected)


def test_every_extension_of_a_core_pass_embeds_its_kernel_and_projects_onto_its_end(monkeypatch):
    # the middle term E of a class of Ext^1(m, n) has m's basis first: the
    # rows [0 | I] embed n in E, and the columns [I; 0] project E onto m
    answers = []
    real = modules.extension

    def recorded(m, n, c):
        e = real(m, n, c)
        answers.append((m, n, e))
        return e

    # every place the name is bound and called from
    for module in (modules, inventory):
        monkeypatch.setattr(module, "extension", recorded)
    acceptance._run_core(RunConfig(seed=0))
    assert len(answers) == 93
    for m, n, e in answers:
        field, s, t = m.field, m.dim, n.dim
        assert e.dim == s + t and s
        proj = [[int(i == j) for j in range(s)] for i in range(s + t)]
        assert oracle.intertwines(e, m, oracle._array(field, proj))
        if t:  # n = 0, K = 0 for a simple alone, has no inclusion to check
            incl = [[int(j == i + s) for j in range(s + t)] for i in range(t)]
            assert oracle.intertwines(n, e, oracle._array(field, incl))


def test_every_isomorphism_witness_of_a_core_pass_is_an_invertible_module_map(monkeypatch):
    witnesses = {"iso_test": [], "_first_iso": []}
    iso_test, first_iso = modules.iso_test, modules._first_iso

    def recorded_iso_test(m, n, seed=0, indec=None):
        w = iso_test(m, n, seed, indec)
        witnesses["iso_test"].append((m, n, w))
        return w

    def recorded_first_iso(m, n, maps=None):
        w = first_iso(m, n, maps)
        witnesses["_first_iso"].append((m, n, w))
        return w

    # every place the names are bound and called from, iso_test's own
    # matches of summands included
    for module in (acceptance, controlled):
        monkeypatch.setattr(module, "iso_test", recorded_iso_test)
    for module in (modules, inventory):
        monkeypatch.setattr(module, "_first_iso", recorded_first_iso)
    acceptance._run_core(RunConfig(seed=0))
    found = {name: [a for a in answers if a[2] is not None] for name, answers in witnesses.items()}
    assert {name: len(a) for name, a in found.items()} == {"iso_test": 4, "_first_iso": 39}
    for m, n, w in found["iso_test"] + found["_first_iso"]:
        rows = w.matrix.to_rows()
        assert (w.source, w.target) == (m, n) and m.dim == n.dim > 0
        assert oracle.intertwines(m, n, oracle._array(m.field, rows))
        assert oracle.rank(m.field, rows) == m.dim


@pytest.mark.parametrize("field_name, dim", [("gf2", 24), ("gf3", 20), ("gfp20", 20)])
def test_the_top_ladder_rungs_agree_with_their_construction(monkeypatch, field_name, dim):
    # the inputs of ladder_fp's repetition 0 at seed 0, as perfbench builds
    # them: the benchmark's largest hom and implication systems, all above
    # the presolve cut
    field = gen.FIELDS[field_name]

    def sample(op, sampler):
        return sampler(field, dim, gen.rng_for(0, field_name, dim, op, 0))

    forced = []
    real = linalg._forced

    def recorded(a, pinned):
        rows = real(a, pinned)
        forced.append(int(rows.sum()))
        return rows

    monkeypatch.setattr(linalg, "_forced", recorded)
    m, n, expected = sample("hom_space", gen.hom_sample)
    oracle.check_hom_basis(m, n, modules.hom_space(m, n), expected)
    assert forced and min(forced) > 0
    forced.clear()
    cases = sample("implies", gen.implies_sample)
    assert [formulas.implies(psi, phi) for psi, phi, _ in cases] == [want for *_, want in cases]
    assert forced and min(forced) > 0
    for module, indec in sample("indecomposability", gen.indec_sample):
        res = modules.indecomposability(module, 0)
        assert res.status == ("indecomposable" if indec else "decomposed")
        if not indec:
            oracle.check_idempotent(module, res.witness)
