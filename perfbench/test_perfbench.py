"""Tests of the benchmark itself: input generators against independent
oracles (sympy over QQ, brute force over GF(2)), and the tracer's
time accounting.

Run from the repository root:  PYTHONPATH=src python -m pytest -q perfbench
"""

import itertools
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
import sympy

import gen
import oracle
import tracer as tracer_mod
import workloads

from ppcalc import modules as pm
from ppcalc.examples import kronecker_algebra, lambda_algebra
from ppcalc.linalg import GF, QQ

HERE = os.path.dirname(os.path.abspath(__file__))


def _rng(*key):
    return gen.rng_for(0, "test", *key)


def _sympy_hom_dim(m, n):
    """Nullity of the system A_l F = F B_l over QQ, built with sympy."""
    s, t = m.dim, n.dim
    unknowns = sympy.symbols(f"f0:{s * t}")
    f = sympy.Matrix(s, t, unknowns)
    eqs = []
    for am, an in zip(m.action, n.action):
        a = sympy.Matrix(am.to_rows())
        b = sympy.Matrix(an.to_rows())
        eqs.extend(a * f - f * b)
    system, _ = sympy.linear_eq_to_matrix(eqs, unknowns)
    return len(system.nullspace())


def _gf2_homs(m, n):
    """All intertwining maps m -> n over GF(2), by brute force."""
    s, t = m.dim, n.dim
    bits = np.array(list(itertools.product((0, 1), repeat=s * t)), dtype=np.int64)
    fs = bits.reshape(-1, s, t)
    ok = np.ones(len(fs), dtype=bool)
    for am, an in zip(m.action, n.action):
        a = np.array(am.to_rows(), dtype=np.int64)
        b = np.array(an.to_rows(), dtype=np.int64)
        ok &= ~((a @ fs - fs @ b) % 2).any(axis=(1, 2))
    return fs[ok]


@pytest.mark.parametrize("case", range(4))
def test_hom_dim_formula_matches_sympy_over_qq(case):
    kron = kronecker_algebra(QQ)
    ar = gen.Arith(QQ)
    rng = _rng("qq", case)
    bm = gen.even_parts(ar, 3, 2)
    bn = [(ar.eigen[case % 3], 2), (ar.eigen[(case + 1) % 3], 1)]
    m = gen.regular_sum(kron, bm, rng).module
    n = gen.regular_sum(kron, bn, rng).module
    assert _sympy_hom_dim(m, n) == gen.hom_dim(bm, bn)


@pytest.mark.parametrize("case", range(3))
def test_hom_dim_formula_matches_brute_force_over_gf2(case):
    kron = kronecker_algebra(GF(2))
    ar = gen.Arith(GF(2))
    rng = _rng("gf2", case)
    bm = gen.even_parts(ar, 2, 2)
    bn = [(case % 2, 2)] if case < 2 else gen.even_parts(ar, 2, 2)
    m = gen.regular_sum(kron, bm, rng).module
    n = gen.regular_sum(kron, bn, rng).module
    assert len(_gf2_homs(m, n)) == 2 ** gen.hom_dim(bm, bn)


def test_preprojective_is_a_brick():
    kron = kronecker_algebra(QQ)
    m = gen.preprojective(kron, 2, _rng("brick"))
    assert m.dim == 5
    assert _sympy_hom_dim(m, m) == 1


@pytest.mark.parametrize("field", [GF(3), GF(1048573), QQ])
def test_random_invertible_has_its_inverse(field):
    ar = gen.Arith(field)
    t, t_inv = gen.random_invertible(ar, _rng("inv", repr(field)), 5)
    assert ar.mul(t, t_inv) == gen.identity(5)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ])
def test_endomorphism_intertwines(field):
    kron = kronecker_algebra(field)
    rng = _rng("endo", repr(field))
    inp = gen.regular_sum(kron, [(0, 2), (1, 3)], rng)
    f = gen.endomorphism(inp, rng)
    assert oracle.intertwines(inp.module, inp.module, oracle._array(field, f.to_rows()))


def _gf2_realises(m, v, n, w):
    """Some module map m -> n sends v to w (GF(2) brute force)."""
    vv = np.array(v.to_rows()[0])
    ww = np.array(w.to_rows()[0])
    return bool((~((vv @ _gf2_homs(m, n) - ww) % 2).any(axis=1)).any())


def test_implies_expectations_match_brute_force_over_gf2():
    # psi <= phi for pp-type generators iff a map from phi's realisation
    # sends its tuple to psi's tuple
    for case in range(2):
        for psi, phi, expected in gen.implies_sample(GF(2), 4, _rng("implies", case)):
            rp, rq = psi._realisation, phi._realisation
            assert _gf2_realises(rq.module, rq.tuple[0], rp.module, rp.tuple[0]) == expected


def test_lambda_module_is_a_module():
    lam = lambda_algebra(QQ)
    m = gen.lambda_module(lam, 5, _rng("lam"))
    x = sympy.Matrix(m.action[lam.labels.index("x")].to_rows())
    assert x * x == sympy.zeros(5, 5)


def test_oracle_rank_matches_sympy():
    rng = _rng("rank")
    rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(4)]
    rows.append([a + b for a, b in zip(rows[0], rows[1])])
    assert oracle.rank(QQ, rows) == sympy.Matrix(rows).rank() == 4


def test_trace_self_times_account_for_the_wall_time():
    res = workloads.Result()
    tr = tracer_mod.Tracer()
    plan = {"gf2": (4,), "qq": (4,)}
    original = pm.hom_space
    _, wall = workloads._ladder_pass(plan, 0, 0, res, {}, tracer=tr)
    assert pm.hom_space is original  # every patch is undone
    metrics = tr.metrics(wall, 0.0)
    layer_total = sum(metrics[f"{layer}.self_s"]["value"] for layer in tracer_mod.LAYERS)
    assert layer_total + metrics["trace.outside_spans_s"]["value"] == pytest.approx(wall, abs=1e-6)
    assert metrics["linalg.rref.gf2.calls"]["value"] > 0
    assert metrics["linalg.rref.qq.calls"]["value"] > 0
    assert metrics["modules.hom_space.calls"]["value"] >= 2
    assert metrics["linalg.mat_new.calls"]["value"] > 0
    assert res.failed == 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder_qq", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
