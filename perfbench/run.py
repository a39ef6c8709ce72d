"""The ppcalc benchmark: one workload per run, answers checked, metrics as JSON.

Usage, from the repository root:

    python3 perfbench/run.py --workload acceptance|ladder_fp|ladder_qq \
        --seed N --seconds S --trace 0|1

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload
untraced and then traced, prints the per-layer metrics, and writes the
spans to perfbench/out/.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("acceptance", "ladder_fp", "ladder_qq")
SETUP_PROBES = 3
SETUP_CALIBRATIONS = 9


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _setup_probe(workload, seed):
    """In a fresh process: import ppcalc and build one repetition's inputs.

    Prints the normalised seconds.  The calibration runs after the timed
    part, because its kernel imports numpy, which ppcalc's import includes.
    """
    start = time.perf_counter()
    import ppcalc  # noqa: F401
    import workloads

    workloads.build_inputs(workload, seed)
    elapsed = time.perf_counter() - start
    speed = workloads.Speed()
    for _ in range(SETUP_CALIBRATIONS):
        speed.calibrate()
    print(elapsed * speed.median_factor())


def _setup_seconds(workload, seed):
    """Median set-up time over several fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "ppcalc", "__init__.py")):
        print(f"error: ppcalc sources not found under {SRC}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    import oracle
    import workloads
    import ppcalc.acceptance  # noqa: F401  (loaded before any wrapping)

    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    try:
        res, tracer, traced_s, overhead_s = workloads.run(args.workload, args.seed, args.seconds, args.trace)
    except oracle.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for line in res.lines:
        print(line)

    if args.trace:
        metrics = tracer.metrics(traced_s, overhead_s)
        for field in workloads.gen.FIELDS:
            metrics[f"field.{field}_s"] = _metric(res.field_seconds.get(field, 0.0), "s")
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.npz"))
    else:
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "wall_s": _metric(statistics.median(res.walls), "s"),
            "certified_frac": _metric(res.certified_frac(), "ratio"),
            "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for op, value in res.op_seconds.items():
            metrics[f"{op}_s"] = _metric(value, "s")
    print(json.dumps({
        "correct": True,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
