"""Per-layer spans and counters, installed on ppcalc from outside.

The package binds layer functions with ``from .x import f``, so a wrapper
replaces the function under every name that refers to it in every loaded
``ppcalc`` module, and replaces methods on the ``Mat`` and ``Subspace``
classes.  ``Patches`` undoes all of it.

``Tracer`` records one span (name, start, end, parent) per call of each
wrapped entry point, keeps them in memory, and accumulates calls and
self time (duration minus the time covered by child spans) per name.
``Mat`` constructions are counted without spans, because they are hot.
``OpClock`` is the light variant used in untraced runs: it times only
the outermost calls of a few functions, and calibrates the machine's
speed between them.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

from ppcalc import linalg

# layer -> entry points; "Class.method" names a method, anything else a
# module-level function of that layer's module.
LAYERS = {
    "linalg": {
        "rref": "Mat.rref",
        "kernel": "Mat.kernel",
        "solve_left": "Mat.solve_left",
        "matmul": "Mat.__matmul__",
        "subspace": "Subspace.from_vectors",
    },
    "algebra": {"algebra_from_quiver": "algebra_from_quiver", "validate_algebra": "validate_algebra"},
    "modules": {
        name: name
        for name in (
            "hom_space",
            "indecomposability",
            "is_direct_summand",
            "iso_test",
            "decompose",
            "tensor_over",
            "quotient_module",
        )
    },
    "formulas": {
        name: name
        for name in (
            "eval_formula",
            "implies",
            "free_realisation",
            "conj",
            "sum_formula",
            "pp_type_generator",
        )
    },
    "lattice": {
        name: name for name in ("beta", "verify_lattice_hom", "verify_embedding", "standard_sample")
    },
    "interp": {
        name: name
        for name in (
            "isolating_pair",
            "apply_interp",
            "pullback_pair",
            "closure_report",
            "hom_interp_data",
        )
    },
    "controlled": {name: name for name in ("roundtrip_check", "inverse_interp")},
    "inventory": {
        name: name
        for name in ("enumerate_indecomposables", "verify_completeness", "direct_sums_up_to")
    },
    "acceptance": {"run_core": "_run_core"},
}

RREF_KINDS = ("gf2", "gfp", "qq")


def _ppcalc_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "ppcalc" or n.startswith("ppcalc.")]


class Patches:
    """Replacements of library attributes, undone by restore()."""

    def __init__(self):
        self._undo = []

    def method(self, cls, name, make):
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, name, new)
        self._undo.append((cls, name, raw))

    def function(self, layer, name, make):
        """Replace layer.name everywhere it is bound in the package."""
        orig = getattr(importlib.import_module(f"ppcalc.{layer}"), name)
        new = make(orig)
        for mod in _ppcalc_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def entry(self, layer, target, make):
        if "." in target:
            cls_name, meth = target.split(".")
            self.method(getattr(linalg, cls_name), meth, make)
        else:
            self.function(layer, target, make)

    def restore(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


def _rref_kind(mat) -> str:
    field = mat.field
    if not field.is_prime_field:
        return "qq"
    return "gf2" if field.p == 2 else "gfp"


class Tracer:
    """Spans and counters for every entry point in LAYERS."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_s = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span id, child seconds]
        self.mat_new = 0
        self.rref_entries = array("q")
        self.outcomes = {}  # name -> [true count, total]
        self.hom_out_dim = 0
        self.enum_members = 0
        self.enum_indec_calls = 0
        self._patches = Patches()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    # -- span bookkeeping -------------------------------------------------

    def _open(self, nid):
        stack = self._stack
        frame = [len(self.span_start), 0.0]
        self.span_name.append(nid)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_end.append(0.0)
        stack.append(frame)
        self.span_start.append(time.perf_counter())
        return frame

    def _close(self, nid, frame, count=True):
        end = time.perf_counter()
        sid, child = frame
        self._stack.pop()
        self.span_end[sid] = end
        dur = end - self.span_start[sid]
        self.calls[nid] += count
        self.self_s[nid] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, qual, fn, after=None, kind=None):
        nid = self.name_id(qual)
        kind_ids = {k: self.name_id(f"{qual}.{k}") for k in RREF_KINDS} if kind else None
        tracer = self

        if inspect.isgeneratorfunction(fn):

            def wrapper(*args, **kwargs):
                # one call, one span per resumption
                it = fn(*args, **kwargs)
                tracer.calls[nid] += 1
                while True:
                    frame = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(nid, frame, count=False)
                    yield item

            return wrapper

        def wrapper(*args, **kwargs):
            use = kind_ids[kind(args[0])] if kind_ids else nid
            frame = tracer._open(use)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(use, frame)
            if after is not None:
                after(args, out)
            return out

        return wrapper

    # -- per-function counters ---------------------------------------------

    def _outcome(self, name, truth):
        rec = self.outcomes.setdefault(name, [0, 0])
        rec[0] += bool(truth)
        rec[1] += 1

    def _after(self, name):
        """The hook (args, result) keeping the extra counters of one entry point."""
        if name == "rref":
            return lambda args, out: self.rref_entries.append(args[0].rows * args[0].cols)
        if name in ("is_direct_summand", "implies"):
            return lambda args, out: self._outcome(name, out[0] if name == "is_direct_summand" else out)
        if name == "hom_space":

            def hom(args, out):
                self.hom_out_dim += len(out)

            return hom
        if name == "indecomposability":
            enum_id = self.name_id("inventory.enumerate_indecomposables")

            def indec(args, out):
                self._outcome(name, out.status != "probably-indecomposable")
                self.enum_indec_calls += any(self.span_name[sid] == enum_id for sid, _ in self._stack)

            return indec
        if name == "enumerate_indecomposables":

            def members(args, out):
                self.enum_members += len(out.members)

            return members
        return None

    def install(self):
        for layer, entries in LAYERS.items():
            for short, target in entries.items():
                qual = f"{layer}.{short}"
                after = self._after(short)
                kind = _rref_kind if short == "rref" else None
                self._patches.entry(
                    layer, target, lambda fn, q=qual, a=after, k=kind: self._wrap(q, fn, a, k)
                )

        def count_new(init):
            def new_init(mat, *args, **kwargs):
                self.mat_new += 1
                init(mat, *args, **kwargs)

            return new_init

        self._patches.method(linalg.Mat, "__init__", count_new)

    def uninstall(self):
        self._patches.restore()

    # -- results ------------------------------------------------------------

    def covered_s(self):
        """Wall time inside top-level spans."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        top = parent == -1
        return float((end[top] - start[top]).sum())

    def metrics(self, wall_s, overhead_s):
        """Per-layer metrics: calls and self seconds per entry point.

        wall_s is the traced run's raw wall time; overhead_s the traced
        minus the untraced run's normalised wall time.
        """
        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        layer_self = {layer: 0.0 for layer in LAYERS}
        for layer, entries in LAYERS.items():
            for short in entries:
                qual = f"{layer}.{short}"
                if short == "rref":
                    ids = [self.name_id(f"{qual}.{k}") for k in RREF_KINDS]
                    for k, i in zip(RREF_KINDS, ids):
                        put(f"{qual}.{k}.calls", self.calls[i], "count")
                        put(f"{qual}.{k}.self_s", self.self_s[i], "s")
                else:
                    ids = [self.name_id(qual)]
                calls = sum(self.calls[i] for i in ids)
                self_s = sum(self.self_s[i] for i in ids)
                put(f"{qual}.calls", calls, "count")
                put(f"{qual}.self_s", self_s, "s")
                layer_self[layer] += self_s
        for layer, s in layer_self.items():
            put(f"{layer}.self_s", s, "s")
        entries = np.frombuffer(self.rref_entries, dtype=np.int64)
        put("linalg.rref.entries_p50", float(np.percentile(entries, 50)) if entries.size else 0.0, "count")
        put("linalg.rref.entries_p99", float(np.percentile(entries, 99)) if entries.size else 0.0, "count")
        put("linalg.mat_new.calls", self.mat_new, "count")
        hom_calls = self.calls[self.name_id("modules.hom_space")]
        put("modules.hom_space.out_dim", self.hom_out_dim / hom_calls if hom_calls else 0.0, "count")
        for name, metric in (
            ("indecomposability", "modules.indecomposability.certified_frac"),
            ("is_direct_summand", "modules.is_direct_summand.true_frac"),
            ("implies", "formulas.implies.true_frac"),
        ):
            true, total = self.outcomes.get(name, (0, 0))
            put(metric, true / total if total else 0.0, "ratio")
        put(
            "inventory.members_per_candidate",
            self.enum_members / self.enum_indec_calls if self.enum_indec_calls else 0.0,
            "ratio",
        )
        put("trace.outside_spans_s", wall_s - self.covered_s(), "s")
        put("trace.overhead_s", overhead_s, "s")
        return out

    def write(self, path):
        """Write the spans (name, start, end, parent) to a compressed .npz file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


class OpClock:
    """Outermost calls of a few functions, with calibration between them.

    Each call's interval is kept and rescaled afterwards by the speed
    calibrations, which run only while none of the functions is active,
    at most once per CALIBRATE_EVERY_S.
    """

    CALIBRATE_EVERY_S = 0.5

    def __init__(self, targets, speed):
        self.targets = dict(targets)  # metric name -> (layer, function)
        self.speed = speed
        self.intervals = {name: [] for name in self.targets}
        self._active = 0
        self._last_calibration = 0.0
        self._patches = Patches()

    def install(self):
        for name, (layer, fn_name) in self.targets.items():
            self._patches.function(layer, fn_name, lambda fn, n=name: self._wrap(n, fn))

    def _wrap(self, name, fn):
        depth = [0]
        clock = self
        intervals = self.intervals[name]

        def wrapper(*args, **kwargs):
            depth[0] += 1
            clock._active += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                depth[0] -= 1
                clock._active -= 1
                if not depth[0]:
                    intervals.append((start, end))
                if not clock._active and end - clock._last_calibration >= clock.CALIBRATE_EVERY_S:
                    clock.speed.calibrate()
                    clock._last_calibration = time.perf_counter()

        return wrapper

    def seconds(self, name):
        """Normalised seconds in the outermost calls of one function."""
        return sum(self.speed.scaled(t0, t1) for t0, t1 in self.intervals[name])

    def uninstall(self):
        self._patches.restore()
