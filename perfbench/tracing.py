"""Span tracing of mingraph from outside the package, and per-layer metrics.

``Tracer.install()`` replaces, in every module of the package, each public
function attribute (including names brought in with ``from ... import``)
by a wrapper that records a span.  It also wraps the model callables that
``models.get_model`` returns, the chunk function handed to
``util.run_chunks`` (so work done on pool threads keeps its caller's name),
and a few numpy/scipy kernels, whose spans are named after the layer that
called them.  ``Tracer.restore()`` puts every original attribute back.

Spans are kept in memory; ``layer_metrics`` turns them into the per-layer
numbers listed in ``PER_LAYER``.  A span's self time is its duration minus
the durations of its children in the same thread.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy.sparse.linalg as spla

LAYERS = ("algebra", "models", "grassmann", "diagnostics", "measure", "solver",
          "util", "cli")
MODEL_CALLABLES = ("value", "jacobian", "hessian")
KERNELS = [(np, "einsum"), (np, "meshgrid"), (np.linalg, "svd"),
           (np.linalg, "inv"), (np.linalg, "det"), (spla, "spsolve")]
MEMORY_LAYER = "measure"  # layer whose tracemalloc peak is recorded

SCANS = ("algebra.scan_mu123", "algebra.scan_mu123_lambda")
SAMPLERS = ("algebra.check_sqrt2_inequality", "algebra.check_lambda_inequality",
            "algebra.xi11_sampler")
SUBCOMMANDS = {"verify-algebra": "cli.cmd_verify_algebra",
               "measure": "cli.cmd_measure", "diagnose": "cli.cmd_diagnose",
               "solve": "cli.cmd_solve"}

# name -> unit of every per-layer metric, in the order they are reported
PER_LAYER = {
    "models.value.points": "count", "models.value.s": "s",
    "models.jacobian.points": "count", "models.jacobian.s": "s",
    "models.hessian.points": "count", "models.hessian.s": "s",
    "algebra.scan.calls": "count", "algebra.scan.s": "s",
    "algebra.scan.triples": "count",
    "algebra.sampler.calls": "count", "algebra.sampler.s": "s",
    "algebra.sampler.samples": "count",
    "algebra.delta_logv_rhs.calls": "count", "algebra.delta_logv_rhs.points": "count",
    "algebra.delta_logv_rhs.s": "s",
    "grassmann.two_dilation.calls": "count", "grassmann.two_dilation.s": "s",
    "diagnostics.logv_identity.calls": "count", "diagnostics.logv_identity.s": "s",
    "diagnostics.sff_components.calls": "count",
    "diagnostics.sff_components.points": "count", "diagnostics.sff_components.s": "s",
    "diagnostics.einsum.s": "s", "diagnostics.svd.s": "s", "diagnostics.inv.s": "s",
    "diagnostics.curvature_integral.s": "s",
    "diagnostics.write_diagnostics_csv.s": "s",
    "measure.graph_volume.calls": "count", "measure.graph_volume.s": "s",
    "measure.points_evaluated": "count", "measure.points_kept": "count",
    "measure.keep_ratio": "ratio",
    "measure.meshgrid.s": "s", "measure.det.s": "s", "measure.einsum.s": "s",
    "measure.peak_alloc_mb": "MB",
    "solver.solve.calls": "count", "solver.solve.s": "s",
    "solver.unknowns": "count", "solver.newton_iterations": "count",
    "solver.damped_steps": "count", "solver.picard_steps": "count",
    "solver.residual.calls": "count", "solver.residual.s": "s",
    "solver.splu.calls": "count", "solver.splu.s": "s",
    "solver.splu.factor_nnz": "count", "solver.lu_solve.s": "s",
    "solver.initial_guess.s": "s",
    "solver.patch_io.s": "s", "solver.patch_io.bytes": "B",
    "util.run_chunks.calls": "count", "util.chunks": "count",
    "util.cpu_per_wall": "s/s",
    **{f"cli.{cmd}.s": "s" for cmd in SUBCOMMANDS},
    "cli.self_s": "s", "cli.report_bytes": "B",
    "trace.overhead_frac": "ratio",
}


class Span:
    __slots__ = ("id", "name", "kind", "layer", "parent", "thread", "start", "end",
                 "caller", "n")

    def __init__(self, sid, name, kind, layer, parent, caller):
        self.id, self.name, self.kind, self.layer = sid, name, kind, layer
        self.parent, self.caller = parent, caller
        self.thread = threading.get_ident()
        self.n = {}
        self.end = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


def _points(x, core: int) -> int:
    """Number of points in a batch whose trailing ``core`` axes are one item."""
    shape = np.shape(x)
    return int(np.prod(shape[: len(shape) - core])) if len(shape) > core else 1


# Counts recorded from a wrapped function's positional arguments and result.
_COUNTS = {
    "algebra.scan_mu123": lambda a, out: {"triples": out.samples},
    "algebra.scan_mu123_lambda": lambda a, out: {"triples": out.samples},
    "algebra.check_sqrt2_inequality": lambda a, out: {"samples": out.samples},
    "algebra.check_lambda_inequality": lambda a, out: {"samples": out.samples},
    "algebra.xi11_sampler": lambda a, out: {"samples": out.samples},
    "algebra.delta_logv_rhs": lambda a, out: {"points": _points(a[0], 1)},
    "diagnostics.sff_components": lambda a, out: {"points": _points(a[0], 2)},
    "solver.save_patch": lambda a, out: {"bytes": a[0].values.nbytes},
    "solver.load_patch": lambda a, out: {"bytes": out.values.nbytes},
    "solver.solve": lambda a, out: {
        "unknowns": int(np.prod([d - 2 for d in a[0].dims])) * a[0].m,
        "iterations": out.iterations,
        "damped": sum(1 for s in out.damping_history if 0.0 < s < 1.0),
        "picard": sum(1 for s in out.damping_history if s < 0.0),
    },
}


class _TracedLU:
    """Stands in for a SuperLU factor so that its ``solve`` is timed."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class Tracer:
    """Records spans around mingraph's layers while installed."""

    def __init__(self):
        self.spans = []
        self.peak_alloc = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []
        self._memory_owner = None

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name, kind, layer, parent=None):
        stack = self._stack()
        top = stack[-1] if stack else None
        if parent is None and top is not None:
            parent = top.id
        span = Span(next(self._ids), name, kind, layer, parent,
                    top.layer if top is not None else None)
        stack.append(span)
        if layer == MEMORY_LAYER and self._memory_owner is None:
            self._memory_owner = span
            tracemalloc.start()
            tracemalloc.reset_peak()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)
        if span is self._memory_owner:
            self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            self._memory_owner = None

    # -- wrappers ---------------------------------------------------------
    def _wrap_function(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        counts = _COUNTS.get(name)
        if name == "util.run_chunks":
            return self._wrap_run_chunks(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, "fn", layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counts is not None:
                span.n = counts(args, out)
            if name == "models.get_model":
                out = self._wrap_model(out)
            return out

        return wrapper

    def _wrap_run_chunks(self, fn):
        @functools.wraps(fn)
        def wrapper(chunk_fn, chunks, *args, **kwargs):
            stack = self._stack()
            caller = stack[-1] if stack else None
            span = self._enter("util.run_chunks", "fn", "util")
            span.n = {"chunks": len(chunks)}
            name = caller.name if caller is not None else "util.run_chunks"
            layer = caller.layer if caller is not None else "util"

            def traced_chunk(chunk):
                inner = self._enter(name, "chunk", layer, parent=span.id)
                try:
                    return chunk_fn(chunk)
                finally:
                    self._exit(inner)

            try:
                return fn(traced_chunk, chunks, *args, **kwargs)
            finally:
                self._exit(span)

        return wrapper

    def _wrap_model(self, model):
        def traced(attr):
            fn = getattr(model, attr)

            def wrapper(x):
                span = self._enter(f"models.{attr}", "model", "models")
                span.n = {"points": _points(x, 1)}
                try:
                    return fn(x)
                finally:
                    self._exit(span)

            return wrapper

        return dataclasses.replace(model, **{a: traced(a) for a in MODEL_CALLABLES})

    def _wrap_kernel(self, fn, kernel, counts=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if not stack:
                return fn(*args, **kwargs)
            layer = stack[-1].layer
            span = self._enter(f"{layer}.{kernel}", "kernel", layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counts is not None:
                span.n = counts(out)
            return out

        return wrapper

    def _wrap_splu(self, fn):
        factor = self._wrap_kernel(fn, "splu", lambda lu: {"nnz": int(lu.nnz)})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            lu = factor(*args, **kwargs)
            return _TracedLU(lu, self._wrap_kernel(lu.solve, "lu_solve"))

        return wrapper

    # -- install / restore -------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer in LAYERS:
            module = importlib.import_module(f"mingraph.{layer}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("mingraph.")):
                    continue
                self._set(module, attr, self._wrap_function(obj))
        for owner, attr in KERNELS:
            self._set(owner, attr, self._wrap_kernel(getattr(owner, attr), attr))
        self._set(spla, "splu", self._wrap_splu(spla.splu))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def patched_attributes():
    """(owner, attribute) pairs a Tracer may replace, for the restore check."""
    pairs = [(owner, attr) for owner, attr in KERNELS] + [(spla, "splu")]
    for layer in LAYERS:
        module = importlib.import_module(f"mingraph.{layer}")
        pairs += [(module, attr) for attr in vars(module) if not attr.startswith("_")]
    return pairs


def self_times(spans) -> dict:
    """Span id -> duration minus its same-thread children's durations."""
    by_id = {s.id: s for s in spans}
    child = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent)
        if p is not None and p.thread == s.thread:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def layer_metrics(spans, peak_alloc: int, cpu_per_wall: float,
                  report_bytes: int) -> dict:
    """The per-layer metrics of one traced pass (all but the overhead)."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def pick(names, kinds=("fn", "chunk", "model", "kernel")):
        names = (names,) if isinstance(names, str) else names
        return [s for n in names for s in by_name.get(n, []) if s.kind in kinds]

    def calls(names):
        return float(len(pick(names, ("fn", "model", "kernel"))))

    def self_s(names):
        return sum(own[s.id] for s in pick(names))

    def total_s(names):
        return sum(s.duration for s in pick(names, ("fn",)))

    def total_n(chosen, key):
        return float(sum(s.n.get(key, 0) for s in chosen))

    def count(names, key):
        return total_n(pick(names), key)

    m = {}
    for attr in MODEL_CALLABLES:
        m[f"models.{attr}.points"] = count(f"models.{attr}", "points")
        m[f"models.{attr}.s"] = self_s(f"models.{attr}")
    m["algebra.scan.calls"] = calls(SCANS)
    m["algebra.scan.s"] = self_s(SCANS)
    m["algebra.scan.triples"] = count(SCANS, "triples")
    m["algebra.sampler.calls"] = calls(SAMPLERS)
    m["algebra.sampler.s"] = self_s(SAMPLERS)
    m["algebra.sampler.samples"] = count(SAMPLERS, "samples")
    m["algebra.delta_logv_rhs.calls"] = calls("algebra.delta_logv_rhs")
    m["algebra.delta_logv_rhs.points"] = count("algebra.delta_logv_rhs", "points")
    m["algebra.delta_logv_rhs.s"] = self_s("algebra.delta_logv_rhs")
    m["grassmann.two_dilation.calls"] = calls("grassmann.two_dilation")
    m["grassmann.two_dilation.s"] = self_s("grassmann.two_dilation")
    for fn in ("logv_identity", "sff_components"):
        m[f"diagnostics.{fn}.calls"] = calls(f"diagnostics.{fn}")
        m[f"diagnostics.{fn}.s"] = self_s(f"diagnostics.{fn}")
    m["diagnostics.sff_components.points"] = count("diagnostics.sff_components",
                                                   "points")
    for name in ("einsum", "svd", "inv", "curvature_integral", "write_diagnostics_csv"):
        m[f"diagnostics.{name}.s"] = self_s(f"diagnostics.{name}")
    m["measure.graph_volume.calls"] = calls("measure.graph_volume")
    m["measure.graph_volume.s"] = self_s("measure.graph_volume")
    evaluated = total_n([s for s in pick("models.value") if s.caller == "measure"],
                        "points")
    kept = total_n([s for s in pick("models.jacobian") if s.caller == "measure"],
                   "points")
    m["measure.points_evaluated"] = evaluated
    m["measure.points_kept"] = kept
    m["measure.keep_ratio"] = kept / evaluated if evaluated else 0.0
    for kernel in ("meshgrid", "det", "einsum"):
        m[f"measure.{kernel}.s"] = self_s(f"measure.{kernel}")
    m["measure.peak_alloc_mb"] = peak_alloc / 2**20
    m["solver.solve.calls"] = calls("solver.solve")
    m["solver.solve.s"] = self_s("solver.solve")
    m["solver.unknowns"] = count("solver.solve", "unknowns")
    m["solver.newton_iterations"] = count("solver.solve", "iterations")
    m["solver.damped_steps"] = count("solver.solve", "damped")
    m["solver.picard_steps"] = count("solver.solve", "picard")
    m["solver.residual.calls"] = calls("solver.strong_residual_field")
    m["solver.residual.s"] = self_s("solver.strong_residual_field")
    m["solver.splu.calls"] = calls("solver.splu")
    m["solver.splu.s"] = self_s("solver.splu")
    m["solver.splu.factor_nnz"] = count("solver.splu", "nnz")
    m["solver.lu_solve.s"] = self_s("solver.lu_solve")
    m["solver.initial_guess.s"] = total_s("solver.harmonic_initial_guess")
    io_names = ("solver.save_patch", "solver.load_patch")
    m["solver.patch_io.s"] = self_s(io_names)
    m["solver.patch_io.bytes"] = count(io_names, "bytes")
    m["util.run_chunks.calls"] = calls("util.run_chunks")
    m["util.chunks"] = count("util.run_chunks", "chunks")
    m["util.cpu_per_wall"] = cpu_per_wall
    for cmd, fn in SUBCOMMANDS.items():
        m[f"cli.{cmd}.s"] = total_s(fn)
    m["cli.self_s"] = sum(own[s.id] for s in spans
                          if s.layer == "cli" and s.kind == "fn")
    m["cli.report_bytes"] = float(report_bytes)
    return m
