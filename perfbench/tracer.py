"""Spans around hcfwm's public functions, and the per-layer metrics from them.

``Tracer.install`` replaces each traced function by a wrapper, on the
module that defines it and on every hcfwm module that imported it by name
(``sweeps`` imports ``build_jsa`` that way).  A wrapper records one span per
call: id, parent, name, op id, thread id, start, end and counts.  Parents
are tracked per thread, so a span opened in a thread-pool worker is a root
of that worker thread; its self time counts as the worker's busy time.
Spans stay in memory until the child writes its report.

This module imports nothing from hcfwm or numpy: the benchmark driver and
the tests use its aggregation functions without loading either.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

# layer -> public functions traced in that layer's module
LAYER_FUNCTIONS = {
    "cli": ("resolve_config",),
    "gasmedia": ("delta_gas",),
    "fibermodel": (
        "band_structure",
        "delta_eff",
        "reduced_kappa",
        "dispersion_derivatives",
        "find_zdw",
    ),
    "phasematch": ("solve_phase_matching", "density_map"),
    "jsa": ("build_jsa", "marginals"),
    "schmidt": ("schmidt_decompose",),
    "tomography": ("simulate_set_scan", "reconstruct_jsi", "power_scaling_check"),
    "sweeps": ("sweep_length", "sweep_pressure"),
}

# defining module -> exporters, traced as layer "writers"
WRITER_FUNCTIONS = {
    "jsa": ("jsa_to_json", "grid_to_csv", "jsi_to_csv"),
    "schmidt": ("schmidt_to_json", "schmidt_modes_to_csv"),
    "tomography": ("set_scan_to_csv", "reconstruction_to_csv"),
    "phasematch": ("density_map_to_csv",),
    "sweeps": ("summary_csv",),
    "config": ("dump_config",),
    "cli": ("_write_rows",),
}

MAIN_SPAN = "cli.main"

COUNTS = (
    ("fibermodel.delta_eff.points", "count"),
    ("phasematch.solve_phase_matching.branches", "count"),
    ("jsa.build_jsa.cells", "count"),
    ("jsa.build_jsa.full_cells", "count"),
    ("schmidt.schmidt_decompose.cells", "count"),
    ("sweeps.points_ok", "count"),
    ("sweeps.points_attempted", "count"),
    ("writers.bytes", "B"),
    ("writers.files", "count"),
)

# Figures the benchmark driver adds from the untraced and traced runs of
# the same ops: traced minus untraced wall time, and compute time the
# spans of the main thread leave unexplained.
DRIVER_FIGURES = (
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)


def traced_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, fns in LAYER_FUNCTIONS.items() for fn in fns]
    names += [f"writers.{fn}" for fns in WRITER_FUNCTIONS.values() for fn in fns]
    return names


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in traced_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTS)
    units["writers.self_s"] = "s"
    units["cli.main.self_s"] = "s"
    units["trace.worker_self_s"] = "s"
    units.update(DRIVER_FIGURES)
    return units


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    op: str
    thread: int
    t0: float
    t1: float
    counts: dict | None


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, reach), min(b, s.t1)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.t1 - s.t0) - covered
    return out


def op_metrics(spans, main_thread: int) -> dict[str, float]:
    """Per-layer metrics of one op's spans.

    Also returns ``main_thread_self_s``, the self time of every span on the
    main thread: the span tree there tiles ``cli.main``, so it should equal
    the op's compute time.
    """
    units = metric_units()
    m = {name: 0 for name in units if not name.startswith("trace.")}
    m["trace.worker_self_s"] = 0.0
    m["main_thread_self_s"] = 0.0
    files = {}
    own = self_times(spans)
    for s in spans:
        st = own[s.id]
        if s.thread == main_thread:
            m["main_thread_self_s"] += st
        else:
            m["trace.worker_self_s"] += st
        if s.name == MAIN_SPAN:
            m["cli.main.self_s"] += st
            continue
        m[f"{s.name}.calls"] += 1
        m[f"{s.name}.self_s"] += st
        if s.name.startswith("writers."):
            m["writers.self_s"] += st
        for key, value in (s.counts or {}).items():
            if key == "file":
                files[value[0]] = value[1]
            else:
                m[key] += value
    m["writers.files"] = len(files)
    m["writers.bytes"] = sum(files.values())
    return m


def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    return len(x) if hasattr(x, "__len__") else 1


def _delta_eff_counts(args, kwargs, result):
    lam = kwargs["lambda_nm"] if "lambda_nm" in kwargs else args[2]
    return {"fibermodel.delta_eff.points": _size(lam)}


def _branch_counts(args, kwargs, result):
    return {"phasematch.solve_phase_matching.branches": len(result)}


def _jsa_counts(args, kwargs, result):
    cells = int(result.values.size)
    return {
        "jsa.build_jsa.cells": cells,
        "jsa.build_jsa.full_cells": cells if result.mode == "full" else 0,
    }


def _schmidt_counts(args, kwargs, result):
    n_s, n_i = result.signal_modes.shape[0], result.idler_modes.shape[0]
    return {"schmidt.schmidt_decompose.cells": n_s * n_i}


def _sweep_counts(args, kwargs, result):
    ok = len(result.points)
    return {"sweeps.points_ok": ok, "sweeps.points_attempted": ok + len(result.gaps)}


def _writer_counts(fn):
    sig = inspect.signature(fn)

    def counts(args, kwargs, result):
        path = sig.bind(*args, **kwargs).arguments.get("path")
        if path is None:
            return None
        return {"file": (os.path.abspath(path), os.path.getsize(path))}

    return counts


_COUNTERS = {
    "fibermodel.delta_eff": _delta_eff_counts,
    "phasematch.solve_phase_matching": _branch_counts,
    "jsa.build_jsa": _jsa_counts,
    "schmidt.schmidt_decompose": _schmidt_counts,
    "sweeps.sweep_length": _sweep_counts,
    "sweeps.sweep_pressure": _sweep_counts,
}


class Tracer:
    """Records spans of one op, from every thread, in memory."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            ok = False
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                # a call that raises keeps its span, without counts
                t1 = time.perf_counter()
                stack.pop()
                extra = counts(args, kwargs, result) if ok and counts else None
                self.spans.append(
                    Span(sid, parent, name, self.op_id, threading.get_ident(), t0, t1, extra)
                )
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever hcfwm holds it by name."""
        targets = [
            (module, fn, f"{module}.{fn}", _COUNTERS.get(f"{module}.{fn}"))
            for module, fns in LAYER_FUNCTIONS.items()
            for fn in fns
        ]
        for module, fns in WRITER_FUNCTIONS.items():
            for fn in fns:
                original = getattr(sys.modules[f"hcfwm.{module}"], fn)
                targets.append((module, fn, f"writers.{fn}", _writer_counts(original)))
        modules = [
            m for name, m in sys.modules.items()
            if name == "hcfwm" or name.startswith("hcfwm.")
        ]
        for module, fn, name, counts in targets:
            original = getattr(sys.modules[f"hcfwm.{module}"], fn)
            wrapped = self.wrap(name, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]
