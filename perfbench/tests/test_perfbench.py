"""Tests of the benchmark's own code: workloads, tracing arithmetic, checks."""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span, op_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, lattice_ops, workload_ops  # noqa: E402

from hcfwm.config import loads_config  # noqa: E402

SEEDS = range(8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_configs(workload):
    first = [(op.key, op.config_yaml()) for op in workload_ops(ROOT, workload, 7)]
    again = [(op.key, op.config_yaml()) for op in workload_ops(ROOT, workload, 7)]
    assert first == again
    keys = {op.key for seed in SEEDS for op in workload_ops(ROOT, workload, seed)}
    assert len(keys) > len(first), "the seed never moves the inputs"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generated_configs_load(workload):
    for seed in SEEDS:
        for op in workload_ops(ROOT, workload, seed):
            loads_config(op.config_yaml(), origin=op.key)


def test_seed_moves_no_work_size():
    """grid.N, point counts, grid_points and formats never depend on the seed."""
    for workload in WORKLOADS:
        shapes = set()
        for seed in SEEDS:
            cfgs = [loads_config(op.config_yaml()) for op in workload_ops(ROOT, workload, seed)]
            shapes.add(
                tuple(
                    (
                        c.grid.N,
                        c.grid.mode,
                        c.phasematch.grid_points,
                        c.output.formats,
                        c.density_map and c.density_map.pump_steps,
                        c.sweep_length and len(c.sweep_length.lengths_m),
                        c.sweep_pressure and len(c.sweep_pressure.pressures_bar),
                        c.set_sim and c.set_sim.steps,
                    )
                    for c in cfgs
                )
            )
        assert len(shapes) == 1, workload


def test_every_lattice_op_has_a_reference():
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)
    assert {op.key for op in lattice_ops(ROOT)} == set(reference)


def test_self_time_with_worker_threads():
    main, worker = 1, 2
    spans = [
        Span(1, None, "cli.main", "op", main, 0.0, 10.0, None),
        Span(2, 1, "sweeps.sweep_pressure", "op", main, 1.0, 9.0, None),
        Span(3, 2, "phasematch.solve_phase_matching", "op", main, 1.0, 2.0, None),
        # pool workers: roots of their own thread, overlapping the main thread
        Span(4, None, "jsa.build_jsa", "op", worker, 3.0, 5.0, {"jsa.build_jsa.cells": 4}),
        Span(5, None, "jsa.build_jsa", "op", worker + 1, 3.5, 6.0, {"jsa.build_jsa.cells": 4}),
        Span(6, 5, "writers.jsi_to_csv", "op", worker + 1, 4.0, 5.5, {"file": ("/a", 10)}),
        Span(7, 6, "writers.grid_to_csv", "op", worker + 1, 4.5, 5.5, {"file": ("/a", 10)}),
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 2.0, 2: 7.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 0.5, 7: 1.0})

    m = op_metrics(spans, main)
    assert m["cli.main.self_s"] == pytest.approx(2.0)
    assert m["sweeps.sweep_pressure.self_s"] == pytest.approx(7.0)
    assert m["jsa.build_jsa.calls"] == 2
    assert m["jsa.build_jsa.self_s"] == pytest.approx(3.0)
    assert m["jsa.build_jsa.cells"] == 8
    assert m["writers.self_s"] == pytest.approx(1.5)
    assert (m["writers.files"], m["writers.bytes"]) == (1, 10)
    # the main thread's spans tile cli.main; workers add busy time
    assert m["main_thread_self_s"] == pytest.approx(10.0)
    assert m["trace.worker_self_s"] == pytest.approx(4.5)


def test_overlapping_children_count_once():
    spans = [
        Span(1, None, "sweeps.sweep_length", "op", 1, 0.0, 4.0, None),
        Span(2, 1, "jsa.build_jsa", "op", 1, 1.0, 3.0, None),
        Span(3, 1, "jsa.build_jsa", "op", 1, 2.0, 5.0, None),
    ]
    assert self_times(spans)[1] == pytest.approx(1.0)


def test_tracer_records_spans_per_thread_and_on_error():
    t = tracer.Tracer("op-1")

    def leaf(x):
        if x < 0:
            raise ValueError(x)
        return x

    traced_leaf = t.wrap("jsa.marginals", leaf)

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(traced_leaf, [1, 2, 3]))

    assert t.wrap("sweeps.sweep_length", fan_out)() == [1, 2, 3]
    with pytest.raises(ValueError):
        traced_leaf(-1)
    by_name = {}
    for s in t.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["sweeps.sweep_length"]
    leaves = by_name["jsa.marginals"]
    assert len(leaves) == 4 and all(s.op == "op-1" for s in t.spans)
    assert all(s.parent is None for s in leaves), "parents are tracked per thread"
    assert {s.thread for s in leaves[:3]} != {root.thread}
    assert leaves[3].thread == root.thread and leaves[3].t1 >= leaves[3].t0


def test_drift_tolerance():
    ref = {"K_flat": 2.5, "n_branches": 2, "families": ["II+I"]}
    assert run.drift({"K_flat": 2.5 * (1 + 5e-10), "n_branches": 2, "families": ["II+I"]}, ref) == []
    assert run.drift({"K_flat": 2.5 * (1 + 5e-9), "n_branches": 2, "families": ["II+I"]}, ref)
    assert run.drift({"K_flat": 2.5, "n_branches": 3, "families": ["II+I"]}, ref)
    assert run.drift({"K_flat": 2.5, "n_branches": 2, "families": ["I+I"]}, ref)
    assert run.drift({"K_flat": 2.5, "n_branches": 2}, ref)


@pytest.mark.parametrize(
    "text, bad",
    [
        (b"0,1.5,2e-3\n1,nan,3\n", True),
        (b"0,1.5,-inf\n", True),
        (b'{"a": [1.0, NaN]}', True),
        (b'{"a": -Infinity}', True),
        (b'{"description": "information on the band-edge"}', False),
        (b"lambda_nm,band\n1530.5,II\n", False),
    ],
)
def test_nonfinite_scan(text, bad):
    assert bool(run.NONFINITE.search(text)) is bad


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
