"""Workloads of the benchmark: which hcfwm runs make up each one.

An op is one ``hcfwm <subcommand>`` run on one config.  A workload is a
fixed list of ops.  Its configs are bundled recipes and seeded variants of
them.  A variant moves only physical inputs (gas pressure, pump wavelength,
fiber length, sweep windows), each by a whole number of steps from
``STEPS``.  Every point of that small lattice phase-matches and has a
reference result in ``reference.json``, recorded by
``record_reference.py``.  Grid sizes, point counts and output formats never
move, so the amount of work does not depend on the seed.
"""

from __future__ import annotations

import copy
import itertools
import os
import random
from dataclasses import dataclass

import yaml

STEPS = (-2, -1, 0, 1, 2)


def _round(x: float) -> float:
    return round(x, 9)


def pressure(step_bar: float):
    def apply(cfg: dict, k: int) -> None:
        cfg["gas"]["pressure_bar"] = _round(cfg["gas"]["pressure_bar"] + step_bar * k)

    return apply


def pump_shift(step_nm: float):
    """Moves the pump, and the density-map pump range with it."""

    def apply(cfg: dict, k: int) -> None:
        d = step_nm * k
        cfg["pump"]["lambda_nm"] = _round(cfg["pump"]["lambda_nm"] + d)
        if "density_map" in cfg:
            dm = cfg["density_map"]
            dm["pump_min_nm"] = _round(dm["pump_min_nm"] + d)
            dm["pump_max_nm"] = _round(dm["pump_max_nm"] + d)

    return apply


def fiber_length(step_m: float):
    def apply(cfg: dict, k: int) -> None:
        cfg["fiber_length_m"] = _round(cfg["fiber_length_m"] + step_m * k)

    return apply


def length_window(step_m: float):
    """Shifts every length of the sweep; the point count stays."""

    def apply(cfg: dict, k: int) -> None:
        lengths = cfg["sweep_length"]["lengths_m"]
        cfg["sweep_length"]["lengths_m"] = [_round(x + step_m * k) for x in lengths]

    return apply


def pressure_window(step_bar: float):
    """Shifts start and stop of the sweep; step and point count stay."""

    def apply(cfg: dict, k: int) -> None:
        sp = cfg["sweep_pressure"]
        sp["start_bar"] = _round(sp["start_bar"] + step_bar * k)
        sp["stop_bar"] = _round(sp["stop_bar"] + step_bar * k)

    return apply


@dataclass(frozen=True)
class Slot:
    """Some subcommands on one recipe, or on a seeded variant of it."""

    recipe: str
    subcommands: tuple[str, ...]
    axes: tuple = ()  # ((name, apply), ...); empty: the recipe itself
    full_grid: bool = False
    threads: int = 1


@dataclass(frozen=True)
class Op:
    key: str  # names the reference result; the thread count is not part of it
    subcommand: str
    config: dict
    threads: int

    def config_yaml(self) -> str:
        return yaml.safe_dump(self.config, sort_keys=True)


DESIGN = ("dispersion", "phasematch", "density-map")
POINT = ("jsa", "schmidt", "set-sim")

# Why each workload exists is written in BENCHMARK.json and README.md.
WORKLOADS: dict[str, tuple[Slot, ...]] = {
    "design-map": (
        Slot("map_t300", DESIGN),
        Slot("map_t300", DESIGN, (("P", pressure(0.1)), ("pump", pump_shift(4.0)))),
        Slot("map_t600", DESIGN),
        Slot("map_t600", DESIGN, (("P", pressure(0.1)), ("pump", pump_shift(5.0)))),
    ),
    "point-study": (
        Slot("length_series", POINT),
        Slot(
            "length_series",
            POINT,
            (("P", pressure(0.04)), ("L", fiber_length(0.1))),
            full_grid=True,
        ),
    ),
    "sweep-study": (
        Slot(
            "length_series",
            ("sweep-length",),
            (("P", pressure(0.04)), ("Lwin", length_window(0.05))),
            threads=2,
        ),
        Slot(
            "tuning_xe",
            ("sweep-pressure",),
            (("Pwin", pressure_window(0.05)),),
            threads=2,
        ),
    ),
}


def load_recipe(root: str, name: str) -> dict:
    path = os.path.join(root, "src", "hcfwm", "recipes", f"{name}.yaml")
    with open(path) as fh:
        return yaml.safe_load(fh)


def _slot_ops(root: str, slot: Slot, steps: tuple[int, ...]) -> list[Op]:
    cfg = copy.deepcopy(load_recipe(root, slot.recipe))
    for (_, apply), k in zip(slot.axes, steps):
        apply(cfg, k)
    if slot.full_grid:
        cfg["grid"]["mode"] = "full"
    tag = ".".join(f"{name}{k:+d}" for (name, _), k in zip(slot.axes, steps))
    recipe = slot.recipe + ("-full" if slot.full_grid else "")
    return [
        Op(f"{sub}/{recipe}/{tag or 'base'}", sub, cfg, slot.threads)
        for sub in slot.subcommands
    ]


def workload_ops(root: str, workload: str, seed: int) -> list[Op]:
    """The ops of one workload; the same seed gives the same configs."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for slot in WORKLOADS[workload]:
        steps = tuple(rng.choice(STEPS) for _ in slot.axes)
        ops.extend(_slot_ops(root, slot, steps))
    return ops


def lattice_ops(root: str) -> list[Op]:
    """Every op any seed can produce, each once, at one thread."""
    seen: dict[str, Op] = {}
    for slots in WORKLOADS.values():
        for slot in slots:
            for steps in itertools.product(STEPS, repeat=len(slot.axes)):
                for op in _slot_ops(root, slot, steps):
                    seen.setdefault(op.key, Op(op.key, op.subcommand, op.config, 1))
    return list(seen.values())
