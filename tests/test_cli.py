"""Command-line interface: artifacts, manifests, exit codes, determinism."""

from __future__ import annotations

import copy
import ctypes
import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from importlib.resources import files as resource_files

import hcfwm
from hcfwm import cli, config, export, fibermodel, schmidt
from hcfwm.errors import NumericalError

BASE = {
    "fiber": {},
    "gas": {},
    "pump": {},
    "fiber_length_m": 0.4,
    "grid": {"N": 64},
    "phasematch": {"grid_points": 2000},
}

EXTRAS = {
    "dispersion": {},
    "phasematch": {},
    "jsa": {},
    "schmidt": {},
    "set-sim": {
        "set_sim": {
            "seed_min_nm": 1510.0,
            "seed_max_nm": 1550.0,
            "steps": 16,
            "pump_power_W": 0.5,
            "seed_power_W": 1e-6,
            "duty_cycle": 0.5,
            "noise": {"rel_sigma": 0.01, "dark_floor": 1e-20, "seed": 7},
            "power_check_seed_W": [1e-6, 2e-6, 4e-6, 8e-6, 1.6e-5],
            "power_check_pump_W": [0.1, 0.2, 0.4, 0.8, 1.6],
        }
    },
    "sweep-length": {"sweep_length": {"lengths_m": [0.3, 0.6]}},
    "sweep-pressure": {"sweep_pressure": {"pressures_bar": [3.3, 3.4, 3.5]}},
    "density-map": {
        "density_map": {"pump_min_nm": 1020.0, "pump_max_nm": 1040.0,
                        "pump_steps": 3}
    },
}

EXPECTED_FILES = {
    "dispersion": ["bands.csv", "dispersion.csv", "zdw.csv"],
    "phasematch": ["branches.csv"],
    "jsa": ["jsa.json", "jsi.csv", "marginals.csv"],
    "schmidt": ["schmidt_flat.json", "schmidt_complex.json", "modes.csv"],
    "set-sim": ["scan.csv", "reconstruction.csv", "power_scaling.json"],
    "sweep-length": ["summary.csv", "sweep.json", "jsi_L_0.3m.csv",
                     "jsi_L_0.6m.csv"],
    "sweep-pressure": ["summary.csv", "sweep.json", "jsi_P_3.3bar.csv",
                       "jsi_P_3.4bar.csv", "jsi_P_3.5bar.csv"],
    "density-map": ["density.csv", "families.json"],
}


def write_cfg(tmp_path, raw, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw, sort_keys=True))
    return str(path)


def read_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_subcommand_runs_and_manifests(subcommand, tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    cfg_path = write_cfg(tmp_path, raw)
    out = str(tmp_path / "out")
    rc = cli.main(
        [subcommand, "--config", cfg_path, "--out", out, "--label", "t"]
    )
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    run_dir = os.path.join(out, subcommand, "t")
    manifest = read_manifest(run_dir)
    assert set(manifest) == {
        "package", "subcommand", "config", "artifacts", "results",
    }
    assert manifest["subcommand"] == subcommand
    assert manifest["package"].startswith("hcfwm ")
    listed = [a["file"] for a in manifest["artifacts"]]
    for fname in EXPECTED_FILES[subcommand] + ["config.yaml"]:
        assert fname in listed
        assert os.path.exists(os.path.join(run_dir, fname))
    for entry in manifest["artifacts"]:
        assert entry["description"]
    # manifests carry relative names only, never machine-local paths
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        assert str(tmp_path) not in fh.read()
    # the dumped config reloads to exactly the resolved configuration
    reloaded = config.load_config(os.path.join(run_dir, "config.yaml"))
    assert reloaded == config.config_from_dict(copy.deepcopy(raw))
    # every artifact is announced on stdout
    for fname in EXPECTED_FILES[subcommand]:
        assert f"wrote {os.path.join(run_dir, fname)}  (" in captured.out
    assert "wrote " + os.path.join(run_dir, "manifest.json") in captured.out


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_output_formats_gate_every_subcommand(subcommand, fmt, tmp_path):
    """output.formats: [csv] leaves no JSON file but the manifest, [json]
    no CSV; the manifest lists exactly the files the run wrote."""
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    raw["output"] = {"formats": [fmt]}
    assert _run_cli(tmp_path, subcommand, raw) == 0
    run_dir = tmp_path / "o" / subcommand / "t"
    written = sorted(p.name for p in run_dir.iterdir())
    listed = [a["file"] for a in read_manifest(run_dir)["artifacts"]]
    assert sorted(listed + ["manifest.json"]) == written
    left_out = {"csv": ".json", "json": ".csv"}[fmt]
    assert {n for n in written if n.endswith(left_out)} <= {"manifest.json"}
    expected = [n for n in EXPECTED_FILES[subcommand] if n.endswith("." + fmt)]
    assert set(expected) <= set(written)


@pytest.mark.parametrize("subcommand", ["sweep-length", "sweep-pressure"])
def test_sweep_manifest_lists_each_grid_once_in_write_order(
    subcommand, tmp_path, capsys
):
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    assert _run_cli(tmp_path, subcommand, raw) == 0
    run_dir = tmp_path / "o" / subcommand / "t"
    listed = [a["file"] for a in read_manifest(run_dir)["artifacts"]]
    grids = [n for n in EXPECTED_FILES[subcommand] if n.startswith("jsi_")]
    assert listed == grids + ["summary.csv", "sweep.json", "config.yaml"]
    assert all((run_dir / n).is_file() for n in listed)
    wrote = [line.split()[1] for line in capsys.readouterr().out.splitlines()
             if line.startswith("wrote ")]
    assert wrote == [str(run_dir / n) for n in listed + ["manifest.json"]]


def test_same_label_reruns_are_byte_identical(tmp_path):
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        rc = cli.main(
            ["jsa", "--config", cfg_path, "--out", str(out), "--label", "same"]
        )
        assert rc == 0
    for fname in ("jsi.csv", "jsa.json", "marginals.csv", "config.yaml",
                  "manifest.json"):
        blobs = [(out / "jsa" / "same" / fname).read_bytes() for out in outs]
        assert blobs[0] == blobs[1], f"{fname} differs between reruns"


def test_thread_count_does_not_change_output(tmp_path):
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS["sweep-pressure"]))
    cfg_path = write_cfg(tmp_path, raw)
    blobs = {}
    for threads in (1, 4):
        out = tmp_path / f"out{threads}"
        rc = cli.main(
            ["sweep-pressure", "--config", cfg_path, "--out", str(out),
             "--label", "t", "--threads", str(threads)]
        )
        assert rc == 0
        run_dir = out / "sweep-pressure" / "t"
        blobs[threads] = tuple(
            (run_dir / f).read_bytes() for f in ("summary.csv", "sweep.json")
        )
    assert blobs[1] == blobs[4]


# ------------------------------------------------------------ exit codes


def test_empty_config_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    rc = cli.main(["jsa", "--config", str(path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exits_1(tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    raw["fiber"]["t_um"] = 0.63
    rc = cli.main(["jsa", "--config", write_cfg(tmp_path, raw)])
    assert rc == 1
    assert "fiber.t_um" in capsys.readouterr().err


def test_bogus_recipe_lists_bundled_names(capsys):
    rc = cli.main(["jsa", "--config", "no_such_recipe"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bundled recipes:" in err
    assert "length_series" in err


def test_missing_config_flag_exits_1(capsys):
    rc = cli.main(["jsa"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_no_subcommand_exits_1(capsys):
    rc = cli.main([])
    assert rc == 1
    assert "a subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    rc = cli.main(["frobnicate", "--config", cfg_path])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_thread_count_exits_1(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    rc = cli.main(["jsa", "--config", cfg_path, "--threads", "0"])
    assert rc == 1
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_missing_required_section_exits_1(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    rc = cli.main(["set-sim", "--config", cfg_path,
                   "--out", str(tmp_path / "o"), "--label", "t"])
    assert rc == 1
    assert "'set_sim' is required" in capsys.readouterr().err
    rc = cli.main(["density-map", "--config", cfg_path,
                   "--out", str(tmp_path / "o"), "--label", "t"])
    assert rc == 1
    assert "'density_map' is required" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gas", "pressure_bar", float("inf")),
        ("gas", "pressure_bar", float("nan")),
        ("gas", "temperature_K", float("inf")),
        ("fiber", "R_eff_um", float("nan")),
        ("fiber", "t_nm", float("inf")),
        ("pump", "lambda_nm", float("inf")),
        ("pump", "pulse_fwhm_fs", float("nan")),
        (None, "fiber_length_m", float("inf")),
        ("phasematch", "pump_peak_power_W", float("nan")),
        ("phasematch", "pump_peak_power_W", float("inf")),
    ],
)
def test_non_finite_config_value_exits_1(section, key, value, tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    (raw[section] if section else raw)[key] = value
    rc = cli.main(
        ["phasematch", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    path = f"{section}.{key}" if section else key
    assert f"config key '{path}' must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "subcommand, path",
    [
        ("phasematch", "fiber_length_m"),
        ("jsa", "grid.N"),
        ("sweep-length", "sweep_length.lengths_m[1]"),
    ],
)
def test_integer_beyond_the_float_range_exits_1(subcommand, path, tmp_path, capsys):
    """An integer that no float holds is refused as not finite, by name,
    not converted into an OverflowError."""
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    if path == "grid.N":
        raw["grid"]["N"] = 10**400
    elif path == "fiber_length_m":
        raw["fiber_length_m"] = 10**400
    else:
        raw["sweep_length"]["lengths_m"][1] = 10**400
    rc = cli.main(
        [subcommand, "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err == f"error: config key '{path}' must be finite, got 1{'0' * 17}...{'0' * 19}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "path, value",
    [
        ("gas.pressure_bar", "abc"),
        ("gas.pressure_bar", None),
        ("gas.pressure_bar", [1]),
        ("gas.pressure_bar", True),
        ("pump.modulation.depth", "abc"),
        ("set_sim.duty_cycle", "abc"),
        ("sweep_length.lengths_m", ["a"]),
    ],
)
def test_non_numeric_config_value_exits_1(path, value, tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    *sections, key = path.split(".")
    node = raw
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    rc = cli.main(
        ["phasematch", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config key '{path}" in err and "must be a number" in err
    assert not (tmp_path / "o").exists()


def test_identical_power_check_exits_1(tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS["set-sim"]))
    raw["set_sim"]["power_check_seed_W"] = [1e-9] * 5
    rc = cli.main(
        ["set-sim", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed power axis needs at least 5 distinct points, got 1" in err
    assert not (tmp_path / "o" / "set-sim" / "t" / "power_scaling.json").exists()


@pytest.mark.parametrize(
    "axis, key",
    [
        ({"start_bar": 3.0, "stop_bar": 1e300, "step_bar": 0.05}, "stop_bar"),
        ({"start_bar": 3.0, "stop_bar": 20.0, "step_bar": 1e-9}, "step_bar"),
        ({"start_bar": 1.0, "stop_bar": 2.0, "step_bar": 5e-324}, "step_bar"),
    ],
    ids=["huge-stop", "tiny-step", "underflow-step"],
)
def test_unbounded_pressure_range_exits_1(axis, key, tmp_path, capsys):
    """Refused before the axis is built, so memory stays bounded."""
    raw = copy.deepcopy(BASE)
    raw["sweep_pressure"] = axis
    rc = cli.main(
        ["sweep-pressure", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    assert f"config key 'sweep_pressure.{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "path, section, keys",
    [
        ("pump.sigma_THz", "pump", {"sigma_THz": 1e300}),
        ("pump.modulation.period_THz", "pump",
         {"modulation": {"depth": 0.3, "period_THz": 1e300}}),
        ("phasematch.detuning_max_THz", "phasematch",
         {"detuning_min_THz": 1.0, "detuning_max_THz": 1e300}),
    ],
    ids=["sigma", "period", "detuning"],
)
def test_frequency_that_overflows_in_rad_s_exits_1(
    path, section, keys, tmp_path, capsys
):
    """A _THz key is checked where the physics takes it, in rad/s."""
    raw = copy.deepcopy(BASE)
    raw[section].update(keys)
    rc = cli.main(
        ["jsa", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: config key '{path}' must stay finite in rad/s (x 1e12), "
        "got 1e+300\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "keys, message",
    [
        ({"pulse_fwhm_fs": 1e-300},
         "config key 'pump.pulse_fwhm_fs' gives a pump sigma above 1e+150 "
         "rad/s, got 1e-300"),
        ({"sigma_THz": 1e148},
         "config key 'pump.sigma_THz' gives a pump sigma above 1e+150 rad/s, "
         "got 1e+148"),
    ],
    ids=["fwhm", "sigma"],
)
def test_pump_width_beyond_the_sigma_cap_exits_1(keys, message, tmp_path, capsys):
    """A width whose field sigma GaussianPump would refuse, or would not
    even reach as a number, names its config key; no warning comes first."""
    raw = copy.deepcopy(BASE)
    raw["pump"].update(keys)
    rc = cli.main(
        ["jsa", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def _run_cli(tmp_path, subcommand, raw):
    return cli.main(
        [subcommand, "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )


def test_sweep_gap_is_printed_and_listed(tmp_path, capsys):
    """A length whose JSA grid is almost all outside the bands is a gap of
    the sweep, not a failure of the run."""
    raw = copy.deepcopy(BASE)
    raw["sweep_length"] = {"lengths_m": [0.0001, 1.0]}
    assert _run_cli(tmp_path, "sweep-length", raw) == 0
    out = capsys.readouterr().out
    assert "length_m=0.0001m: gap (99.9% of the JSA grid" in out
    run_dir = tmp_path / "o" / "sweep-length" / "t"
    gaps = json.loads((run_dir / "sweep.json").read_text())["gaps"]
    assert [g["value"] for g in gaps] == [0.0001]
    assert gaps[0]["reason"].startswith("99.9% of the JSA grid")
    assert sorted(p.name for p in run_dir.glob("jsi_*")) == ["jsi_L_1m.csv"]
    # artifacts carry relative names only
    assert str(tmp_path) not in (run_dir / "sweep.json").read_text()


@pytest.mark.parametrize(
    "subcommand, axis, texts",
    [
        ("sweep-length", {"sweep_length": {"lengths_m": [0.4000001, 0.4000002,
                                                         1.0]}},
         ["0.4000001", "0.4000002", "1"]),
        ("sweep-pressure", {"sweep_pressure": {"pressures_bar": [
            2.85, 3.4000001, 3.4000002]}},
         ["2.85", "3.4000001", "3.4000002"]),
    ],
    ids=["length", "pressure"],
)
def test_sweep_values_sharing_6_digits_get_a_file_each(
    subcommand, axis, texts, tmp_path, capsys
):
    """A point's value is named with {:g} where that reads back as the
    value and with repr otherwise, in its file name, its manifest entry
    and its stdout line alike, so distinct values never share a file."""
    raw = copy.deepcopy(BASE)
    raw.update(axis)
    assert _run_cli(tmp_path, subcommand, raw) == 0
    param, unit, tag = {
        "sweep-length": ("length_m", "m", "L"),
        "sweep-pressure": ("pressure_bar", "bar", "P"),
    }[subcommand]
    run_dir = tmp_path / "o" / subcommand / "t"
    names = [f"jsi_{tag}_{t}{unit}.csv" for t in texts]
    assert sorted(p.name for p in run_dir.glob("jsi_*")) == names
    grids = [a for a in read_manifest(run_dir)["artifacts"]
             if a["file"].startswith("jsi_")]
    assert grids == [
        {"file": n, "description": f"JSI grid at {param}={t}"}
        for n, t in zip(names, texts)
    ]
    lines = capsys.readouterr().out.splitlines()
    points = [line.partition(": K_flat=")[0] for line in lines if "K_flat=" in line]
    assert points == [f"{param}={t}{unit}" for t in texts]


@pytest.mark.parametrize("species", ["krypton", "silica", "table"])
def test_sweep_pressure_fails_on_a_bad_gas_as_sweep_length_does(
    species, tmp_path, monkeypatch, capsys
):
    """The gas every point shares is built once, before the first point:
    an unknown species, a wall material or an unreadable gas table fails
    the run with the error line sweep-length prints, not as one gap per
    pressure."""
    if species == "table":
        monkeypatch.setenv("HCFWM_GAS_DATA", str(tmp_path / "missing.yaml"))
    errs = []
    for subcommand in ("sweep-length", "sweep-pressure"):
        raw = copy.deepcopy(BASE)
        raw.update(copy.deepcopy(EXTRAS[subcommand]))
        if species != "table":
            raw["gas"] = {"species": species}
        assert _run_cli(tmp_path, subcommand, raw) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("error: ") and errs[0].count("\n") == 1


def test_failed_zdw_search_warns_and_drops_its_band(tmp_path, capsys,
                                                     monkeypatch):
    find_zdw = fibermodel.find_zdw

    def failing(fiber, gas, band):
        if band.label == "II":
            raise NumericalError("no sign change to bracket")
        return find_zdw(fiber, gas, band)

    monkeypatch.setattr(fibermodel, "find_zdw", failing)
    assert _run_cli(tmp_path, "dispersion", copy.deepcopy(BASE)) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: UserWarning: no zero-dispersion wavelengths for band II: "
        "no sign change to bracket"
    ]
    run_dir = tmp_path / "o" / "dispersion" / "t"
    bands = [row.split(",")[0] for row in
             (run_dir / "zdw.csv").read_text().splitlines()[1:]]
    assert "II" not in bands and "I" in bands and "III" in bands
    assert "II" not in read_manifest(run_dir)["results"]["zdw_nm"]


def test_edge_pumps(tmp_path, capsys):
    """On the map_t600 fiber a pump above about 3038 nm has no default
    detuning window: a map across it goes on with one warning line per
    gap pump, a single pump is refused with one error line."""
    raw = yaml.safe_load(
        resource_files("hcfwm").joinpath("recipes", "map_t600.yaml").read_text()
    )
    raw["density_map"].update(pump_min_nm=2900.0, pump_max_nm=3100.0)
    assert _run_cli(tmp_path, "density-map", raw) == 0
    out, err = capsys.readouterr()
    assert "0 phase-matched points in 0 families\n" in out
    assert [line.split(": it is ")[0] for line in err.splitlines()] == [
        f"warning: UserWarning: pump at {lam} nm is a gap: no detuning "
        f"window for the pump at {lam} nm"
        for lam in range(3040, 3101, 4)
    ]
    raw["pump"]["lambda_nm"] = 3100.0
    assert _run_cli(tmp_path, "phasematch", raw) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: no detuning window")
    assert "pump at 3100 nm" in err[0] and "model window [250, 3200] nm" in err[0]


def test_bundled_map_names_its_one_gap_pump(tmp_path, capsys):
    assert cli.main(["density-map", "--config", "map_t600",
                     "--out", str(tmp_path), "--label", "t"]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: UserWarning: pump at 1250 nm is a gap: 1250 nm lies within "
        "0.5% of the wall resonance at 1252.89 nm where the tube model diverges"
    ]


def test_dispersion_without_wall_resonances(tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    raw["gas"] = {"species": "xenon", "pressure_bar": 4.0}
    raw["fiber"] = {"t_nm": 80.0}
    assert _run_cli(tmp_path, "dispersion", raw) == 0
    assert "\n1 band; no wall resonances\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fiber, gas, bands",
    [
        ({"t_nm": 100.0}, {"species": "xenon", "pressure_bar": 1.0}, ["I"]),
        # band III of this wall would lie wholly inside the exclusion zone
        # of the 251 nm resonance
        ({"t_nm": 222.8, "R_eff_um": 20.0},
         {"species": "xenon", "pressure_bar": 1.0}, ["I", "II"]),
    ],
    ids=["thin-wall", "band-inside-a-zone"],
)
def test_dispersion_of_walls_that_failed(fiber, gas, bands, tmp_path, capsys):
    """Resonances are solved only where their zones reach the window, and a
    band only where evaluation is allowed: no warning, no error."""
    raw = copy.deepcopy(BASE)
    raw["fiber"], raw["gas"] = fiber, gas
    assert _run_cli(tmp_path, "dispersion", raw) == 0
    assert capsys.readouterr().err == ""
    manifest = read_manifest(tmp_path / "o" / "dispersion" / "t")
    assert manifest["results"]["bands"] == bands


@pytest.mark.parametrize(
    "t_nm, narrow",
    [
        # band X is usable only on [250, 250.586] nm: 1e-3 of its width
        # put the first sample inside the reach of its stencil
        (1006.49, []),
        # band XCIV is usable only on [363.562, 363.569] nm
        (15689.77, ["XCIV"]),
    ],
    ids=["narrow-band", "too-narrow-band"],
)
def test_dispersion_samples_only_where_a_stencil_fits(t_nm, narrow, tmp_path,
                                                      capsys):
    """Samples keep twice the narrowest stencil's reach from the band
    edges; a band too narrow for that is named in one warning line and
    gets no samples and no ZDW search, and the run goes on."""
    raw = copy.deepcopy(BASE)
    raw["fiber"] = {"t_nm": t_nm, "R_eff_um": 20.0}
    raw["gas"] = {"species": "xenon", "pressure_bar": 1.0}
    assert _run_cli(tmp_path, "dispersion", raw) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: UserWarning: band {label} is too narrow to sample: its "
        f"usable [363.562, 363.569] nm leaves no room for a dispersion stencil"
        for label in narrow
    ]
    run_dir = tmp_path / "o" / "dispersion" / "t"
    results = read_manifest(run_dir)["results"]
    sampled = {row.split(",")[1] for row in
               (run_dir / "dispersion.csv").read_text().splitlines()[1:]}
    assert sorted(sampled) == sorted(set(results["bands"]) - set(narrow))
    assert sorted(results["zdw_nm"]) == sorted(sampled)


@pytest.mark.parametrize(
    "label", [".", "..", "a/b", "a/../../x", "x/", "/abs"]
)
def test_label_must_be_one_path_component(label, tmp_path, capsys):
    rc = cli.main(["phasematch", "--config", "map_t300",
                   "--out", str(tmp_path / "o"), "--label", label])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: --label must be one path component, got {label!r}\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "subcommand, path, value, bound",
    [
        ("jsa", "grid.N", 10**20, "<= 4096"),
        ("jsa", "grid.N", 4097, "<= 4096"),
        ("dispersion", "fiber.mode_n", 1_000_000, "<= 1000"),
        ("set-sim", "set_sim.noise.seed", -5, ">= 0"),
    ],
    ids=["huge-grid", "grid-above-cap", "huge-mode-order", "negative-seed"],
)
def test_out_of_range_integer_exits_1(
    subcommand, path, value, bound, tmp_path, capsys
):
    """Refused by the config check, before a grid, an eigensolve or a
    random stream is set up."""
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    *sections, key = path.split(".")
    node = raw
    for name in sections:
        node = node.setdefault(name, {})
    node[key] = value
    rc = cli.main(
        [subcommand, "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config key '{path}' must be {bound}, got {value}" in err
    assert not (tmp_path / "o").exists()


def test_unfittable_sweep_exits_2(tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    raw["phasematch"].update(
        {"detuning_min_THz": 100.0, "detuning_max_THz": 200.0}
    )
    raw["sweep_pressure"] = {"pressures_bar": [3.0, 3.2]}
    rc = cli.main(
        ["sweep-pressure", "--config", write_cfg(tmp_path, raw),
         "--out", str(tmp_path / "o"), "--label", "t"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "fewer than 2 successful" in err


@pytest.mark.parametrize(
    "subcommand, edits",
    [
        ("dispersion", {"fiber.R_eff_um": 1e-300}),  # NaN dispersion.csv
        ("dispersion", {"fiber.t_nm": 1e-300, "pump.lambda_nm": 0.5}),  # -inf
        ("dispersion", {"fiber.R_eff_um": 1e300}),  # OverflowError
        ("phasematch", {"fiber.R_eff_um": 1e300}),  # OverflowError
    ],
    ids=["tiny-core", "tiny-strut", "huge-core", "huge-core-pm"],
)
def test_extreme_config_exits_2_with_finite_artifacts(
    subcommand, edits, tmp_path, capsys
):
    raw = copy.deepcopy(BASE)
    for path, value in edits.items():
        section, key = path.split(".")
        raw[section][key] = value
    out = tmp_path / "o"
    rc = cli.main(
        [subcommand, "--config", write_cfg(tmp_path, raw),
         "--out", str(out), "--label", "t"]
    )
    assert rc == 2
    *warned, failure = capsys.readouterr().err.splitlines()
    assert failure.startswith("numerical failure:")
    assert all(re.fullmatch(r"warning: \w+Warning: .+", w) for w in warned)
    assert len(set(warned)) == len(warned)
    assert not [p for p in out.rglob("*") if p.is_file()
                and _non_finite_in(str(p))]


@pytest.mark.parametrize(
    "formats", [["csv"], ["json"], ["csv", "json"]], ids=["csv", "json", "both"]
)
def test_exit_code_does_not_depend_on_output_formats(formats, tmp_path, capsys):
    """A file that output.formats leaves out is not written, but what its
    writer would refuse in it still stops the run."""
    raw = copy.deepcopy(BASE)
    raw["fiber"]["R_eff_um"] = 1e-300  # NaN in dispersion.csv
    raw["output"] = {"formats": formats}
    assert _run_cli(tmp_path, "dispersion", raw) == 2
    failure = capsys.readouterr().err.splitlines()[-1]
    if "csv" in formats:
        assert failure == (
            "numerical failure: non-finite number on line 2 of dispersion.csv"
        )
    else:
        assert failure == (
            "numerical failure: dispersion.csv, which output.formats leaves "
            "out: non-finite number on line 2 of the artifact"
        )
    assert not list((tmp_path / "o").rglob("dispersion.csv"))
    assert not list((tmp_path / "o").rglob("manifest.json"))


def test_left_out_formats_are_checked_not_encoded(tmp_path, monkeypatch):
    """Without csv in output.formats, a sweep's JSI grids are checked for
    non-finite numbers but never encoded as text."""
    encoded = []
    encode = export._encode
    monkeypatch.setattr(
        export, "_encode", lambda *args: encoded.append(1) or encode(*args)
    )
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS["sweep-length"]))
    raw["output"] = {"formats": ["json"]}
    assert _run_cli(tmp_path, "sweep-length", raw) == 0
    assert encoded == []
    assert sorted(p.name for p in (tmp_path / "o").rglob("*.*")) == [
        "config.yaml", "manifest.json", "sweep.json"
    ]


# ------------------------------------------- random configs: no escapes

_MAP_T300 = yaml.safe_load(
    resource_files("hcfwm").joinpath("recipes/map_t300.yaml").read_text()
)


def _numeric_keys(recipe):
    """(section, key, default) for every key with a numeric default in the
    sections the recipe sets, read from the config schema."""
    keys = []
    for section in dataclasses.fields(config.RunConfig):
        cls = section.metadata.get("section")
        if cls is None or section.name not in recipe:
            continue
        for f in dataclasses.fields(cls):
            if isinstance(f.default, (int, float)) and not isinstance(
                f.default, bool
            ):
                keys.append((section.name, f.name, f.default))
    return keys


_MAP_T300_NUMBERS = _numeric_keys(_MAP_T300)


def test_schema_numeric_keys_cover_the_recipe():
    drawn = {(s, k) for s, k, _ in _MAP_T300_NUMBERS}
    set_by_recipe = {
        (s, k)
        for s, body in _MAP_T300.items()
        for k, v in body.items()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    assert len(set_by_recipe) == 9 and set_by_recipe <= drawn


_ODD_VALUES = [
    0, -1, 1e300, -1e300, 1e-300, -1e-300,
    float("nan"), float("inf"), -float("inf"), "abc", True, None,
]

# ("times", f) scales the recipe's value, or the schema default, by f
_CONFIG_VALUES = st.one_of(
    st.sampled_from(_ODD_VALUES),
    st.tuples(st.just("times"), st.floats(0.01, 100.0)),
)


def _floats_in(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for item in node:
            yield from _floats_in(item)
    elif isinstance(node, float):
        yield node


def _non_finite_in(path):
    """True when the artifact at ``path`` holds a NaN or an infinity."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        values = list(_floats_in(json.loads(text)))
    elif path.endswith(".yaml"):
        values = list(_floats_in(yaml.safe_load(text)))
    else:
        values = []
        for cell in text.replace("\n", ",").split(","):
            try:
                values.append(float(cell))
            except ValueError:
                pass  # a header or text cell
    return not all(math.isfinite(v) for v in values)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    subcommand=st.sampled_from(["phasematch", "dispersion"]),
    edits=st.lists(
        st.tuples(st.sampled_from(_MAP_T300_NUMBERS), _CONFIG_VALUES),
        min_size=1,
        max_size=2,
    ),
)
def test_random_config_exits_cleanly_with_finite_artifacts(subcommand, edits):
    raw = copy.deepcopy(_MAP_T300)
    for (section, key, default), value in edits:
        if isinstance(value, tuple):
            value = _MAP_T300[section].get(key, default) * value[1]
        raw[section][key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = os.path.join(tmp, "cfg.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(raw, fh)
        out = os.path.join(tmp, "out")
        rc = cli.main(
            [subcommand, "--config", cfg_path, "--out", out, "--label", "t"]
        )
        assert rc in (0, 1, 2)
        written = [
            os.path.join(root, name)
            for root, _, names in os.walk(out)
            for name in names
        ]
        assert not [p for p in written if _non_finite_in(p)]


# ------------------------------------------------- recipes and gas data


def _jsa_of_run(tmp_path, raw, label):
    rc = cli.main(["jsa", "--config", write_cfg(tmp_path, raw, f"{label}.yaml"),
                   "--out", str(tmp_path / "o"), "--label", label])
    assert rc == 0
    run_dir = tmp_path / "o" / "jsa" / label
    with open(run_dir / "jsa.json") as fh:
        doc = json.load(fh)
    amplitude = np.asarray(doc["magnitude"]) * np.exp(
        1j * np.asarray(doc["phase_rad"])
    )
    return doc, read_manifest(run_dir)["results"], schmidt.schmidt_number(amplitude)


def test_jsa_with_a_modulated_pump(tmp_path):
    """A modulated pump reaches the JSA, and jsa.json names its depth and
    period."""
    recipe = resource_files("hcfwm").joinpath("recipes", "length_series.yaml")
    raw = yaml.safe_load(recipe.read_text())
    raw["grid"]["N"] = 64
    plain_doc, _, k_plain = _jsa_of_run(tmp_path, raw, "plain")
    raw["pump"]["modulation"] = {"depth": 0.3, "period_THz": 3.0}
    doc, results, k_modulated = _jsa_of_run(tmp_path, raw, "modulated")
    pump = doc["metadata"]["pump"]
    assert pump == {
        **plain_doc["metadata"]["pump"],
        "modulation_depth": 0.3,
        "modulation_period_rad_s": 3e12,
    }
    assert pump["shape"] == "gaussian"
    assert math.isfinite(results["centroid_signal_nm"])
    assert math.isfinite(results["centroid_idler_nm"])
    assert abs(k_modulated - k_plain) > 1e-3 * k_plain


def test_bundled_recipe_listing():
    assert cli.bundled_recipes() == [
        "length_series", "map_t300", "map_t600", "tuning_ar", "tuning_xe",
    ]


def test_recipe_name_resolution():
    by_name = cli.resolve_config("length_series")
    by_file = cli.resolve_config("length_series.yaml")
    assert by_name == by_file
    assert by_name.sweep_length is not None


def test_gas_data_override(tmp_path, monkeypatch, capsys):
    bundled = yaml.safe_load(
        resource_files("hcfwm").joinpath("data/gases.yaml").read_text()
    )
    del bundled["xenon"]
    table_path = tmp_path / "no_xenon.yaml"
    table_path.write_text(yaml.safe_dump(bundled))
    monkeypatch.setenv("HCFWM_GAS_DATA", str(table_path))
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    rc = cli.main(["dispersion", "--config", cfg_path,
                   "--out", str(tmp_path / "o"), "--label", "t"])
    assert rc == 1
    assert "unknown species 'xenon'" in capsys.readouterr().err


def test_non_numeric_gas_data_exits_1(tmp_path, monkeypatch, capsys):
    bundled = yaml.safe_load(
        resource_files("hcfwm").joinpath("data/gases.yaml").read_text()
    )
    bundled["xenon"]["P0_bar"] = "abc"
    table_path = tmp_path / "bad_xenon.yaml"
    table_path.write_text(yaml.safe_dump(bundled))
    monkeypatch.setenv("HCFWM_GAS_DATA", str(table_path))
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    rc = cli.main(["phasematch", "--config", cfg_path,
                   "--out", str(tmp_path / "o"), "--label", "t"])
    assert rc == 1
    assert "'xenon': P0_bar must be a number, got 'abc'" in capsys.readouterr().err


# an integer of more digits than int() converts from text (4300 by default)
_HUGE_INTEGER = "1" + "0" * 5000
_HUGE_INTEGER_ERROR = (
    "is not valid YAML: a value cannot be constructed: Exceeds the limit "
    "(4300 digits) for integer string conversion: value has 5001 digits\n"
)


def test_unreadable_gas_data_exits_1(tmp_path, monkeypatch, capsys):
    missing = tmp_path / "missing.yaml"
    broken = tmp_path / "broken.yaml"
    broken.write_text("xenon: {B: [1.0\n  C_um2: : [")
    utf16 = tmp_path / "utf16.yaml"
    utf16.write_bytes(b"\xff\xfe")
    long_int = tmp_path / "long_int.yaml"
    long_int.write_text(re.sub(
        r"P0_bar: \S+", f"P0_bar: {_HUGE_INTEGER}",
        resource_files("hcfwm").joinpath("data/gases.yaml").read_text(),
    ))
    cfg_path = write_cfg(tmp_path, copy.deepcopy(BASE))
    for table_path, error in [
        (missing, f"cannot read gas data file {missing}: No such file"),
        (broken, f"gas data file {broken} is not valid YAML"),
        (utf16, f"cannot read gas data file {utf16}: 'utf-8' codec can't decode"),
        (long_int, f"gas data file {long_int} {_HUGE_INTEGER_ERROR}"),
    ]:
        monkeypatch.setenv("HCFWM_GAS_DATA", str(table_path))
        rc = cli.main(["dispersion", "--config", cfg_path,
                       "--out", str(tmp_path / "o"), "--label", "t"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}"), err
        assert "Traceback" not in err


def test_unreadable_config_exits_1(tmp_path, capsys):
    folder = tmp_path / "folder.yaml"
    folder.mkdir()
    utf16 = tmp_path / "utf16.yaml"
    utf16.write_bytes(b"\xff\xfe")  # a UTF-16 byte-order mark
    top_level = tmp_path / "top_level.yaml"
    top_level.write_text(f"fiber: {{}}\ngas: {{}}\npump: {{}}\nfiber_length_m: {_HUGE_INTEGER}\n")
    in_a_list = tmp_path / "in_a_list.yaml"
    in_a_list.write_text(f"fiber: {{}}\nsweep_length: {{lengths_m: [0.3, {_HUGE_INTEGER}]}}\n")
    for cfg_path, error in [
        (folder, f"cannot read config file {folder}: [Errno 21] Is a directory"),
        (utf16, f"cannot read config file {utf16}: 'utf-8' codec can't decode"),
        (top_level, f"config {top_level} {_HUGE_INTEGER_ERROR}"),
        (in_a_list, f"config {in_a_list} {_HUGE_INTEGER_ERROR}"),
    ]:
        rc = cli.main(["dispersion", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"), "--label", "t"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {error}"), err
        assert err.count("\n") == 1 and "Traceback" not in err


# two configs whose bad value is deep or huge; each loads from under 11 kB
DEEP_LIST = "fiber: {}\ngas: {}\npump: {}\nfiber_length_m: " + "[" * 5000 + "]" * 5000
# six levels of aliases, each a list of 10 of the level below: 10^6 numbers
ALIAS_CHAIN = "\n".join(
    ["a0: &a0 [1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5]"]
    + [f"a{i}: &a{i} [{', '.join([f'*a{i - 1}'] * 10)}]" for i in range(1, 6)]
    + ["fiber: {R_eff_um: *a5}", "gas: {}", "pump: {}"]
)


@pytest.mark.parametrize(
    "text, key",
    [(DEEP_LIST, "fiber_length_m"), (ALIAS_CHAIN, "fiber.R_eff_um")],
    ids=["deep-list", "alias-chain"],
)
def test_error_echoes_a_huge_value_briefly(tmp_path, capsys, text, key):
    """A value of any depth or size is echoed within fixed limits: one
    short error line, no RecursionError and no megabytes of text."""
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(text + "\n")
    rc = cli.main(["dispersion", "--config", str(cfg_path),
                   "--out", str(tmp_path / "o"), "--label", "t"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: config key '{key}' must be a number, got [[[")
    assert err.count("\n") == 1 and len(err.encode()) < 500


def test_output_dir_with_a_nul_exits_1(tmp_path, capsys, monkeypatch):
    """No file name can hold a NUL, so output.dir refuses one at load."""
    monkeypatch.chdir(tmp_path)
    raw = copy.deepcopy(BASE)
    raw["output"] = {"dir": "a\0b"}
    cfg_path = write_cfg(tmp_path, raw)
    rc = cli.main(["dispersion", "--config", cfg_path, "--label", "t"])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: config key 'output.dir' must not hold a NUL character\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


def test_uncreatable_run_directory_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "x"
    rc = cli.main(["dispersion", "--config", write_cfg(tmp_path, BASE),
                   "--out", str(out), "--label", "t"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: cannot create run directory {out / 'dispersion' / 't'}: "
        "Not a directory\n"
    )


@pytest.mark.parametrize(
    "subcommand, fname",
    [("dispersion", "bands.csv"), ("jsa", "jsa.json"), ("jsa", "config.yaml"),
     ("sweep-length", "jsi_L_0.6m.csv")],
)
def test_unwritable_artifact_exits_1(tmp_path, capsys, subcommand, fname):
    """A directory where an artifact goes: one error line, no traceback,
    no manifest.  A sweep's grid file is no exception: the run fails, not
    the point."""
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    run_dir = tmp_path / "o" / subcommand / "t"
    (run_dir / fname).mkdir(parents=True)
    assert _run_cli(tmp_path, subcommand, raw) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {run_dir / fname}: Is a directory\n"
    )
    assert not (run_dir / "manifest.json").exists()


@pytest.mark.parametrize("subcommand", ["set-sim", "dispersion"])
def test_half_set_pair_exits_1_before_any_artifact(tmp_path, capsys, subcommand):
    """set-sim with one power axis, or any subcommand with half a detuning
    window, exits 1 at load and leaves no run directory."""
    raw = copy.deepcopy(BASE)
    raw.update(copy.deepcopy(EXTRAS[subcommand]))
    if subcommand == "set-sim":
        del raw["set_sim"]["power_check_pump_W"]
    else:
        raw["phasematch"]["detuning_min_THz"] = 550.0
    rc = cli.main([subcommand, "--config", write_cfg(tmp_path, raw),
                   "--out", str(tmp_path / "o"), "--label", "t"])
    assert rc == 1
    assert "must be set together" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "hcfwm" in capsys.readouterr().out


@pytest.mark.parametrize("subcommand", cli.SUBCOMMANDS)
def test_subcommand_help_names_every_recipe_once(subcommand, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([subcommand, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for recipe in cli.bundled_recipes():
        assert out.count(recipe) == 1, (recipe, out)


def test_top_level_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert len(cli.SUBCOMMANDS) == 8
    for subcommand in cli.SUBCOMMANDS:
        assert re.search(rf"^ +{subcommand}\s", out, re.MULTILINE), out


def test_parser_lists_recipes_once(monkeypatch):
    calls = []
    listing = cli.bundled_recipes

    def counted():
        calls.append(1)
        return listing()

    monkeypatch.setattr(cli, "bundled_recipes", counted)
    cli.build_parser()
    assert calls == [1]


# ------------------------------------------------ runtime dependencies

# the directory that holds the hcfwm package, for fresh interpreters
_PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(hcfwm.__file__)))


def _fresh_python(code, cwd):
    env = dict(os.environ, PYTHONPATH=_PKG_ROOT)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


# the benchmark's directory, whose tracer wraps hcfwm functions by name
_PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def test_benchmark_tracer_finds_every_name_it_wraps(tmp_path):
    """Every function the benchmark's tracer lists still exists and is
    replaced by its wrapper, and a traced sweep records spans of the
    driver, the grid builder and the grid writer: the command line and the
    sweeps must reach them through module attributes, not a copy held
    before the tracer was installed."""
    proc = _fresh_python(
        "import json, sys\n"
        f"sys.path.insert(0, {_PERFBENCH!r})\n"
        "import hcfwm.cli\n"
        "from tracer import LAYER_FUNCTIONS, WRITER_FUNCTIONS, Tracer\n"
        "tracer = Tracer('op')\n"
        "tracer.install()\n"
        "bare = [f'{m}.{fn}' for table in (LAYER_FUNCTIONS, WRITER_FUNCTIONS)\n"
        "        for m, fns in table.items() for fn in fns\n"
        "        if not hasattr(getattr(sys.modules['hcfwm.' + m], fn),\n"
        "                       '__wrapped__')]\n"
        "rc = hcfwm.cli.main(['sweep-length', '--config', 'length_series',\n"
        "                     '--out', 'o', '--label', 't'])\n"
        "print(json.dumps([bare, rc, sorted({s.name for s in tracer.spans})]))\n",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    bare, rc, names = json.loads(proc.stdout.splitlines()[-1])
    assert bare == [] and rc == 0
    assert {"sweeps.sweep_length", "jsa.build_jsa", "writers.grid_to_csv"} <= set(
        names
    )


def _run_at_blas_threads(tmp_path, subcommand, threads, config="length_series"):
    """Exit code, stdout, stderr and {name: bytes} of a run of `subcommand`
    on `config` (a recipe name or a config path) at
    OPENBLAS_NUM_THREADS=`threads`."""
    cwd = tmp_path / f"{subcommand}_{os.path.basename(config)}_threads_{threads}"
    cwd.mkdir()
    proc = subprocess.run(
        [sys.executable, "-m", "hcfwm.cli", subcommand, "--config",
         config, "--out", "o", "--label", "run"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=_PKG_ROOT, OPENBLAS_NUM_THREADS=threads),
    )
    run_dir = cwd / "o" / subcommand / "run"
    files = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
    return proc.returncode, proc.stdout, proc.stderr, files


def test_schmidt_bytes_across_blas_thread_counts(tmp_path):
    """The byte-identical rerun holds at one BLAS thread count.  LAPACK's
    values-only complex SVD (zgesdd) splits its work among the OpenBLAS
    threads, so the last digits of schmidt_complex.json, and on some
    recipes the last ulp of K_complex in manifest.json, depend on
    OPENBLAS_NUM_THREADS; every other artifact of the run does not,
    modes.csv included, on the linearized and on the full-mode grid.  So those two files are compared
    through K_complex, to 1e-12, and the rest byte for byte.  A length
    sweep, whose K comes from one zgemm per block of rows, is byte-identical
    in every file."""
    raw = yaml.safe_load(
        resource_files("hcfwm").joinpath("recipes", "length_series.yaml").read_text()
    )
    raw.setdefault("grid", {})["mode"] = "full"
    for config in ("length_series", write_cfg(tmp_path, raw, "full.yaml")):
        runs = [_run_at_blas_threads(tmp_path, "schmidt", t, config) for t in ("1", "2")]
        (rc1, out1, err1, files1), (rc2, out2, err2, files2) = runs
        assert rc1 == rc2 == 0, err1 + err2
        assert (out1, err1) == (out2, err2)
        assert sorted(files1) == sorted(files2)
        assert "modes.csv" in files1
        for name in set(files1) - {"schmidt_complex.json", "manifest.json"}:
            assert files1[name] == files2[name], (config, name)
        k1, k2 = (
            json.loads(files["manifest.json"])["results"]["K_complex"]
            for files in (files1, files2)
        )
        assert k2 == pytest.approx(k1, rel=1e-12)
        for files, k in ((files1, k1), (files2, k2)):
            assert json.loads(files["schmidt_complex.json"])["K"] == k

    one, two = (_run_at_blas_threads(tmp_path, "sweep-length", t) for t in ("1", "2"))
    assert one[0] == 0, one[2]
    assert one[:3] == two[:3]
    assert sorted(one[3]) == sorted(two[3])
    for name in one[3]:
        assert one[3][name] == two[3][name], name


@pytest.mark.parametrize("module", ["scipy", "concurrent.futures", "csv"])
def test_cli_import_leaves_scipy_unloaded(module, tmp_path):
    proc = _fresh_python(
        f"import sys, hcfwm.cli; print({module!r} in sys.modules)", tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_csv_encoder_tables_unbuilt(tmp_path):
    """The array encoder builds its lookup tables on first use, so that
    start-up does not pay for them."""
    proc = _fresh_python(
        "import numpy, hcfwm.cli\n"
        "from hcfwm import export\n"
        "print(export._tables.cache_info().currsize)\n"
        "export.to_csv(['a'], numpy.ones((1, 1)))\n"
        "print(export._tables.cache_info().currsize)",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_design_map_leaves_repr_encoder_unbuilt(tmp_path):
    """Only JSON float arrays need the repr encoder: the design-map
    subcommands neither build its tables nor import the exact-arithmetic
    modules."""
    out = str(tmp_path / "out")
    proc = _fresh_python(
        "import sys\n"
        "from hcfwm import cli, export\n"
        "for sub, recipe in [('dispersion', 'map_t300'), "
        "('phasematch', 'map_t300'), ('density-map', 'map_t600')]:\n"
        f"    code = cli.main([sub, '--config', recipe, '--out', {out!r}, "
        "'--label', 't'])\n"
        "    assert code == 0, (sub, code)\n"
        "print(export._repr_tables.cache_info().currsize, "
        "'fractions' in sys.modules, 'decimal' in sys.modules)",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False False"


def test_no_subcommand_loads_numpy_ma(tmp_path):
    """numpy 2's np.unique imports numpy.ma on first use, which costs every
    run start-up time; no subcommand may reach it."""
    runs = [
        ("dispersion", "map_t300"), ("phasematch", "length_series"),
        ("jsa", "length_series"), ("schmidt", "length_series"),
        ("set-sim", "length_series"), ("sweep-length", "length_series"),
        ("sweep-pressure", "tuning_ar"), ("density-map", "map_t600"),
    ]
    assert {sub for sub, _ in runs} == set(cli.SUBCOMMANDS)
    out = str(tmp_path / "out")
    proc = _fresh_python(
        "import sys\n"
        "from hcfwm import cli\n"
        "first = None\n"
        f"for sub, recipe in {runs!r}:\n"
        f"    code = cli.main([sub, '--config', recipe, '--out', {out!r}, "
        "'--label', 't'])\n"
        "    assert code == 0, (sub, code)\n"
        "    if first is None and 'numpy.ma' in sys.modules:\n"
        "        first = sub\n"
        "print('first to load numpy.ma:', first)",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "first to load numpy.ma: None"


def test_cli_runs_with_scipy_blocked(tmp_path):
    """A None entry in sys.modules makes every scipy import raise."""
    out = tmp_path / "out"
    proc = _fresh_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from hcfwm import cli\n"
        f"sys.exit(cli.main(['dispersion', '--config', 'map_t300', "
        f"'--out', {str(out)!r}, '--label', 't']))",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "dispersion" / "t" / "zdw.csv").exists()


def test_design_map_runs_without_lapack(tmp_path):
    """The HE11 mode parameter is a literal, so the design-map subcommands
    make no LAPACK call, and the tuning-slope and power-law fits are
    closed forms: `set-sim` and `sweep-pressure` make none either.  Each
    run passes with numpy's linear algebra replaced by stubs that raise.
    numpy.polyfit holds its own reference to lstsq, so it is stubbed by
    name as well."""
    out = str(tmp_path / "out")
    runs = [("dispersion", "map_t300"), ("phasematch", "map_t300"),
            ("density-map", "map_t300"), ("set-sim", "length_series"),
            ("sweep-pressure", "tuning_xe")]
    proc = _fresh_python(
        "import numpy\n"
        "def stub(*args, **kwargs):\n"
        "    raise AssertionError('linear algebra called')\n"
        "for name in ('eigvalsh', 'eigh', 'svd', 'lstsq'):\n"
        "    setattr(numpy.linalg, name, stub)\n"
        "numpy.polyfit = stub\n"
        "from hcfwm import cli\n"
        f"for sub, recipe in {runs!r}:\n"
        "    code = cli.main([sub, '--config', recipe, '--out', "
        f"{out!r}, '--label', 't'])\n"
        "    assert code == 0, (sub, code)\n"
        "print('ok')",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


# ------------------------------------------- process policy: allocator

def _has_glibc_mallopt():
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return platform.libc_ver()[0] == "glibc" and hasattr(libc, "mallopt")


@pytest.mark.skipif(not _has_glibc_mallopt(), reason="no glibc mallopt")
def test_cli_keeps_freed_heap_pages(tmp_path):
    """main raises glibc's trim and mmap thresholds together, so repeated
    encodes of one grid reuse the freed pages of the last one instead of
    faulting in fresh zero pages (about 5k faults with glibc's defaults,
    33k with only the trim threshold raised)."""
    out = str(tmp_path / "out")
    proc = _fresh_python(
        "import resource, numpy\n"
        "from hcfwm import cli, export\n"
        f"code = cli.main(['phasematch', '--config', 'map_t300', '--out', "
        f"{out!r}, '--label', 't'])\n"
        "assert code == 0, code\n"
        "table = numpy.random.default_rng(0).random((256, 257))\n"
        "header = [str(j) for j in range(257)]\n"
        "export.to_csv(header, table)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(4):\n"
        "    export.to_csv(header, table)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)",
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 1000


def _no_libc(name):
    raise OSError("no C library")


@pytest.mark.parametrize(
    "cdll", [_no_libc, lambda name: object()], ids=["no-libc", "no-mallopt"]
)
def test_cli_runs_where_mallopt_is_missing(cdll, tmp_path, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    rc = cli.main(
        ["phasematch", "--config", "map_t300", "--out", str(tmp_path),
         "--label", "t"]
    )
    assert rc == 0


# ------------------------------------------------ warnings on stderr

def test_numerical_failure_prints_each_warning_once(tmp_path):
    """In a plain interpreter numpy's RuntimeWarnings would print as source
    excerpts; the CLI prints each distinct one as one line, then the
    failure."""
    raw = copy.deepcopy(BASE)
    raw["fiber"]["R_eff_um"] = 1e-300
    cfg = write_cfg(tmp_path, raw)
    out = str(tmp_path / "out")
    proc = _fresh_python(
        "import sys\n"
        "from hcfwm import cli\n"
        f"sys.exit(cli.main(['dispersion', '--config', {cfg!r}, '--out', "
        f"{out!r}, '--label', 't']))",
        tmp_path,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "warning: RuntimeWarning: divide by zero encountered in divide",
        "warning: RuntimeWarning: invalid value encountered in subtract",
        "numerical failure: non-finite number on line 2 of dispersion.csv",
    ]


def test_handler_warnings_print_once_on_success(tmp_path, monkeypatch, capsys):
    def handler(run):
        for _ in range(3):
            warnings.warn("slow path", UserWarning)
        warnings.warn("old key", DeprecationWarning)

    monkeypatch.setitem(cli._COMMANDS, "phasematch", (handler, "stub"))
    rc = cli.main(
        ["phasematch", "--config", "map_t300", "--out", str(tmp_path),
         "--label", "t"]
    )
    assert rc == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: UserWarning: slow path",
        "warning: DeprecationWarning: old key",
    ]
