"""Sweep drivers: length and pressure series, summaries."""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np
import pytest

from hcfwm import cli, config, gasmedia, jsa, phasematch, schmidt, sweeps
from hcfwm.errors import (
    ClippedGridError,
    ConvergenceError,
    DivergenceZoneError,
    NumericalError,
    RangeError,
    StencilError,
    ValidationError,
)
from hcfwm.fibermodel import omega_from_lambda_nm
from hcfwm.jsa import GaussianPump
from hcfwm.phasematch import PhaseMatchBranch

from _oracles import double_gaussian_K
from test_jsa import K_FLAT_L04, K_FLAT_L10


def make_cfg(**overrides):
    raw = {"fiber": {}, "gas": {}, "pump": {}, "grid": {"N": 128}}
    raw.update(overrides)
    return config.config_from_dict(raw)


class Recorder:
    """A ``write`` for the drivers, with the signature of the command
    line's run writer: it records each call and, given a directory,
    writes the file there."""

    def __init__(self, root=None):
        self.root = root
        self.calls = []

    def __call__(self, fname, description, writer, *args, **kwargs):
        self.calls.append((fname, description, writer))
        if self.root is not None:
            writer(*args, path=str(self.root / fname), **kwargs)

    @property
    def names(self):
        return [fname for fname, *_ in self.calls]


# -------------------------------------------------------- length sweeps


def test_length_sweep_shares_one_branch():
    write = Recorder()
    result = sweeps.sweep_length(
        make_cfg(sweep_length={"lengths_m": [0.4, 1.0]}), write=write
    )
    assert result.param == "length_m" and result.unit == "m"
    assert result.fit is None and result.gaps == ()
    assert [p.value for p in result.points] == [0.4, 1.0]
    assert result.points[0].branch == result.points[1].branch
    assert write.calls == [
        ("jsi_L_0.4m.csv", "JSI grid at length_m=0.4", jsa.grid_to_csv),
        ("jsi_L_1m.csv", "JSI grid at length_m=1", jsa.grid_to_csv),
    ]
    assert result.points[0].K_flat == pytest.approx(K_FLAT_L04, rel=1e-9)
    assert result.points[1].K_flat == pytest.approx(K_FLAT_L10, rel=1e-9)
    assert result.points[0].K_flat > result.points[1].K_flat
    # complex-phase decomposition counts the sinc phase as correlation
    for p in result.points:
        assert p.K_complex > p.K_flat


def test_single_length_point():
    result = sweeps.sweep_length(make_cfg(sweep_length={"lengths_m": [0.5]}))
    assert len(result.points) == 1
    assert result.points[0].value == 0.5


def test_short_length_matches_double_gaussian_closure():
    """At short lengths the sinc is well inside the pump envelope and the
    amplitude-matched Gaussian closure for K holds to a few percent."""
    cfg = make_cfg(grid={"N": 256}, sweep_length={"lengths_m": [0.1]})
    result = sweeps.sweep_length(cfg)
    point = result.points[0]
    b = point.branch
    pump = sweeps.pump_from_config(cfg)
    k_an = double_gaussian_K(
        b.beta1_p, b.beta1_s, b.beta1_i, pump.sigma, 0.1
    )
    assert abs(point.K_flat - k_an) / k_an < 0.05


def test_length_artifacts_written(tmp_path):
    write = Recorder(tmp_path)
    sweeps.sweep_length(
        make_cfg(sweep_length={"lengths_m": [0.4, 1.0]}), write=write
    )
    assert write.names == ["jsi_L_0.4m.csv", "jsi_L_1m.csv"]
    assert sorted(os.listdir(tmp_path)) == write.names


def test_length_sweep_runs_no_svd(monkeypatch):
    """Sweep points take K from the Gram identity; an SVD on that path
    would make every point cost two decompositions again."""

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep point ran an SVD")

    assert not hasattr(sweeps, "schmidt_decompose")
    monkeypatch.setattr(schmidt, "schmidt_decompose", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    cfg = cli.resolve_config("length_series")
    cfg = dataclasses.replace(
        cfg,
        grid=dataclasses.replace(cfg.grid, N=64),
        sweep_length=config.SweepLengthConfig(lengths_m=(0.4, 1.0)),
    )
    result = sweeps.sweep_length(cfg)
    assert result.gaps == () and len(result.points) == 2
    for p in result.points:
        assert math.isfinite(p.K_flat) and p.K_flat >= 1.0
        assert math.isfinite(p.K_complex) and p.K_complex >= 1.0


@pytest.mark.parametrize(
    "error, gap",
    [
        pytest.param(RangeError("boom"), True, id="RangeError"),
        pytest.param(DivergenceZoneError("boom", 1252.9), True,
                     id="DivergenceZoneError"),
        pytest.param(ClippedGridError("boom"), True, id="ClippedGridError"),
        pytest.param(ConvergenceError("boom"), True, id="ConvergenceError"),
        pytest.param(StencilError("boom"), True, id="StencilError"),
        pytest.param(ValidationError("boom"), False, id="ValidationError"),
    ],
)
def test_gap_rule(monkeypatch, error, gap):
    """A point whose grid raises one of errors.GAP_ERRORS is a gap and the
    sweep goes on; any other error fails the sweep."""
    build_grid = sweeps.build_grid

    def failing(cfg, fiber, gas, pump, branch, L_m):
        if L_m == 0.6:
            raise error
        return build_grid(cfg, fiber, gas, pump, branch, L_m)

    monkeypatch.setattr(sweeps, "build_grid", failing)
    cfg = make_cfg(grid={"N": 32}, sweep_length={"lengths_m": [0.4, 0.6, 0.8]})
    if not gap:
        with pytest.raises(ValidationError, match="boom"):
            sweeps.sweep_length(cfg)
        return
    result = sweeps.sweep_length(cfg)
    assert [p.value for p in result.points] == [0.4, 0.8]
    assert result.gaps == (sweeps.SweepGap(value=0.6, reason="boom"),)


# ------------------------------------------------------ pressure sweeps


def test_pressure_sweep_fit(tmp_path):
    write = Recorder(tmp_path)
    result = sweeps.sweep_pressure(
        make_cfg(sweep_pressure={"pressures_bar": [3.2, 3.3, 3.4, 3.5]}),
        write=write,
    )
    assert result.param == "pressure_bar" and result.unit == "bar"
    assert len(result.points) == 4 and result.gaps == ()
    idler_nm = [p.idler_nm for p in result.points]
    assert all(b > a for a, b in zip(idler_nm, idler_nm[1:]))
    fit = result.fit
    assert fit is not None and fit.n_points == 4
    assert fit.slope_THz_per_bar < 0.0  # idler drops in frequency
    assert 15.0 < abs(fit.slope_THz_per_bar) < 35.0
    assert fit.r_squared > 0.99
    assert fit.span_THz > 0.0
    assert write.names == [f"jsi_P_{p}bar.csv" for p in (3.2, 3.3, 3.4, 3.5)]
    assert sorted(os.listdir(tmp_path)) == write.names


def test_pressure_sweep_records_gaps_and_still_fits():
    """A detuning window that excludes the lowest pressure's root turns
    that point into a gap without aborting the sweep."""
    cfg = make_cfg(
        phasematch={"detuning_min_THz": 592.0, "detuning_max_THz": 640.0},
        sweep_pressure={"pressures_bar": [3.0, 3.2, 3.4]},
    )
    result = sweeps.sweep_pressure(cfg)
    assert len(result.points) == 2
    assert len(result.gaps) == 1
    assert result.gaps[0].value == 3.0
    assert "no phase-matched branch" in result.gaps[0].reason
    assert result.fit is not None and result.fit.n_points == 2


def test_pressure_sweep_chains_to_the_nearest_branch(monkeypatch):
    """Each pressure takes the branch nearest the previous point's, even
    where another branch is more detuned."""
    cfg = make_cfg(sweep_pressure={"pressures_bar": [3.3, 3.4, 3.5]})
    fiber, pump = sweeps.fiber_from_config(cfg), sweeps.pump_from_config(cfg)
    real = sweeps.solve_branch(cfg, fiber, sweeps.gas_from_config(cfg), pump)

    def detuned(scale):
        d = real.delta_omega * scale
        return dataclasses.replace(
            real, omega_s=real.omega_p + d, omega_i=real.omega_p - d
        )

    # point 1 follows the most detuned branch; from point 2 on, a branch
    # close to it competes with one that is more detuned but far away
    calls = iter([
        [detuned(0.99), detuned(1.0)],
        [detuned(1.0005), detuned(1.01)],
        [detuned(1.02), detuned(1.001)],
    ])
    monkeypatch.setattr(sweeps, "solve_branches", lambda *args: next(calls))
    result = sweeps.sweep_pressure(cfg)
    assert result.gaps == ()
    assert [p.branch for p in result.points] == [
        detuned(1.0), detuned(1.0005), detuned(1.001)
    ]


def test_pressure_sweep_needs_two_points():
    cfg = make_cfg(
        phasematch={"detuning_min_THz": 100.0, "detuning_max_THz": 200.0},
        sweep_pressure={"pressures_bar": [3.0, 3.2]},
    )
    with pytest.raises(NumericalError, match="fewer than 2 successful"):
        sweeps.sweep_pressure(cfg)


def test_sweep_determinism_across_threads():
    """A rerun of the same sweep gives the same summary bytes."""
    cfg = make_cfg(sweep_pressure={"pressures_bar": [3.2, 3.4, 3.5]})
    first = sweeps.summary_csv(sweeps.sweep_pressure(cfg))
    repeat = sweeps.summary_csv(sweeps.sweep_pressure(cfg))
    assert first == repeat


def test_axis_and_section_validation():
    """The drivers take their axis from the config, which refuses every
    axis they could not run; a missing section is named."""
    nan, inf = float("nan"), float("inf")
    for lengths, error in (
        ([], "non-empty"),
        ([0.4, 0.2], "strictly increasing"),
        ([-1.0], "> 0"),
        ([nan], "> 0"),
        ([0.5, inf], "> 0"),
        (["a"], "must be a number"),
        ([None], "must be a number"),
        ([True], "must be a number"),
    ):
        with pytest.raises(ValidationError, match=error) as err:
            make_cfg(sweep_length={"lengths_m": lengths})
        assert "sweep_length.lengths_m" in str(err.value)
    for pressures, error in (([3.0, nan, 3.2], "> 0"),
                             ([3.0, False], "must be a number")):
        with pytest.raises(ValidationError, match=error) as err:
            make_cfg(sweep_pressure={"pressures_bar": pressures})
        assert "sweep_pressure.pressures_bar" in str(err.value)
    cfg = make_cfg()
    with pytest.raises(ValidationError, match="'sweep_length'"):
        sweeps.sweep_length(cfg)
    with pytest.raises(ValidationError, match="'sweep_pressure'"):
        sweeps.sweep_pressure(cfg)
    with pytest.raises(ValidationError, match="'density_map'"):
        sweeps.density_records(
            cfg, sweeps.fiber_from_config(cfg), sweeps.gas_from_config(cfg)
        )


# --------------------------------------------------------- density maps


def test_density_records_read_the_config_keys():
    """The map solves each pump as ``solve_branches`` does, Kerr term
    included: its 1030 nm branches are the single-pump solve's."""
    cfg = make_cfg(
        density_map={"pump_min_nm": 1020.0, "pump_max_nm": 1040.0,
                     "pump_steps": 3},
        phasematch={"grid_points": 1200, "detuning_min_THz": 500.0,
                    "detuning_max_THz": 700.0, "pump_peak_power_W": 2e4},
    )
    fiber = sweeps.fiber_from_config(cfg)
    gas = sweeps.gas_from_config(cfg)
    records = sweeps.density_records(cfg, fiber, gas)
    kwargs = dict(pump_range_nm=(1020.0, 1040.0), steps=3, grid_points=1200)
    window = (500e12, 700e12)
    assert records == phasematch.density_map(
        fiber, gas, detuning_window=window, pump_peak_power_W=2e4, **kwargs
    )
    assert records and records != phasematch.density_map(fiber, gas, **kwargs)
    assert records != phasematch.density_map(
        fiber, gas, detuning_window=window, **kwargs
    )
    om_p = float(omega_from_lambda_nm(1030.0))
    at_1030 = [b for b in records if b.omega_p == om_p]
    assert at_1030 and at_1030 == phasematch.solve_phase_matching(
        fiber, gas, om_p, detuning_window=window, pump_peak_power_W=2e4,
        grid_points=1200,
    )
    pump = sweeps.pump_from_config(cfg)  # the default 1030 nm pump
    assert pump.omega_p0 == om_p
    assert at_1030 == sweeps.solve_branches(cfg, fiber, gas, pump)
    assert {b.pump_peak_power_W for b in records} == {2e4}


# ----------------------------------------------------- branch selection


def _fake_branch(omega_s, omega_i):
    omega_p = 0.5 * (omega_s + omega_i)
    return PhaseMatchBranch(
        omega_p=omega_p, omega_s=omega_s, omega_i=omega_i,
        band_p="II", band_s="II", band_i="I",
        beta1_p=0.0, beta1_s=0.0, beta1_i=0.0, residual_rad_m=0.0,
    )


def test_select_branch_priorities():
    near = _fake_branch(12.0, 8.0)
    far = _fake_branch(14.0, 6.0)
    with pytest.raises(NumericalError, match="no phase-matched branch"):
        sweeps.select_branch([])
    # default: most detuned
    assert sweeps.select_branch([near, far]) is far
    # previous point wins over everything
    assert sweeps.select_branch(
        [near, far], prev=(12.1, 7.9), seed_idler_nm=far.lambda_i_nm
    ) is near
    # seed idler used when no previous point exists
    assert sweeps.select_branch(
        [near, far], seed_idler_nm=near.lambda_i_nm
    ) is near


# ------------------------------------------------------------ summaries


def test_summary_csv_layout():
    result = sweeps.sweep_length(
        make_cfg(sweep_length={"lengths_m": [0.4, 1.0]})
    )
    text = sweeps.summary_csv(result)
    lines = text.splitlines()
    assert lines[0] == "param,value,K_flat,K_complex,theta_deg,idler_nm,signal_nm"
    assert len(lines) == 3
    row = lines[1].split(",")
    assert row[0] == "length_m"
    assert float(row[1]) == 0.4
    assert float(row[2]) == pytest.approx(result.points[0].K_flat, rel=1e-8)
    assert float(row[5]) == pytest.approx(result.points[0].idler_nm, rel=1e-8)


def test_fit_to_dict_keys():
    length = sweeps.sweep_length(make_cfg(sweep_length={"lengths_m": [0.4]}))
    d = sweeps.fit_to_dict(length)
    assert set(d) == {"param", "unit", "n_points", "gaps"}
    pressure = sweeps.sweep_pressure(
        make_cfg(sweep_pressure={"pressures_bar": [3.3, 3.4]})
    )
    d = sweeps.fit_to_dict(pressure)
    assert set(d) == {"param", "unit", "n_points", "gaps", "fit"}
    assert set(d["fit"]) == {
        "slope_THz_per_bar", "intercept_THz", "r_squared", "span_THz",
        "n_points",
    }


# ------------------------------------------------------- config bridges


def test_pump_from_config_variants():
    plain = sweeps.pump_from_config(make_cfg())
    assert isinstance(plain, GaussianPump)
    assert plain.fwhm_fs == pytest.approx(280.0, rel=1e-12)
    sigma_cfg = make_cfg(pump={"sigma_THz": 5.9})
    by_sigma = sweeps.pump_from_config(sigma_cfg)
    assert isinstance(by_sigma, GaussianPump)
    assert by_sigma.sigma == pytest.approx(5.9e12, rel=1e-14)
    modulated = sweeps.pump_from_config(
        make_cfg(pump={"modulation": {"depth": 0.2, "period_THz": 3.0}})
    )
    assert (modulated.depth, modulated.period) == (0.2, 3e12)
    assert (modulated.omega_p0, modulated.sigma) == (plain.omega_p0, plain.sigma)
    flat_mod = sweeps.pump_from_config(
        make_cfg(pump={"modulation": {"depth": 0.0}})
    )
    assert flat_mod.depth == 0.0 and flat_mod.metadata() == plain.metadata()


def test_fiber_and_gas_from_config():
    cfg = make_cfg(
        fiber={"R_eff_um": 21.3, "t_nm": 641.2},
        gas={"species": "argon", "pressure_bar": 19.0},
    )
    fiber = sweeps.fiber_from_config(cfg)
    assert (fiber.R_eff_um, fiber.t_nm) == (21.3, 641.2)
    gas = sweeps.gas_from_config(cfg)
    assert gas.species == "argon" and gas.pressure_bar == 19.0
    # a pressure sweep's points share the config's gas at their pressures
    override = dataclasses.replace(gas, pressure_bar=2.5)
    assert override == gasmedia.make_gas("argon", 2.5)


def test_schmidt_subcommand_and_length_sweep_read_the_same_keys(tmp_path):
    """Every non-default phasematch and grid key reaches the solver and the
    grid as given, through the CLI and through a sweep alike.  At this
    825 nm pump three branches phase-match: two dispersion families and,
    from the Kerr term at 2e4 W, a third at 700.13 / 1004.08 nm.  The seed
    picks the 1147 nm idler branch, which is not the most detuned."""
    cfg = make_cfg(
        fiber={"R_eff_um": 20.0, "t_nm": 600.0},
        gas={"pressure_bar": 4.0},
        pump={"lambda_nm": 825.0},
        fiber_length_m=0.5,
        grid={"N": 96, "span": 2.5, "mode": "full"},
        sweep_length={"lengths_m": [0.5]},
        phasematch={
            "grid_points": 1500,
            "detuning_min_THz": 300.0,
            "detuning_max_THz": 1300.0,
            "pump_peak_power_W": 2e4,
            "seed_idler_nm": 1150.0,
        },
    )
    fiber = sweeps.fiber_from_config(cfg)
    gas = sweeps.gas_from_config(cfg)
    pump = sweeps.pump_from_config(cfg)
    branches = phasematch.solve_phase_matching(
        fiber, gas, pump.omega_p0, detuning_window=(300e12, 1300e12),
        pump_peak_power_W=2e4, grid_points=1500,
    )
    assert len(branches) == 3
    seeded = min(branches, key=lambda b: abs(b.lambda_i_nm - 1150.0))
    assert seeded.lambda_i_nm == pytest.approx(1147.0, abs=1.0)
    assert seeded != max(branches, key=lambda b: b.delta_omega)
    grid = jsa.build_jsa(
        fiber, gas, pump, seeded, 0.5, n=96, kappa_span=2.5, mode="full"
    )

    path = str(tmp_path / "cfg.yaml")
    config.dump_config(cfg, path)
    assert cli.main(["schmidt", "--config", path, "--out", str(tmp_path),
                     "--label", "t"]) == 0
    with open(tmp_path / "schmidt" / "t" / "manifest.json") as fh:
        results = json.load(fh)["results"]
    (point,) = sweeps.sweep_length(cfg).points

    assert point.branch == seeded
    for flat, key in ((True, "K_flat"), (False, "K_complex")):
        expected = schmidt.schmidt_decompose(grid, flat_phase=flat).K
        assert results[key] == expected
        assert getattr(point, key) == pytest.approx(expected, rel=1e-9)
