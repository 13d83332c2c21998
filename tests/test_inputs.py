"""The library's one input boundary, walked by signature.

Every public callable of the seven physics modules is found with
``inspect.signature``.  Each parameter whose annotation names ``int`` or
``float`` gets NaN, +-inf, True, "3", 0 and -1 in turn (a tuple parameter
gets them at each position) and must raise a ValidationError that names
it, unless the table below lists that value as accepted.  A numeric
parameter with no entry in CALLS fails the walk, so a new entry point
cannot skip ``errors.check_number``.
"""

from __future__ import annotations

import inspect
import math
import re
import tracemalloc
import types

import numpy as np
import pytest

from hcfwm import (
    config,
    fibermodel,
    gasmedia,
    jsa,
    phasematch,
    schmidt,
    sweeps,
    tomography,
)
from hcfwm.errors import ValidationError, check_number, shown

MODULES = (fibermodel, gasmedia, jsa, phasematch, schmidt, tomography, sweeps)

BAD = {
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "True": True,
    "'3'": "3",
    "0": 0,
    "-1": -1,
}

# Results the library builds from inputs it has already checked.
RECORDS = {
    "fibermodel.Band",
    "fibermodel.BandStructure",
    "fibermodel.DispersionPoint",
    "jsa.JsaGrid",
    "jsa.Marginals",
    "schmidt.SchmidtResult",
    "tomography.PowerScaling",
    "sweeps.SweepPoint",
    "sweeps.SweepGap",
    "sweeps.PressureFit",
    "sweeps.SweepResult",
}

_SELLMEIER = dict(
    species="x", B=(1.0,), C_um2=(0.01,), lambda_min_nm=200.0,
    lambda_max_nm=2000.0, P0_bar=1.0, T0_K=273.15, n2_per_bar_m2W=1e-23,
)
_BRANCH = dict(
    omega_p=2.0, omega_s=3.0, omega_i=1.0, band_p="I", band_s="I",
    band_i="I", beta1_p=1.0, beta1_s=2.0, beta1_i=3.0, residual_rad_m=0.0,
)

# "module.Qualname" -> fx -> (callable, valid keyword arguments); fx holds
# the reference fixtures.
CALLS = {
    "fibermodel.roman": lambda fx: (fibermodel.roman, dict(n=3)),
    "fibermodel.FiberModel": lambda fx: (
        fibermodel.FiberModel, dict(R_eff_um=22.0, t_nm=630.0, mode_m=1, mode_n=1)
    ),
    "gasmedia.SellmeierModel": lambda fx: (gasmedia.SellmeierModel, _SELLMEIER),
    "gasmedia.GasState": lambda fx: (
        gasmedia.GasState, dict(model=fx.xenon.model, pressure_bar=3.4)
    ),
    "gasmedia.make_gas": lambda fx: (
        gasmedia.make_gas, dict(species="xenon", pressure_bar=3.4)
    ),
    "jsa.GaussianPump": lambda fx: (
        jsa.GaussianPump,
        dict(omega_p0=1.8e15, sigma=1e13, depth=0.3, period=3e12),
    ),
    "jsa.GaussianPump.from_fwhm": lambda fx: (
        jsa.GaussianPump.from_fwhm, dict(lambda_nm=1030.0, fwhm_fs=280.0)
    ),
    "jsa.GaussianPump.sigma_from_fwhm": lambda fx: (
        jsa.GaussianPump.sigma_from_fwhm, dict(fwhm_fs=280.0)
    ),
    "jsa.phi_function": lambda fx: (
        jsa.phi_function,
        dict(fiber=None, gas=None, branch=fx.branch,
             omega_s=fx.branch.omega_s, omega_i=fx.branch.omega_i, L_m=1.0),
    ),
    "jsa.build_jsa": lambda fx: (
        jsa.build_jsa,
        dict(fiber=fx.fiber, gas=fx.xenon, pump=fx.pump, branch=fx.branch,
             L_m=1.0, n=16),
    ),
    "phasematch.PhaseMatchBranch": lambda fx: (
        phasematch.PhaseMatchBranch, _BRANCH
    ),
    "phasematch.PhaseMatchBranch.dphi_width": lambda fx: (
        fx.branch.dphi_width, dict(L_m=1.0)
    ),
    "phasematch.delta_k": lambda fx: (
        phasematch.delta_k,
        dict(fiber=fx.fiber, gas=fx.xenon, omega_p=fx.branch.omega_p,
             omega_s=fx.branch.omega_s, omega_i=fx.branch.omega_i),
    ),
    "phasematch.solve_phase_matching": lambda fx: (
        phasematch.solve_phase_matching,
        dict(fiber=fx.fiber, gas=fx.xenon, omega_p=fx.branch.omega_p,
             detuning_window=(1e13, 4e14), grid_points=400),
    ),
    "phasematch.density_map": lambda fx: (
        phasematch.density_map,
        dict(fiber=fx.fiber, gas=fx.xenon, pump_range_nm=(1025.0, 1035.0),
             steps=2, detuning_window=(1e13, 4e14), grid_points=400),
    ),
    "tomography.NoiseModel": lambda fx: (
        tomography.NoiseModel, dict(rel_sigma=0.1, dark_floor=0.1, seed=(1,))
    ),
    "tomography.NoiseModel.rng_for_slice": lambda fx: (
        tomography.NoiseModel().rng_for_slice, dict(index=3)
    ),
    "tomography.SetScan": lambda fx: (
        tomography.SetScan,
        dict(omega_i=fx.grid.omega_i[:4], omega_s=fx.grid.omega_s,
             slices=np.ones((4, fx.grid.omega_s.size)),
             seed_power_W=np.full(4, 1e-3)),
    ),
    "tomography.simulate_set_scan": lambda fx: (
        tomography.simulate_set_scan,
        dict(truth=fx.grid, seed_omega_i=fx.grid.omega_i[:4],
             pump_power_W=1.0, seed_power_W=1e-3),
    ),
    "tomography.power_scaling_check": lambda fx: (
        tomography.power_scaling_check,
        dict(truth=fx.grid, seed_powers_W=np.geomspace(1e-4, 1e-2, 5),
             pump_powers_W=np.geomspace(1e-4, 1e-2, 5)),
    ),
    "sweeps.select_branch": lambda fx: (
        sweeps.select_branch,
        dict(branches=[fx.branch], prev=(fx.branch.omega_s, fx.branch.omega_i),
             seed_idler_nm=1500.0),
    ),
    "sweeps.value_text": lambda fx: (sweeps.value_text, dict(value=0.4)),
    "sweeps.build_grid": lambda fx: (
        sweeps.build_grid,
        dict(cfg=fx.cfg, fiber=fx.fiber, gas=fx.xenon, pump=fx.pump,
             branch=fx.branch, L_m=1.0),
    ),
}

# (callable, parameter) -> bad values that are legal input there
ACCEPTED = {
    ("gasmedia.SellmeierModel", "B"): {"0", "-1"},
    ("gasmedia.SellmeierModel", "C_um2"): {"0", "-1"},
    ("gasmedia.SellmeierModel", "n2_per_bar_m2W"): {"0"},
    ("gasmedia.GasState", "pressure_bar"): {"0"},
    ("gasmedia.make_gas", "pressure_bar"): {"0"},
    ("jsa.GaussianPump", "depth"): {"0"},
    ("phasematch.PhaseMatchBranch", "beta1_p"): {"0", "-1"},
    ("phasematch.PhaseMatchBranch", "beta1_s"): {"0", "-1"},
    ("phasematch.PhaseMatchBranch", "beta1_i"): {"0", "-1"},
    ("phasematch.PhaseMatchBranch", "residual_rad_m"): {"0", "-1"},
    ("phasematch.PhaseMatchBranch", "pump_peak_power_W"): {"0"},
    ("phasematch.delta_k", "pump_peak_power_W"): {"0"},
    ("phasematch.solve_phase_matching", "pump_peak_power_W"): {"0"},
    ("tomography.NoiseModel", "rel_sigma"): {"0"},
    ("tomography.NoiseModel", "dark_floor"): {"0"},
    ("tomography.NoiseModel", "seed"): {"0"},
    ("tomography.NoiseModel.rng_for_slice", "index"): {"0"},
}

# (callable, parameter) -> the words the error uses for the parameter,
# where they are not its name
WORDS = {
    ("gasmedia.GasState", "pressure_bar"): "pressure",
    ("gasmedia.GasState", "temperature_K"): "temperature",
    ("gasmedia.make_gas", "pressure_bar"): "pressure",
    ("gasmedia.make_gas", "temperature_K"): "temperature",
    ("phasematch.solve_phase_matching", "detuning_window"): "detuning window",
    ("phasematch.density_map", "pump_range_nm"): "pump range",
    ("tomography.SetScan", "duty_cycle"): "duty cycle",
    ("tomography.simulate_set_scan", "duty_cycle"): "duty cycle",
    ("tomography.power_scaling_check", "duty_cycle"): "duty cycle",
}

_NUMERIC = re.compile(r"\b(int|float)\b")


def _public_callables():
    """("module.Qualname", callable) for every public function, class and
    method defined in the seven modules."""
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{short}.{name}", obj
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{short}.{name}.{attr}", member


def _numeric_parameters():
    for qualname, obj in _public_callables():
        if qualname in RECORDS:
            continue
        for p in inspect.signature(obj).parameters.values():
            if isinstance(p.annotation, str) and _NUMERIC.search(p.annotation):
                yield qualname, p.name


NUMERIC = sorted(_numeric_parameters())


@pytest.fixture(scope="module")
def fx(fiber, xenon, pump, branch, grid128):
    return types.SimpleNamespace(
        fiber=fiber, xenon=xenon, pump=pump, branch=branch, grid=grid128,
        structure=fibermodel.band_structure(fiber, xenon),
        cfg=config.config_from_dict(
            {"fiber": {}, "gas": {}, "pump": {}, "grid": {"N": 16}}
        ),
    )


def test_walk_finds_the_entry_points():
    """The walk itself works: spot-check parameters it must see."""
    for pair in [
        ("fibermodel.FiberModel", "mode_n"),
        ("jsa.build_jsa", "L_m"),
        ("jsa.GaussianPump.from_fwhm", "fwhm_fs"),
        ("phasematch.density_map", "pump_range_nm"),
        ("phasematch.PhaseMatchBranch", "beta1_s"),
        ("phasematch.PhaseMatchBranch.dphi_width", "L_m"),
        ("tomography.simulate_set_scan", "duty_cycle"),
        ("tomography.NoiseModel", "seed"),
    ]:
        assert pair in NUMERIC
    # no stale rows
    assert set(ACCEPTED) <= set(NUMERIC) and set(WORDS) <= set(NUMERIC)
    assert set(CALLS) == {qualname for qualname, _ in NUMERIC}


@pytest.mark.parametrize("qualname, param", NUMERIC)
def test_every_numeric_parameter_is_checked(fx, qualname, param):
    assert qualname in CALLS, f"{qualname}({param}) has no row in CALLS"
    func, base = CALLS[qualname](fx)
    func(**base)  # the valid call
    accepted = ACCEPTED.get((qualname, param), set())
    words = WORDS.get((qualname, param), param)
    value = base.get(param)
    positions = range(len(value)) if isinstance(value, tuple) else [None]
    for label, bad in BAD.items():
        for i in positions:
            arg = bad if i is None else value[:i] + (bad,) + value[i + 1:]
            if label in accepted:
                func(**{**base, param: arg})
                continue
            with pytest.raises(ValidationError) as err:
                func(**{**base, param: arg})
            assert words in str(err.value), (label, str(err.value))


@pytest.mark.parametrize(
    "value, bounds, error",
    [
        (2.5, dict(integer=True), "n must be an integer, got 2.5"),
        (0, dict(lo=0, lo_open=True), "n must be finite and > 0, got 0"),
        (1.0, dict(lo=0, hi=1, hi_open=True), "n must be in [0, 1), got 1.0"),
        (0.0, dict(lo=0, lo_open=True, hi=1), "n must be in (0, 1], got 0.0"),
        (9, dict(lo=1, hi=8, integer=True), "n must be <= 8, got 9"),
        (None, dict(integer=True), "n must be an integer, got None"),
        (math.nan, dict(), "n must be finite, got nan"),
        (-(10**400), dict(), f"n must be finite, got -{'1' + '0' * 16}...{'0' * 19}"),
        (10**400, dict(lo=1, integer=True), f"n must be finite, got {'1' + '0' * 17}...{'0' * 19}"),
        # no decimal repr past sys.get_int_max_str_digits: shown by its size
        pytest.param(10**5000, dict(), "n must be finite, got <16610-bit int...>",
                     id="int-of-5001-digits"),
        pytest.param([10**5000], dict(), "n must be a number, got [<16610-bit int...>]",
                     id="list-of-an-int-of-5001-digits"),
        pytest.param(-(10**5000), dict(), "n must be finite, got -<16610-bit int...>",
                     id="negative-int-of-5001-digits"),
    ],
)
def test_check_number_messages(value, bounds, error):
    with pytest.raises(ValidationError) as err:
        check_number("n", value, **bounds)
    assert str(err.value) == error


def test_check_number_returns_the_value():
    x = np.float64(2.5)
    assert check_number("x", x, lo=0) is x
    assert check_number("n", 64.0, integer=True) == 64
    assert type(check_number("n", np.int64(3), integer=True)) is int
    assert isinstance(ValidationError("x"), ValueError)


@pytest.mark.parametrize(
    "call",
    [
        lambda fx: fibermodel.FiberModel(22.0, 630.0, mode_n=1.5),
        lambda fx: jsa.build_jsa(fx.fiber, fx.xenon, fx.pump, fx.branch,
                                 L_m=1.0, n=64.5),
        lambda fx: phasematch.density_map(fx.fiber, fx.xenon, (1025.0, 1035.0),
                                          steps=2.5),
        lambda fx: phasematch.solve_phase_matching(
            fx.fiber, fx.xenon, fx.branch.omega_p, grid_points=400.5),
    ],
    ids=["mode_n", "n", "steps", "grid_points"],
)
def test_counts_are_not_truncated(fx, call):
    with pytest.raises(ValidationError, match="must be an integer, got"):
        call(fx)


def test_integral_floats_count_as_integers(fx):
    fiber = fibermodel.FiberModel(22.0, 630.0, mode_m=1.0, mode_n=1.0)
    assert (fiber.mode_m, fiber.mode_n) == (1, 1) and fiber.mode_label == "HE11"
    assert fiber == fx.fiber
    grids = [
        jsa.build_jsa(fx.fiber, fx.xenon, fx.pump, fx.branch, L_m=1.0, n=n)
        for n in (16.0, 16)
    ]
    np.testing.assert_array_equal(grids[0].values, grids[1].values)


def test_size_caps_live_in_the_library(fx):
    """One past each cap is refused before anything is allocated; the
    config layer reads the same constants."""
    assert config.MAX_MODE_N is fibermodel.MAX_MODE_N
    assert config.MAX_GRID_N is jsa.MAX_GRID_N
    assert config.MAX_GRID_POINTS is phasematch.MAX_GRID_POINTS
    assert config.MAX_PUMP_STEPS is phasematch.MAX_PUMP_STEPS
    assert config.MAX_MAP_POINTS is phasematch.MAX_MAP_POINTS
    seeds = np.full(jsa.MAX_GRID_N + 1, fx.grid.omega_i[0])
    for error, call in [
        ("mode_n must be <= 1000", lambda: fibermodel.FiberModel(
            22.0, 630.0, mode_n=fibermodel.MAX_MODE_N + 1)),
        ("t_nm must be finite and <= 100000.0", lambda: fibermodel.FiberModel(
            22.0, 2.0 * fibermodel.MAX_T_NM)),
        ("grid size n must be <= 4096", lambda: jsa.build_jsa(
            fx.fiber, fx.xenon, fx.pump, fx.branch, L_m=1.0,
            n=jsa.MAX_GRID_N + 1)),
        ("grid_points must be <= 1000000", lambda: phasematch.solve_phase_matching(
            fx.fiber, fx.xenon, fx.branch.omega_p,
            grid_points=phasematch.MAX_GRID_POINTS + 1)),
        ("steps must be <= 10000", lambda: phasematch.density_map(
            fx.fiber, fx.xenon, (1025.0, 1035.0),
            steps=phasematch.MAX_PUMP_STEPS + 1)),
        ("steps x grid_points must be <= 100000000, got 10000 x 1000000",
         lambda: phasematch.density_map(
            fx.fiber, fx.xenon, (1025.0, 1035.0),
            steps=phasematch.MAX_PUMP_STEPS,
            grid_points=phasematch.MAX_GRID_POINTS)),
        ("seed sweep steps must be <= 4096", lambda: (
            tomography.simulate_set_scan(fx.grid, seeds, 1.0, 1e-3))),
    ]:
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=error):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # going on past the check would allocate well over 1 MB
        assert peak < 1e6, (error, peak)


def test_pump_sigma_is_capped_where_alpha_squares_it(fx):
    """A sigma whose square overflows is refused when the pump is built,
    not as an OverflowError in alpha; a duration so short that its sigma
    overflows is refused too, with no warning first."""
    with pytest.raises(ValidationError) as err:
        jsa.GaussianPump(1e15, 1e160)
    assert str(err.value) == "sigma must be finite and <= 1e+150, got 1e+160"
    with pytest.raises(ValidationError) as err:
        jsa.GaussianPump.from_fwhm(1030.0, 1e-300)
    assert str(err.value) == "sigma must be finite and > 0, got inf"
    widest = jsa.GaussianPump(1e15, jsa.MAX_PUMP_SIGMA)
    assert widest.alpha(2e15) == 1.0
    assert np.isinf(jsa.GaussianPump.sigma_from_fwhm(1e-300))


@pytest.mark.parametrize(
    "pump_range_nm, error",
    [
        ((1000.0, math.inf), "pump range max must be finite"),
        (("1000", 1040.0), "pump range min must be a number, got '1000'"),
        ((1000.0, True), "pump range max must be a number, got True"),
    ],
)
def test_density_map_pump_range_ends(fx, pump_range_nm, error):
    with pytest.raises(ValidationError, match=re.escape(error)):
        phasematch.density_map(fx.fiber, fx.xenon, pump_range_nm, steps=2)


@pytest.mark.parametrize(
    "window", [("1e13", 4e14), (1e13, math.nan), (True, 4e14)]
)
def test_detuning_window_ends(fx, window):
    """Checked before any pump is solved, so a map whose pumps all miss
    the bands still refuses a bad window."""
    with pytest.raises(ValidationError, match="detuning window"):
        phasematch.solve_phase_matching(
            fx.fiber, fx.xenon, fx.branch.omega_p, detuning_window=window
        )
    with pytest.raises(ValidationError, match="detuning window"):
        phasematch.density_map(
            fx.fiber, fx.xenon, (5000.0, 5001.0), steps=2,
            detuning_window=window,
        )


@pytest.mark.parametrize("param", ["grid_points", "pump_peak_power_W"])
@pytest.mark.parametrize("label", BAD)
def test_density_map_passes_the_solve_keywords_to_their_check(fx, param, label):
    """density_map hands its solve keywords to solve_phase_matching, which
    checks them before any band lookup: a map whose pumps all miss the
    bands still refuses a bad one, naming it (0 W is a legal power)."""
    def run():
        return phasematch.density_map(
            fx.fiber, fx.xenon, (5000.0, 5001.0), steps=2, **{param: BAD[label]}
        )

    if label in ACCEPTED.get(("phasematch.solve_phase_matching", param), set()):
        with pytest.warns(UserWarning, match="is a gap"):
            assert run() == []
        return
    with pytest.raises(ValidationError, match=param):
        run()


@pytest.mark.parametrize("pair", [(1000.0,), (1.0, 2.0, 3.0), (), 1000.0, "ab"])
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda fx, v: phasematch.density_map(fx.fiber, fx.xenon, v, steps=2),
         "pump range"),
        (lambda fx, v: phasematch.solve_phase_matching(
            fx.fiber, fx.xenon, fx.branch.omega_p, detuning_window=v),
         "detuning window"),
        (lambda fx, v: sweeps.select_branch([fx.branch], prev=v), "prev"),
    ],
    ids=["pump_range_nm", "detuning_window", "prev"],
)
def test_pairs_of_the_wrong_length(fx, call, name, pair):
    with pytest.raises(ValidationError) as err:
        call(fx, pair)
    assert str(err.value) == f"{name} must be a pair of numbers, got {pair!r}"



@pytest.mark.parametrize(
    "value",
    [1.5, "ab", "a...b", None, True, (1,), [1.0, 2.0, "x" * 70],
     {"b": 1, "a": [2, {"d": 3, "c": 4}]}],
)
def test_shown_keeps_a_short_value_exact(value):
    """Within the limits an error message echoes repr itself, a mapping in
    its own order included."""
    assert shown(value) == repr(value)


def test_shown_bounds_any_value():
    deep = []
    for _ in range(10_000):
        deep = [deep]
    wide = [["x" * 1000] * 1000] * 1000
    for value in (deep, wide, "x" * 10**6, {i: i for i in range(1000)}):
        assert len(shown(value)) <= 200
