"""Acceptance suite: one test per design target, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the report lines.
Every test prints

    ACCEPTANCE PASS|FAIL — <criterion>: <measured values and target>

before asserting, so a red test still reports how far off it landed.

One criterion stays red: test_theta_rotation_rate.  Its 4..8 deg/bar
target has no documented source or frame; the model's stripe angle, in
the documented (omega_s, omega_i) plane, rotates at 2.6 deg/bar.  The
test is kept as designed, and its docstring carries the measured numbers
and the open question.  Everything else passes.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from hcfwm import cli, config, jsa, schmidt, sweeps, tomography
from hcfwm.fibermodel import omega_from_lambda_nm
from hcfwm.phasematch import PhaseMatchBranch

from _oracles import (
    double_gaussian_K,
    mehler_K,
    mehler_coefficients,
    mehler_kernel,
    mehler_rho,
    sinc_gaussian_K,
    svd_mode_errors,
)


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'} — {label}: {detail}")


def _nearest(points, value):
    return min(points, key=lambda p: abs(p.value - value))


# ----------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def tuning_cfg():
    return cli.resolve_config("tuning_xe")


@pytest.fixture(scope="module")
def tuning_sweep(tuning_cfg):
    return sweeps.sweep_pressure(tuning_cfg)


@pytest.fixture(scope="module")
def series_cfg():
    return cli.resolve_config("length_series")


@pytest.fixture(scope="module")
def length_sweep(series_cfg):
    """The four-length series, with its wall-clock time in seconds."""
    t0 = time.perf_counter()
    result = sweeps.sweep_length(series_cfg)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def truth512(series_cfg):
    """Ground-truth 512 x 512 JSA at the 1 m reference operating point."""
    fiber = sweeps.fiber_from_config(series_cfg)
    gas = sweeps.gas_from_config(series_cfg)
    pump = sweeps.pump_from_config(series_cfg)
    branch = sweeps.solve_branch(series_cfg, fiber, gas, pump)
    grid = sweeps.build_grid(
        series_cfg, fiber, gas, pump, branch, series_cfg.fiber_length_m
    )
    return fiber, gas, pump, branch, grid


# ----------------------------------------------- pressure-tuning study


def test_idler_anchor_points(tuning_sweep):
    """Idler centroids at the two calibration pressures."""
    p30 = _nearest(tuning_sweep.points, 3.0)
    p365 = _nearest(tuning_sweep.points, 3.65)
    assert abs(p30.value - 3.0) < 1e-9 and abs(p365.value - 3.65) < 1e-9
    ok = abs(p30.idler_nm - 1531.0) <= 3.0 and abs(p365.idler_nm - 1551.0) <= 3.0
    _report(
        "idler anchor points", ok,
        f"idler(3.0 bar) = {p30.idler_nm:.2f} nm (target 1531 +- 3), "
        f"idler(3.65 bar) = {p365.idler_nm:.2f} nm (target 1551 +- 3)",
    )
    assert ok


def test_pressure_tuning_slope(tuning_sweep):
    """Idler frequency sensitivity to pressure: within 15% of 27.4 THz/bar."""
    fit = tuning_sweep.fit
    mag = abs(fit.slope_THz_per_bar)
    ok = 23.29 <= mag <= 31.51 and fit.r_squared > 0.99
    _report(
        "pressure-tuning slope", ok,
        f"|slope| = {mag:.2f} THz/bar (target 23.29..31.51), "
        f"r^2 = {fit.r_squared:.6f} (target > 0.99)",
    )
    assert ok


def test_pressure_tuning_span(tuning_sweep):
    """Total idler tuning range across the pressure window: >= 17 THz."""
    span = tuning_sweep.fit.span_THz
    ok = span >= 17.0
    _report(
        "pressure-tuning span", ok,
        f"span = {span:.2f} THz over "
        f"{tuning_sweep.points[0].value:g}..{tuning_sweep.points[-1].value:g} bar "
        f"(target >= 17)",
    )
    assert ok


def test_theta_rotation_rate(tuning_sweep):
    """Rotation of the correlation angle with pressure: 4..8 deg/bar.

    KNOWN RED, and open: neither the program nor the target can be shown
    at fault.  Nothing in the docs gives the source of the 4..8 deg/bar
    target, or the plane in which it measures theta.

    theta_deg is documented as the stripe angle in the (omega_s, omega_i)
    plane, -arctan((beta1_p - beta1_s) / (beta1_p - beta1_i)), and on
    tuning_xe it rotates at 2.593 deg/bar.  The JSI CSVs are written on
    (lambda_s, lambda_i) axes, where each group-delay gap picks up a
    factor lambda^2 and the same stripes rotate at 7.40 deg/bar, inside
    the target.  Switching frames on that number alone would only pick the
    frame in which the test passes, so the assert stays on theta_deg and
    both rates are printed above it.  The target needs a documented source
    and frame before either the model or the test can be changed.
    """
    pressures = np.array([p.value for p in tuning_sweep.points])
    thetas = np.array([p.theta_deg for p in tuning_sweep.points])
    slope = float(np.polyfit(pressures, thetas, 1)[0])
    thetas_lambda = np.array([
        np.degrees(-np.arctan(
            (p.branch.beta1_p - p.branch.beta1_s) * p.branch.lambda_i_nm**2
            / ((p.branch.beta1_p - p.branch.beta1_i) * p.branch.lambda_s_nm**2)
        ))
        for p in tuning_sweep.points
    ])
    slope_lambda = float(np.polyfit(pressures, thetas_lambda, 1)[0])
    ok = 4.0 <= abs(slope) <= 8.0
    _report(
        "theta rotation rate", ok,
        f"|d theta / dP| = {abs(slope):.3f} deg/bar in the (omega_s, omega_i) "
        f"plane (target 4..8); {abs(slope_lambda):.2f} deg/bar in the "
        "(lambda_s, lambda_i) plane, for reference",
    )
    assert ok


# ------------------------------------------------- fiber-length series


def test_length_series_decreasing_and_fast(length_sweep):
    """K falls monotonically with length; the series runs in < 60 s."""
    result, elapsed = length_sweep
    ks = [p.K_flat for p in result.points]
    ok = all(b < a for a, b in zip(ks, ks[1:])) and elapsed < 60.0
    _report(
        "length series", ok,
        "K_flat = " + ", ".join(f"{k:.4f}" for k in ks)
        + f" at L = {[p.value for p in result.points]} m "
        f"(strictly decreasing), {elapsed:.1f} s (target < 60 s)",
    )
    assert ok


def test_one_meter_schmidt_matches_gaussian_closure(length_sweep, series_cfg):
    """K at L = 1 m within 10% of the exact sinc-JSA Schmidt number.

    The reference is sinc_gaussian_K: the continuum K of the Gaussian-pump,
    linearized-sinc amplitude, computed in the time domain with no
    Gaussian stand-in.  It is compared with K_complex, the Schmidt number
    of the complex amplitude; K_flat decomposes |F| and so drops the sign
    flips of the sinc side lobes, which the reference keeps.

    The amplitude-matched Gaussian closure (double_gaussian_K) is printed
    for comparison but is not the target.  Its algebra is right: with its
    Gaussian put in place of the sinc on the recipe's 512^2 grid, K
    reproduces it to 2e-9 at 1 m (5e-5 at 0.4 m, where the window trims
    the Gaussian's tails).  The stand-in itself is too crude: it drops the
    sinc's heavy tails and side lobes, which carry real correlation once
    the sinc width dominates the pump width.  At 1 m the closure gives
    1.0120 against the exact 1.1812, 14% low, so no correct program can
    land within 10% of it.

    The recipe grid (kappa_span = 4) cuts the sinc tails as well, so
    K_complex sits below the continuum value: 1.1302 against 1.1812 at
    1 m, a 4.3% gap, rising to 1.1566 and 1.1691 at span 8 and 16 (N
    scaled with span).  Grid refinement at fixed span checks resolution
    only; the window, not the resolution, sets this gap.
    """
    result, _ = length_sweep
    point = _nearest(result.points, 1.0)
    b = point.branch
    pump = sweeps.pump_from_config(series_cfg)
    k_ref = sinc_gaussian_K(b.beta1_p, b.beta1_s, b.beta1_i, pump.sigma, 1.0)
    k_closure = double_gaussian_K(
        b.beta1_p, b.beta1_s, b.beta1_i, pump.sigma, 1.0
    )
    rel = abs(point.K_complex - k_ref) / k_ref
    ok = rel <= 0.10
    _report(
        "1 m sinc-reference K", ok,
        f"K_complex = {point.K_complex:.4f} vs exact sinc {k_ref:.4f}, "
        f"gap {100 * rel:.2f}% (target <= 10%); "
        f"Gaussian closure {k_closure:.4f} for comparison",
    )
    assert ok


# --------------------------------------------------- branch-family maps


def _recipe_density_map(name):
    cfg = cli.resolve_config(name)
    fiber = sweeps.fiber_from_config(cfg)
    gas = sweeps.gas_from_config(cfg)
    return sweeps.density_records(cfg, fiber, gas)


def test_thin_strut_map_single_family():
    """t = 300 nm: one branch family, steep anti-correlated angles."""
    records = _recipe_density_map("map_t300")
    families = sorted({(r.band_s, r.band_i) for r in records})
    thetas = [r.theta_deg for r in records]
    ok = (
        len(families) == 1
        and all(-80.0 <= t <= -30.0 for t in thetas)
        and len(records) > 0
    )
    _report(
        "thin-strut branch map", ok,
        f"{len(records)} records in {len(families)} family "
        f"{families}, theta in [{min(thetas):.1f}, {max(thetas):.1f}] deg "
        "(target: exactly 1 family, all theta in [-80, -30])",
    )
    assert ok


def test_thick_strut_map_cross_band_families():
    """t = 600 nm: several families, including pump+signal in band II
    with the idler across the resonance in band I.  The 1250 nm pump sits
    in a resonance exclusion zone and is a gap."""
    with pytest.warns(UserWarning, match="pump at 1250 nm is a gap"):
        records = _recipe_density_map("map_t600")
    families = sorted({(r.band_s, r.band_i) for r in records})
    cross = [
        r for r in records
        if r.band_p == "II" and r.band_s == "II" and r.band_i == "I"
    ]
    ok = len(families) >= 2 and len(cross) > 0
    _report(
        "thick-strut branch map", ok,
        f"{len(records)} records in {len(families)} families {families}; "
        f"{len(cross)} cross-band (II,II->I) records "
        "(target: >= 2 families including II,II->I)",
    )
    assert ok


# ------------------------------------------------- analytic benchmarks


def test_schmidt_matches_analytic_hermite_kernel():
    """Correlated-Gaussian kernel: coefficients to 1e-6, K to 1e-4."""
    mu = 0.5
    x = np.linspace(-15.0, 15.0, 512)
    res = schmidt.schmidt_decompose(
        mehler_kernel(x, mehler_rho(mu)).astype(complex)
    )
    n = min(res.n_modes, 11)
    c_err = float(
        np.max(np.abs(res.coefficients[:n] - mehler_coefficients(mu, n)))
    )
    k_rel = abs(res.K - mehler_K(mu)) / mehler_K(mu)
    ok = c_err < 1e-6 and k_rel < 1e-4
    _report(
        "analytic Schmidt kernel", ok,
        f"max |c_n - analytic| = {c_err:.2e} for n <= 10 (target < 1e-6), "
        f"K relative error = {k_rel:.2e} (target < 1e-4)",
    )
    assert ok


# -------------------------------------- stimulated-emission tomography


def test_set_roundtrip_noiseless(truth512):
    """Seeded scan + reconstruction returns the JSI to 1e-12."""
    *_, grid = truth512
    scan = tomography.simulate_set_scan(
        grid, grid.omega_i, pump_power_W=0.2, seed_power_W=5e-8
    )
    rec = tomography.reconstruct_jsi(scan)
    truth = jsa.jsi(grid)
    truth = truth / truth.sum()
    err = float(np.max(np.abs(rec.values - truth)))
    ok = err < 1e-12
    _report(
        "tomography roundtrip", ok,
        f"sup|reconstruction - truth| = {err:.2e} (target < 1e-12)",
    )
    assert ok


def test_power_law_exponents_with_noise(truth512, series_cfg):
    """Counts scale as seed^1 and pump^2 within 0.02 under 1% noise."""
    *_, grid = truth512
    ss = series_cfg.set_sim
    noise = tomography.NoiseModel(rel_sigma=0.01, dark_floor=0.0, seed=9)
    scaling = tomography.power_scaling_check(
        grid, ss.power_check_seed_W, ss.power_check_pump_W, noise=noise
    )
    ok = (
        abs(scaling.seed_exponent - 1.0) <= 0.02
        and abs(scaling.pump_exponent - 2.0) <= 0.02
        and scaling.r_squared_seed > 0.999
        and scaling.r_squared_pump > 0.999
    )
    _report(
        "power-law exponents", ok,
        f"seed exponent = {scaling.seed_exponent:.4f} (target 1 +- 0.02), "
        f"pump exponent = {scaling.pump_exponent:.4f} (target 2 +- 0.02), "
        f"r^2 = {scaling.r_squared_seed:.5f}/{scaling.r_squared_pump:.5f} "
        "(target > 0.999)",
    )
    assert ok


# ---------------------------------------------------- invariant battery


def test_invariant_normalization(truth512):
    *_, grid = truth512
    cell = (grid.omega_s[1] - grid.omega_s[0]) * (
        grid.omega_i[1] - grid.omega_i[0]
    )
    err = abs(float(np.sum(np.abs(grid.values) ** 2) * cell) - 1.0)
    ok = err <= 1e-9
    _report(
        "invariant: normalization", ok,
        f"|sum |F|^2 dA - 1| = {err:.2e} (target <= 1e-9)",
    )
    assert ok


def test_invariant_exchange_symmetry(fiber, xenon):
    om0 = float(omega_from_lambda_nm(1500.0))
    b1 = 3.34e-9
    degenerate = PhaseMatchBranch(
        omega_p=om0, omega_s=om0, omega_i=om0,
        band_p="I", band_s="I", band_i="I",
        beta1_p=b1, beta1_s=b1 - 2e-13, beta1_i=b1 - 2e-13,
        residual_rad_m=0.0,
    )
    grid = jsa.build_jsa(
        fiber, xenon, jsa.GaussianPump(om0, 5.9e12), degenerate,
        L_m=1.0, n=128,
    )
    err = float(np.max(np.abs(grid.values - grid.values.T)))
    ok = err <= 1e-12
    _report(
        "invariant: exchange symmetry", ok,
        f"sup|F - F^T| = {err:.2e} at a degenerate branch (target <= 1e-12)",
    )
    assert ok


def test_invariant_mode_orthonormality(truth512):
    *_, grid = truth512
    res = schmidt.schmidt_decompose(grid, flat_phase=False)
    eye = np.eye(res.signal_modes.shape[1])
    worst = 0.0
    for modes in (res.signal_modes, res.idler_modes):
        gram = modes.conj().T @ modes
        worst = max(worst, float(np.max(np.abs(gram - eye))))
    ok = worst <= 1e-8
    _report(
        "invariant: mode orthonormality", ok,
        f"sup|Gram - I| = {worst:.2e} over both mode sets (target <= 1e-8)",
    )
    assert ok


def test_invariant_written_modes_match_the_full_svd(truth512):
    """The 8 modes that modes.csv writes, against a full SVD of the grid."""
    *_, grid = truth512
    res = schmidt.schmidt_decompose(grid, flat_phase=False)
    residual, overlap, phase = svd_mode_errors(grid.values, res)
    ok = (
        res.signal_modes.shape == res.idler_modes.shape == (512, 8)
        and residual <= 1e-10 and overlap <= 1e-12 and phase <= 1e-12
    )
    _report(
        "invariant: written modes", ok,
        f"{res.signal_modes.shape[1]} modes; max ||M v - s u|| / s = "
        f"{residual:.1e} (target <= 1e-10), min overlap with the full SVD "
        f"1 - {overlap:.1e} (target 1 - 1e-12), max |arg <r, S_n>| = "
        f"{phase:.1e} (target <= 1e-12)",
    )
    assert ok


def test_invariant_grid_refinement(truth512, series_cfg):
    fiber, gas, pump, branch, grid = truth512
    k_512 = schmidt.schmidt_decompose(grid, flat_phase=True).K
    fine = jsa.build_jsa(
        fiber, gas, pump, branch, series_cfg.fiber_length_m, n=1024,
        kappa_span=series_cfg.grid.span,
    )
    k_1024 = schmidt.schmidt_decompose(fine, flat_phase=True).K
    rel = abs(k_1024 - k_512) / k_512
    ok = rel < 5e-3
    _report(
        "invariant: grid refinement", ok,
        f"|K(1024) - K(512)| / K = {rel:.2e} (target < 5e-3)",
    )
    assert ok


def test_invariant_thread_independence(tuning_cfg, truth512):
    """hcfwm starts no threads of its own, so the invariant is a same-seed
    rerun giving the same bytes and the same noisy slices.  OpenBLAS's
    threads are another matter: test_cli's
    test_schmidt_bytes_across_blas_thread_counts says what they move."""
    cfg = dataclasses.replace(
        tuning_cfg,
        sweep_pressure=config.SweepPressureConfig(pressures_bar=(3.0, 3.2, 3.4)),
    )
    first, again = (
        sweeps.summary_csv(sweeps.sweep_pressure(cfg)) for _ in range(2)
    )
    *_, grid = truth512
    noise = tomography.NoiseModel(rel_sigma=0.02, dark_floor=1e-20, seed=3)
    axis = grid.omega_i[::32]
    scans = [
        tomography.simulate_set_scan(grid, axis, 0.2, 5e-8, noise=noise).slices
        for _ in range(2)
    ]
    ok = first == again and np.array_equal(scans[0], scans[1])
    _report(
        "invariant: same-seed rerun", ok,
        f"pressure-sweep summaries byte-identical: {first == again}; "
        f"noisy scan slices identical: {np.array_equal(scans[0], scans[1])}",
    )
    assert ok
