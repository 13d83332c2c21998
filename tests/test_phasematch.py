"""Phase-matching: mismatch function, branch solving, density maps."""

from __future__ import annotations

import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfwm import cli, fibermodel, phasematch, sweeps
from hcfwm.errors import (
    DivergenceZoneError,
    NumericalError,
    RangeError,
    ValidationError,
)
from hcfwm.fibermodel import lambda_nm_from_omega, omega_from_lambda_nm

# frozen regression values: xenon 3.4 bar, 1030 nm pump, reference fiber
BRANCH_LAMBDA_S_NM = 775.8910168885263
BRANCH_LAMBDA_I_NM = 1531.612235879803
BRANCH_THETA_DEG = 7.813388786021953
KERR_GAMMA_1030 = 1.2549145470592952e-4


def _branch_with_beta1(beta1_p, beta1_s, beta1_i):
    return phasematch.PhaseMatchBranch(
        omega_p=2.0, omega_s=3.0, omega_i=1.0, band_p="I", band_s="I",
        band_i="I", beta1_p=beta1_p, beta1_s=beta1_s, beta1_i=beta1_i,
        residual_rad_m=0.0,
    )


def test_theta_angle_limits():
    assert _branch_with_beta1(1.0, 2.0, 1.0).theta_deg == 90.0
    assert _branch_with_beta1(1.0, 1.0, 1.0).theta_deg == 0.0
    assert _branch_with_beta1(1.0, 1.0, 2.0).theta_deg == 0.0
    # generic case: tan(theta) = -(b1p-b1s)/(b1p-b1i)
    theta = _branch_with_beta1(3.0, 2.0, 1.0).theta_deg
    assert theta == pytest.approx(np.degrees(-np.arctan(0.5)), rel=1e-14)


def test_dphi_width_limits_and_scaling():
    assert _branch_with_beta1(1.0, 1.0, 2.0).dphi_width() == np.inf
    assert _branch_with_beta1(1.0, 2.0, 1.0).dphi_width() == np.inf
    w1 = _branch_with_beta1(3.0, 2.0, 1.0).dphi_width(L_m=1.0)
    w2 = _branch_with_beta1(3.0, 2.0, 1.0).dphi_width(L_m=2.0)
    assert w2 == w1 / 4.0


def test_branch_goldens(branch):
    assert branch.lambda_s_nm == pytest.approx(BRANCH_LAMBDA_S_NM, rel=1e-9)
    assert branch.lambda_i_nm == pytest.approx(BRANCH_LAMBDA_I_NM, rel=1e-9)
    assert branch.theta_deg == pytest.approx(BRANCH_THETA_DEG, rel=1e-9)
    assert (branch.band_p, branch.band_s, branch.band_i) == ("II", "II", "I")
    assert branch.family == ("II", "I")


def test_branch_residual_below_tolerance(fiber, xenon, branch):
    assert abs(branch.residual_rad_m) <= phasematch.BISECT_TOL_RAD_M
    # the stored residual is the actual mismatch at the root
    dk = float(
        phasematch.delta_k(
            fiber, xenon, branch.omega_p, branch.omega_s, branch.omega_i
        )
    )
    assert dk == pytest.approx(branch.residual_rad_m, abs=1e-12)


def test_energy_conservation_by_construction(branch):
    assert branch.omega_s + branch.omega_i == pytest.approx(
        2.0 * branch.omega_p, rel=1e-14
    )
    assert branch.delta_omega == pytest.approx(
        branch.omega_s - branch.omega_p, rel=0.0, abs=0.0
    )


@settings(max_examples=30, deadline=None)
@given(
    lam_s=st.floats(700.0, 1300.0),
    lam_i=st.floats(700.0, 1300.0),
)
def test_delta_k_exchange_symmetry(fiber, xenon, lam_s, lam_i):
    """k_s + k_i - 2 k_p must not care which photon is called signal."""
    om_p = float(omega_from_lambda_nm(1030.0))
    om_s = float(omega_from_lambda_nm(lam_s))
    om_i = float(omega_from_lambda_nm(lam_i))
    a = phasematch.delta_k(fiber, xenon, om_p, om_s, om_i, check=False)
    b = phasematch.delta_k(fiber, xenon, om_p, om_i, om_s, check=False)
    assert float(a) == float(b)


def test_solver_input_validation(fiber, xenon):
    om_p = float(omega_from_lambda_nm(1030.0))
    with pytest.raises(ValidationError, match="detuning window"):
        phasematch.solve_phase_matching(
            fiber, xenon, om_p, detuning_window=(2e14, 1e14)
        )
    with pytest.raises(ValidationError, match="detuning window"):
        phasematch.solve_phase_matching(
            fiber, xenon, om_p, detuning_window=(-1.0, 1e14)
        )
    with pytest.raises(ValidationError, match="grid_points"):
        phasematch.solve_phase_matching(fiber, xenon, om_p, grid_points=8)
    for power in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            phasematch.delta_k(fiber, xenon, om_p, om_p, om_p,
                               pump_peak_power_W=power)
        with pytest.raises(ValidationError, match="finite and >= 0"):
            phasematch.solve_phase_matching(
                fiber, xenon, om_p, pump_peak_power_W=power
            )
    not_a_number = "pump_peak_power_W must be a number"
    for power in ("1", None, True):
        with pytest.raises(ValidationError, match=not_a_number):
            phasematch.delta_k(fiber, xenon, om_p, om_p, om_p,
                               pump_peak_power_W=power)
        with pytest.raises(ValidationError, match=not_a_number):
            phasematch.solve_phase_matching(
                fiber, xenon, om_p, pump_peak_power_W=power
            )


def test_solver_rejects_non_finite_inputs(fiber, xenon):
    om_p = float(omega_from_lambda_nm(1030.0))
    with pytest.raises(ValidationError, match="detuning window"):
        phasematch.solve_phase_matching(
            fiber, xenon, om_p, detuning_window=(1e14, float("inf"))
        )
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="grid_points"):
            phasematch.solve_phase_matching(fiber, xenon, om_p, grid_points=bad)
        with pytest.raises(ValidationError, match="steps"):
            phasematch.density_map(fiber, xenon, (1020.0, 1040.0), steps=bad)


def test_two_brackets_solve_as_two_sub_windows(fiber, xenon):
    """Bisecting two brackets in one loop gives the branches that two
    one-bracket windows give.  The windows share their grid points exactly
    (steps of 1e12 rad/s), so the brackets, and so the branches, match bit
    for bit."""
    om_p = float(omega_from_lambda_nm(740.0))

    def solve(lo_THz, hi_THz):
        return phasematch.solve_phase_matching(
            fiber, xenon, om_p, detuning_window=(lo_THz * 1e12, hi_THz * 1e12),
            grid_points=hi_THz - lo_THz + 1,
        )

    both = solve(400, 1100)
    assert len(both) == 2
    assert both == solve(400, 760) + solve(760, 1100)
    for br in both:
        assert abs(br.residual_rad_m) <= phasematch.BISECT_TOL_RAD_M
        assert br.family == ("III", "II")

    # reference: each bracket bisected on its own, one detuning at a time
    def mismatch(d):
        return float(phasematch.delta_k(
            fiber, xenon, om_p, om_p + d, om_p - d, check=False
        ))

    dw = np.linspace(400e12, 1100e12, 701)
    expected = []
    for a, b in zip(dw.tolist(), dw[1:].tolist()):
        fa = mismatch(a)
        if fa * mismatch(b) >= 0.0:
            continue
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = mismatch(m)
            if abs(fm) <= phasematch.BISECT_TOL_RAD_M:
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        expected.append((om_p + m, fm))
    assert [(br.omega_s, br.residual_rad_m) for br in both] == expected


def test_grid_zero_stall_and_close_roots(fiber, xenon, monkeypatch):
    """A mismatch of exactly 0 on a grid point is a root with residual 0; a
    sign change that never comes within tolerance raises; roots closer than
    two cells warn.  The mismatch is replaced by simple functions of the
    signal frequency; grid steps are 1e12 rad/s exactly."""
    om_p = float(omega_from_lambda_nm(1030.0))

    def solve_with(mismatch):
        monkeypatch.setattr(
            phasematch, "delta_k",
            lambda fiber, gas, om_p, om_s, om_i, *args, **kw: mismatch(om_s),
        )
        return phasematch.solve_phase_matching(
            fiber, xenon, om_p, detuning_window=(100e12, 200e12),
            grid_points=101,
        )

    on_grid = om_p + 150e12
    (root,) = solve_with(lambda om_s: (om_s - on_grid) * 1e-12)
    assert (root.omega_s, root.residual_rad_m) == (on_grid, 0.0)
    assert root.omega_i == om_p - 150e12

    with pytest.raises(NumericalError, match="bisection stalled"):
        solve_with(lambda om_s: np.where(om_s < om_p + 170.5e12, -1.0, 1.0))

    near = (om_p + 150.2e12, om_p + 151.4e12)
    with pytest.warns(UserWarning, match="closer than two grid cells"):
        pair = solve_with(lambda om_s: (om_s - near[0]) * (om_s - near[1]) * 1e-24)
    assert [br.omega_s for br in pair] == pytest.approx(near, abs=1e8)


def test_no_roots_returns_empty_list(fiber, xenon):
    om_p = float(omega_from_lambda_nm(1030.0))
    out = phasematch.solve_phase_matching(
        fiber, xenon, om_p, detuning_window=(100e12, 200e12), grid_points=400
    )
    assert out == []


def test_pump_in_divergence_zone_raises(fiber, xenon):
    lam2 = fibermodel.band_structure(fiber, xenon).resonances_nm[1]
    om_p = float(omega_from_lambda_nm(lam2 * 1.001))
    with pytest.raises(DivergenceZoneError):
        phasematch.solve_phase_matching(fiber, xenon, om_p)
    with pytest.raises(RangeError):
        phasematch.solve_phase_matching(
            fiber, xenon, float(omega_from_lambda_nm(200.0))
        )


def test_kerr_gamma_golden(fiber, xenon):
    om_p = float(omega_from_lambda_nm(1030.0))
    gamma = phasematch.kerr_gamma(fiber, xenon, om_p)
    assert gamma == pytest.approx(KERR_GAMMA_1030, rel=1e-12)
    # explicit reconstruction from n2 and the mode area
    a_eff = np.pi * (fiber.R_eff_um * 1e-6) ** 2
    assert gamma == pytest.approx(
        xenon.n2_m2W * om_p / (299792458.0 * a_eff), rel=1e-14
    )


def test_kerr_term_shifts_delta_k(fiber, xenon, branch):
    """The textbook degenerate-pump mismatch kappa = delta_k + 2 gamma P
    (Agrawal, Nonlinear Fiber Optics, sec. 10.2)."""
    gamma = phasematch.kerr_gamma(fiber, xenon, branch.omega_p)
    base = float(
        phasematch.delta_k(
            fiber, xenon, branch.omega_p, branch.omega_s, branch.omega_i
        )
    )
    powered = float(
        phasematch.delta_k(
            fiber, xenon, branch.omega_p, branch.omega_s, branch.omega_i,
            pump_peak_power_W=1000.0,
        )
    )
    assert powered == pytest.approx(base + 2.0 * gamma * 1000.0, rel=1e-12)


@pytest.mark.parametrize("lambda_p_nm, anomalous", [(1030.0, True), (675.0, False)])
def test_kerr_root_sits_at_the_modulation_instability_frequency(
    fiber, xenon, lambda_p_nm, anomalous
):
    """Near the pump delta_k ~ beta2 Omega^2, so kappa = delta_k + 2 gamma P
    vanishes at Omega_MI = sqrt(2 gamma P / |beta2|) where beta2 < 0 and
    nowhere near it where beta2 > 0.  The window (0.2, 3) Omega_MI is
    explicit because the default one starts above Omega_MI at 2 kW."""
    power = 2e3
    beta2 = fibermodel.dispersion_derivatives(fiber, xenon, lambda_p_nm).beta2
    assert (beta2 < 0.0) == anomalous
    om_p = float(omega_from_lambda_nm(lambda_p_nm))
    gamma = phasematch.kerr_gamma(fiber, xenon, om_p)
    om_mi = np.sqrt(2.0 * gamma * power / abs(beta2))
    branches = phasematch.solve_phase_matching(
        fiber, xenon, om_p, detuning_window=(0.2 * om_mi, 3.0 * om_mi),
        pump_peak_power_W=power,
    )
    if anomalous:
        (b,) = branches
        assert b.delta_omega == pytest.approx(om_mi, rel=1e-2)
        assert b.pump_peak_power_W == power
    else:
        assert branches == []


def test_kerr_term_moves_the_branch(fiber, xenon, branch):
    shifted = phasematch.solve_phase_matching(
        fiber, xenon, branch.omega_p, pump_peak_power_W=1000.0
    )
    assert len(shifted) == 1
    shift_nm = shifted[0].lambda_s_nm - branch.lambda_s_nm
    assert 0.01 < abs(shift_nm) < 1.0


def test_branch_ordering_validation():
    with pytest.raises(ValidationError, match="ordering"):
        phasematch.PhaseMatchBranch(
            omega_p=2.0, omega_s=1.0, omega_i=1.0,
            band_p="I", band_s="I", band_i="I",
            beta1_p=0.0, beta1_s=0.0, beta1_i=0.0, residual_rad_m=0.0,
        )
    with pytest.raises(ValidationError, match="ordering"):
        phasematch.PhaseMatchBranch(
            omega_p=1.0, omega_s=2.0, omega_i=0.0,
            band_p="I", band_s="I", band_i="I",
            beta1_p=0.0, beta1_s=0.0, beta1_i=0.0, residual_rad_m=0.0,
        )


def test_density_map_rerun_gives_the_same_records(fiber, xenon):
    """A rerun of the same map gives the same records."""
    kwargs = dict(
        pump_range_nm=(1020.0, 1040.0), steps=5, grid_points=1200
    )
    first = phasematch.density_map(fiber, xenon, **kwargs)
    repeat = phasematch.density_map(fiber, xenon, **kwargs)
    assert len(first) >= 5  # every pump here phase-matches at least once
    assert first == repeat


def test_density_map_gaps_over_divergence_zone(fiber, xenon):
    """Pumps inside a resonance exclusion zone drop out as gaps; the map
    itself must not abort."""
    lam2 = fibermodel.band_structure(fiber, xenon).resonances_nm[1]
    with pytest.warns(UserWarning, match="is a gap: .* wall resonance"):
        records = phasematch.density_map(
            fiber, xenon, pump_range_nm=(660.0, 672.0), steps=7, grid_points=1200
        )
    pumps_seen = {r.lambda_p_nm for r in records}
    zone = (lam2 * 0.995, lam2 * 1.005)
    assert all(not zone[0] <= p <= zone[1] for p in pumps_seen)
    # a branch carries omega_p, so its lambda_p_nm is the pump wavelength
    # after one round trip through frequency
    pumps = [660.0, 662.0, 664.0, 666.0, 668.0, 670.0, 672.0]
    assert pumps_seen <= {
        float(fibermodel.lambda_nm_from_omega(fibermodel.omega_from_lambda_nm(x)))
        for x in pumps
    }


def _map_recipe(name):
    cfg = cli.resolve_config(name)
    dm = cfg.density_map
    pumps = [
        float(omega_from_lambda_nm(lam))
        for lam in np.linspace(dm.pump_min_nm, dm.pump_max_nm, dm.pump_steps).tolist()
    ]
    return cfg, sweeps.fiber_from_config(cfg), sweeps.gas_from_config(cfg), pumps


def _per_pump(fiber, gas, pumps, solve):
    """The density map the slow way: one solve_phase_matching per pump, a
    failed pump a gap."""
    branches = []
    for omega_p in pumps:
        try:
            branches += phasematch.solve_phase_matching(fiber, gas, omega_p, **solve)
        except (RangeError, NumericalError):
            continue
    return branches


# map_t600 has a gap pump at 1250 nm, which _per_pump skips as well
@pytest.mark.filterwarnings("ignore:pump at .* is a gap:UserWarning")
@pytest.mark.parametrize("name", ["map_t300", "map_t600"])
@pytest.mark.parametrize("kerr", [False, True], ids=["P0", "P2e4-window"])
def test_density_map_rows_equal_single_pump_solves(name, kerr):
    """Bisecting every pump's brackets in one loop gives each pump exactly
    the branches, floats bit for bit, that a single-pump solve gives it."""
    cfg, fiber, gas, pumps = _map_recipe(name)
    solve = sweeps.solve_settings(cfg)
    if kerr:
        solve.update(pump_peak_power_W=2e4, detuning_window=(20e12, 900e12))
    dm = cfg.density_map
    rows = phasematch.density_map(
        fiber, gas, (dm.pump_min_nm, dm.pump_max_nm), dm.pump_steps, **solve
    )
    assert rows
    assert rows == _per_pump(fiber, gas, pumps, solve)


@pytest.mark.parametrize("fault", ["stalled bracket", "no stencil room"])
def test_density_map_failing_pump_is_a_gap(fiber, xenon, monkeypatch, fault):
    """A pump whose solve fails drops out of the map alone; its neighbours
    keep the branches a single-pump solve gives them.  The stall comes from
    a mismatch that steps across zero at the middle pump only (as in
    test_grid_zero_stall_and_close_roots); the stencil failure from
    dispersion_derivatives refusing any array that holds that pump."""
    pumps = [float(omega_from_lambda_nm(lam)) for lam in (1020.0, 1030.0, 1040.0)]
    bad = pumps[1]
    if fault == "stalled bracket":
        def mismatch(fiber, gas, om_p, om_s, om_i, *args, **kw):
            d = om_s - om_p
            return np.where(
                om_p == bad, np.where(d < 170.5e12, -1.0, 1.0), (d - 150.3e12) * 1e-12
            )

        monkeypatch.setattr(phasematch, "delta_k", mismatch)
        solve = dict(detuning_window=(100e12, 200e12), grid_points=101)
    else:
        derivatives = fibermodel.dispersion_derivatives
        lam_bad = float(lambda_nm_from_omega(bad))

        def no_room(fiber, gas, lambda_nm):
            if lam_bad in np.asarray(lambda_nm):
                raise NumericalError(f"no room for a dispersion stencil at {lam_bad}")
            return derivatives(fiber, gas, lambda_nm)

        monkeypatch.setattr(fibermodel, "dispersion_derivatives", no_room)
        solve = dict(grid_points=1200)

    with pytest.raises(NumericalError):
        phasematch.solve_phase_matching(fiber, xenon, bad, **solve)
    with pytest.warns(UserWarning, match="^pump at 1030 nm is a gap: ") as caught:
        rows = phasematch.density_map(fiber, xenon, (1020.0, 1040.0), 3, **solve)
    assert len(caught) == 1
    assert {b.omega_p for b in rows} == {pumps[0], pumps[2]}
    assert rows == _per_pump(fiber, xenon, pumps, solve)


def test_density_map_edge_pump_is_a_gap(fiber, xenon, monkeypatch):
    """A pump so close to the model-window edge that the default detuning
    window is empty is a gap: here the 3199 nm pump, 1 nm below the
    3200 nm edge.  The pump before it keeps its branches and its
    close-root warning, and a single-pump solve refuses the edge pump
    with a RangeError that names it and the window."""
    near = (35.01e12, 35.05e12)

    def mismatch(fiber, gas, om_p, om_s, om_i, *args, **kw):
        return (om_s - om_p - near[0]) * (om_s - om_p - near[1]) * 1e-24

    monkeypatch.setattr(phasematch, "delta_k", mismatch)
    pumps = [float(omega_from_lambda_nm(lam)) for lam in (3000.0, 3199.0)]
    with pytest.warns(UserWarning, match="closer than two grid cells"), \
            pytest.warns(UserWarning, match="^pump at 3199 nm is a gap: "):
        rows = phasematch.density_map(
            fiber, xenon, (3000.0, 3199.0), 2, grid_points=101
        )
    assert len(rows) == 2 and {b.omega_p for b in rows} == {pumps[0]}
    window = r"pump at 3199 nm: .* model window \[250, 3200\] nm"
    with pytest.raises(RangeError, match=window):
        phasematch.solve_phase_matching(fiber, xenon, pumps[1], grid_points=101)


def test_density_map_edge_pumps_are_gaps_on_map_t600():
    """On the map_t600 fiber, pumps from 3038 nm up have no default
    detuning window; a map that runs up to 3100 nm keeps every row a
    single-pump solve gives, and the pumps past that edge are gaps, each
    named in one warning."""
    _, fiber, gas, _ = _map_recipe("map_t600")
    pumps = omega_from_lambda_nm(np.linspace(1500.0, 3100.0, 41)).tolist()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = phasematch.density_map(fiber, gas, (1500.0, 3100.0), 41)
    assert [str(w.message).split(": it is ")[0] for w in caught] == [
        f"pump at {lam} nm is a gap: no detuning window for the pump at {lam} nm"
        for lam in (3060, 3100)
    ]
    assert rows and rows == _per_pump(fiber, gas, pumps, {})
    with pytest.raises(RangeError, match="3100 nm"):
        phasematch.solve_phase_matching(fiber, gas, pumps[-1])


def test_density_map_bisects_every_pump_in_one_loop(monkeypatch):
    """kappa is evaluated once per pump for its grid, once per bisection
    step for all pumps together, and once per dispersion_derivatives call;
    bisecting pump by pump would take about ten evaluations per pump."""
    cfg, fiber, gas, pumps = _map_recipe("map_t600")
    calls = dict.fromkeys(("reduced_kappa", "dispersion_derivatives"), 0)
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(fibermodel, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(fibermodel, name, counted)
    with pytest.warns(UserWarning, match="pump at 1250 nm is a gap"):
        assert sweeps.density_records(cfg, fiber, gas)
    assert calls["reduced_kappa"] <= (
        len(pumps) + 200 + calls["dispersion_derivatives"]
    ), calls


def test_density_map_validation(fiber, xenon):
    with pytest.raises(ValidationError, match="pump range"):
        phasematch.density_map(fiber, xenon, (1040.0, 1020.0), steps=3)
    with pytest.raises(ValidationError, match="steps"):
        phasematch.density_map(fiber, xenon, (1020.0, 1040.0), steps=1)


def test_density_csv_layout(fiber, xenon):
    records = phasematch.density_map(
        fiber, xenon, pump_range_nm=(1025.0, 1035.0), steps=2,
        grid_points=800,
    )
    assert records, "expected at least one branch for the CSV check"
    text = phasematch.density_map_to_csv(records)
    lines = text.splitlines()
    assert lines[0] == "lambda_p_nm,delta_omega_THz,theta_deg,band_s,band_i"
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(records[0].lambda_p_nm, rel=1e-8)
    assert float(first[1]) == pytest.approx(
        records[0].delta_omega / 1e12, rel=1e-8
    )
    assert first[3] == records[0].band_s and first[4] == records[0].band_i


def test_only_fibermodel_and_phasematch_evaluate_kappa():
    """The mismatch has one home: phasematch.delta_k.  No other module of
    the package calls reduced_kappa, so no second mismatch can be formed
    from it."""
    pkg = pathlib.Path(phasematch.__file__).parent
    callers = set()
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "attr", getattr(f, "id", None)) == "reduced_kappa":
                    callers.add(path.stem)
    assert callers <= {"fibermodel", "phasematch"}, callers
    assert "phasematch" in callers
