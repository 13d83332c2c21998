"""Seeded-scan simulation and JSI reconstruction."""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.constants import hbar

from hcfwm import jsa, schmidt, tomography
from hcfwm.errors import RangeError, ValidationError
from hcfwm.tomography import NoiseModel, SetScan

from _oracles import per_slice_set_scan


def normalized_truth(grid):
    intensity = jsa.jsi(grid)
    return intensity / intensity.sum()


# ----------------------------------------------------------- roundtrip


def test_noiseless_roundtrip_is_exact(grid128):
    scan = tomography.simulate_set_scan(
        grid128, grid128.omega_i, pump_power_W=1.0, seed_power_W=1e-3
    )
    rec = tomography.reconstruct_jsi(scan)
    assert rec.values.shape == (128, 128)
    assert rec.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(rec.values - normalized_truth(grid128))) < 1e-12
    assert np.array_equal(rec.omega_s, grid128.omega_s)
    assert np.array_equal(rec.omega_i, grid128.omega_i)


def test_descending_sweep_reconstructs_identically(grid128):
    up = tomography.reconstruct_jsi(
        tomography.simulate_set_scan(grid128, grid128.omega_i, 1.0, 1e-3)
    )
    down = tomography.reconstruct_jsi(
        tomography.simulate_set_scan(
            grid128, grid128.omega_i[::-1].copy(), 1.0, 1e-3
        )
    )
    assert np.all(np.diff(down.omega_i) > 0.0)
    assert np.max(np.abs(up.values - down.values)) < 1e-12


def test_reconstruction_removes_seed_power_profile(grid128):
    rng = np.random.default_rng(11)
    ragged = rng.uniform(0.5e-3, 2e-3, grid128.omega_i.size)
    rec_ragged = tomography.reconstruct_jsi(
        tomography.simulate_set_scan(
            grid128, grid128.omega_i, 1.0, ragged
        )
    )
    rec_flat = tomography.reconstruct_jsi(
        tomography.simulate_set_scan(grid128, grid128.omega_i, 1.0, 1e-3)
    )
    assert np.max(np.abs(rec_ragged.values - rec_flat.values)) < 1e-12


def test_schmidt_number_survives_the_roundtrip(grid128):
    scan = tomography.simulate_set_scan(grid128, grid128.omega_i, 2.0, 1e-3)
    rec = tomography.reconstruct_jsi(scan)
    k_rec = schmidt.schmidt_decompose(rec.values).K
    k_truth = schmidt.schmidt_decompose(grid128, flat_phase=True).K
    assert abs(k_rec - k_truth) < 1e-6


# ------------------------------------------------------- forward model


def test_slice_scaling_in_pump_and_seed(grid128):
    axis = grid128.omega_i[::16]
    base = tomography.simulate_set_scan(grid128, axis, 1.0, 1e-3)
    double_seed = tomography.simulate_set_scan(grid128, axis, 1.0, 2e-3)
    double_pump = tomography.simulate_set_scan(grid128, axis, 2.0, 1e-3)
    assert np.allclose(double_seed.slices, 2.0 * base.slices, rtol=1e-12)
    assert np.allclose(double_pump.slices, 4.0 * base.slices, rtol=1e-12)
    half_duty = tomography.simulate_set_scan(
        grid128, axis, 1.0, 1e-3, duty_cycle=0.5
    )
    assert np.allclose(half_duty.slices, 0.5 * base.slices, rtol=1e-12)


def test_seed_between_grid_columns_interpolates_linearly(grid128):
    intensity = jsa.jsi(grid128)
    k = 40
    w = 0.25
    omega = float(
        (1.0 - w) * grid128.omega_i[k] + w * grid128.omega_i[k + 1]
    )
    scan = tomography.simulate_set_scan(
        grid128, [omega, grid128.omega_i[-1]], 1.0, 1e-3
    )
    n_seed = scan.seed_photon_number()[0]
    manual = (1.0 - w) * intensity[:, k] + w * intensity[:, k + 1]
    assert np.allclose(scan.slices[0] / n_seed, manual, rtol=1e-9)


@pytest.mark.parametrize(
    "noise",
    [NoiseModel(), NoiseModel(rel_sigma=0.3, dark_floor=2e-9, seed=(5,))],
    ids=["noiseless", "noisy"],
)
def test_scan_equals_the_per_slice_reference(grid128, noise):
    """Seeds on the first, an inner and the last axis point and between
    columns, descending: bit for bit the one-slice-at-a-time scan."""
    axis = grid128.omega_i
    seeds = np.array([
        axis[-1], 0.7 * axis[90] + 0.3 * axis[91], axis[40],
        0.25 * axis[10] + 0.75 * axis[11], axis[0],
    ])
    powers = np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
    scan = tomography.simulate_set_scan(grid128, seeds, 2.0, powers, noise=noise)
    scale = 2.0**2 * scan.seed_photon_number()
    assert np.array_equal(
        scan.slices,
        per_slice_set_scan(jsa.jsi(grid128), axis, seeds, scale, noise),
    )


def test_seed_photon_number_uses_sweep_center(grid128):
    scan = tomography.simulate_set_scan(
        grid128, grid128.omega_i[::16], 1.0, 1e-3, duty_cycle=0.25
    )
    mid = 0.5 * (scan.omega_i[0] + scan.omega_i[-1])
    n = scan.seed_photon_number()
    assert np.all(n == n[0])  # uniform powers, one conversion constant
    assert n[0] == pytest.approx(1e-3 * 0.25 / (hbar * mid), rel=1e-14)


def test_sweep_outside_truth_axis_raises(grid128):
    below = grid128.omega_i[0] - 1e12
    with pytest.raises(RangeError, match="idler axis"):
        tomography.simulate_set_scan(grid128, [below], 1.0, 1e-3)
    above = grid128.omega_i[-1] + 1e12
    with pytest.raises(RangeError, match="idler axis"):
        tomography.simulate_set_scan(
            grid128, [grid128.omega_i[0], above], 1.0, 1e-3
        )


def test_scan_validation(grid128):
    axis = grid128.omega_i[:4]
    slices = np.ones((4, grid128.omega_s.size))
    good = dict(
        omega_s=grid128.omega_s, slices=slices,
        seed_power_W=np.full(4, 1e-3),
    )
    with pytest.raises(ValidationError, match="monotone"):
        SetScan(omega_i=axis[[0, 2, 1, 3]], **good)
    with pytest.raises(ValidationError, match="profile"):
        SetScan(omega_i=axis, **{**good, "seed_power_W": np.full(3, 1e-3)})
    with pytest.raises(ValidationError, match="> 0 W"):
        SetScan(omega_i=axis, **{**good, "seed_power_W": np.zeros(4)})
    with pytest.raises(ValidationError, match="duty"):
        SetScan(omega_i=axis, **good, duty_cycle=1.5)
    with pytest.raises(ValidationError, match="shape"):
        SetScan(omega_i=axis, **{**good, "slices": slices[:, :-1]})
    with pytest.raises(ValidationError, match="non-empty 1-D axis"):
        SetScan(omega_i=[], **{**good, "slices": slices[:0], "seed_power_W": []})
    with pytest.raises(ValidationError, match="at least one step"):
        tomography.simulate_set_scan(grid128, [], 1.0, 1e-3)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_scan_refuses_non_finite_slices_and_axes(grid128, bad):
    """A non-finite cell or axis entry would turn every reconstructed
    cell into NaN; the scan refuses it when it is built."""
    axis = grid128.omega_i[:4]
    slices = np.ones((4, grid128.omega_s.size))
    good = dict(
        omega_i=axis, omega_s=grid128.omega_s, slices=slices,
        seed_power_W=np.full(4, 1e-3),
    )
    cell = slices.copy()
    cell[2, 7] = bad
    with pytest.raises(ValidationError, match="slices must be finite"):
        SetScan(**{**good, "slices": cell})
    for name in ("omega_s", "omega_i"):
        entry = good[name].copy()
        entry[1] = bad
        with pytest.raises(ValidationError, match="axes must be finite"):
            SetScan(**{**good, name: entry})


@pytest.mark.parametrize(
    "name, axis", [("omega_i", [-2e15, -1e15]), ("omega_i", [-1e15, 1e15]),
                   ("omega_s", "negated")],
)
def test_scan_refuses_non_positive_frequencies(grid128, name, axis):
    """Every frequency of the library is > 0 rad/s; a scan axis at or
    below 0 is refused when the scan is built, not later as a seed power
    or count problem."""
    good = dict(
        omega_i=grid128.omega_i[:2], omega_s=grid128.omega_s,
        slices=np.ones((2, grid128.omega_s.size)), seed_power_W=np.full(2, 1e-3),
    )
    axis = -good[name] if axis == "negated" else np.array(axis)
    with pytest.raises(ValidationError, match="axes must be finite and > 0 rad/s"):
        SetScan(**{**good, name: axis})


def test_reconstruction_refuses_what_it_cannot_normalize(grid128):
    """A scan without counts, and one whose seed photon numbers are 0:
    half of a 5e-324 W seed underflows to 0 photons."""
    good = dict(
        omega_i=grid128.omega_i[:4], omega_s=grid128.omega_s,
        slices=np.ones((4, grid128.omega_s.size)), seed_power_W=np.full(4, 1e-3),
    )
    with pytest.raises(ValidationError, match="no counts"):
        tomography.reconstruct_jsi(SetScan(**{**good, "slices": 0.0 * good["slices"]}))
    tiny = SetScan(**{**good, "seed_power_W": np.full(4, 5e-324)}, duty_cycle=0.5)
    with pytest.raises(ValidationError, match="seed photon numbers must be > 0"):
        tomography.reconstruct_jsi(tiny)


def test_photon_energy_underflow_is_refused():
    """hbar * omega_ref underflows to 0 on a 1e-300 rad/s seed axis, so the
    seed photon numbers would be infinite: the reconstruction refuses the
    scan with a ValidationError, not a divide-by-zero warning."""
    scan = SetScan(
        omega_i=[1e-300, 2e-300], omega_s=[1.0, 2.0],
        slices=np.ones((2, 2)), seed_power_W=[1e-3, 1e-3],
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="seed photon numbers must be finite"):
            tomography.reconstruct_jsi(scan)


def test_reconstruction_needs_two_slices(grid128):
    scan = tomography.simulate_set_scan(
        grid128, [float(grid128.omega_i[5])], 1.0, 1e-3
    )
    with pytest.raises(ValidationError, match="at least 2 slices"):
        tomography.reconstruct_jsi(scan)


# --------------------------------------------------------------- noise


def test_noise_model_validation():
    with pytest.raises(ValidationError, match="rel_sigma"):
        NoiseModel(rel_sigma=-0.1)
    with pytest.raises(ValidationError, match="dark_floor"):
        NoiseModel(dark_floor=-1.0)
    assert NoiseModel(seed=7).seed == (7,)
    for seed in (-5, (3, -1)):
        with pytest.raises(ValidationError, match="seed entries must be >= 0"):
            NoiseModel(rel_sigma=0.01, seed=seed)


def test_non_finite_noise_and_scan_inputs_are_refused(grid128):
    axis = grid128.omega_i[:4]
    for bad in (float("nan"), float("inf")):
        for name in ("rel_sigma", "dark_floor"):
            with pytest.raises(ValidationError, match=name):
                NoiseModel(**{name: bad})
        with pytest.raises(ValidationError, match="pump_power_W"):
            tomography.simulate_set_scan(grid128, axis, bad, 1e-3)
        with pytest.raises(ValidationError, match="seed powers"):
            tomography.simulate_set_scan(grid128, axis, 1.0, bad)
    with pytest.raises(RangeError, match="seed sweep"):
        tomography.simulate_set_scan(grid128, [float("nan")], 1.0, 1e-3)


def test_noise_is_reproducible_and_follows_its_seed(grid128):
    noise = NoiseModel(rel_sigma=0.01, dark_floor=2e-9, seed=(42,))
    kwargs = dict(
        truth=grid128, seed_omega_i=grid128.omega_i[::8],
        pump_power_W=1.0, seed_power_W=1e-3, noise=noise,
    )
    first = tomography.simulate_set_scan(**kwargs)
    repeat = tomography.simulate_set_scan(**kwargs)
    assert np.array_equal(first.slices, repeat.slices)
    other = tomography.simulate_set_scan(
        **{**kwargs, "noise": NoiseModel(0.01, 2e-9, (43,))}
    )
    assert not np.array_equal(first.slices, other.slices)


def test_noise_clips_at_zero_before_dark_floor(grid128):
    # counts peak near 8e-11 here, so the floors are sized to them
    axis = grid128.omega_i[::8]
    wild = tomography.simulate_set_scan(
        grid128, axis, 1.0, 1e-3,
        noise=NoiseModel(rel_sigma=50.0, seed=(1,)),
    )
    assert np.all(wild.slices >= 0.0)
    assert np.any(wild.slices == 0.0)  # clipped draws land exactly at zero
    dark = tomography.simulate_set_scan(
        grid128, axis, 1.0, 1e-3,
        noise=NoiseModel(rel_sigma=50.0, dark_floor=3.5e-9, seed=(1,)),
    )
    # same draws, shifted by the constant floor
    assert np.allclose(dark.slices, wild.slices + 3.5e-9, rtol=0.0, atol=1e-18)
    assert np.min(dark.slices) == pytest.approx(3.5e-9, abs=1e-21)


def test_dark_floor_adds_exactly(grid128):
    axis = grid128.omega_i[::8]
    clean = tomography.simulate_set_scan(grid128, axis, 1.0, 1e-3)
    dark = tomography.simulate_set_scan(
        grid128, axis, 1.0, 1e-3, noise=NoiseModel(dark_floor=7.25e-9),
    )
    assert np.array_equal(dark.slices, clean.slices + 7.25e-9)


def test_reconstruction_error_tracks_noise_level(grid128):
    """Mean relative L2 reconstruction error under 1% multiplicative noise
    must sit near 1%: systematically larger means the pipeline adds error,
    smaller means it smooths the data."""
    truth = normalized_truth(grid128)
    errors = []
    for draw in range(100):
        scan = tomography.simulate_set_scan(
            grid128, grid128.omega_i, 1.0, 1e-3,
            noise=NoiseModel(rel_sigma=0.01, seed=(1234, draw)),
        )
        rec = tomography.reconstruct_jsi(scan)
        errors.append(
            np.linalg.norm(rec.values - truth) / np.linalg.norm(truth)
        )
    mean_err = float(np.mean(errors))
    assert 0.005 < mean_err < 0.02


# ------------------------------------------------------- power scaling


def test_power_scaling_noiseless_exponents(grid128):
    powers = np.geomspace(1e-4, 1e-2, 5)
    scaling = tomography.power_scaling_check(grid128, powers, powers)
    assert scaling.seed_exponent == pytest.approx(1.0, abs=1e-9)
    assert scaling.pump_exponent == pytest.approx(2.0, abs=1e-9)
    assert scaling.r_squared_seed > 1.0 - 1e-12
    assert scaling.r_squared_pump > 1.0 - 1e-12


def test_power_scaling_with_noise_and_dark(grid128):
    # dark floor sized to the raw counts (~1e-21..1e-17 here) so its
    # subtraction leaves the signal representable
    noise = NoiseModel(rel_sigma=0.01, dark_floor=1e-18, seed=(9,))
    powers = np.geomspace(1e-4, 1e-2, 7)
    scaling = tomography.power_scaling_check(
        grid128, powers, powers, noise=noise
    )
    assert scaling.seed_exponent == pytest.approx(1.0, abs=0.02)
    assert scaling.pump_exponent == pytest.approx(2.0, abs=0.02)
    assert scaling.r_squared_seed > 0.999
    assert scaling.r_squared_pump > 0.999


def test_power_scaling_validation(grid128):
    four = np.geomspace(1e-4, 1e-2, 4)
    five = np.geomspace(1e-4, 1e-2, 5)
    with pytest.raises(ValidationError, match="at least 5"):
        tomography.power_scaling_check(grid128, four, five)
    with pytest.raises(ValidationError, match="> 0 W"):
        tomography.power_scaling_check(grid128, five, five * 0.0)
    with pytest.raises(ValidationError, match="> 0 W"):
        tomography.power_scaling_check(grid128, five, np.append(five, np.nan))


def test_power_scaling_needs_distinct_powers(grid128):
    """Five equal powers leave the log-log slope undetermined."""
    five = np.geomspace(1e-4, 1e-2, 5)
    same = np.full(5, 1e-9)
    with pytest.raises(ValidationError, match="at least 5 distinct points, got 1"):
        tomography.power_scaling_check(grid128, same, five)
    repeated = np.array([1e-4, 1e-4, 2e-4, 3e-4, 4e-4])
    with pytest.raises(ValidationError, match="pump .* 5 distinct points, got 4"):
        tomography.power_scaling_check(grid128, five, repeated)


def _polyfit_line(x, y):
    """The least-squares line by numpy's LAPACK fit, with the same r²."""
    slope, intercept = np.polyfit(x, y, 1)
    ss_tot = np.sum((y - y.mean()) ** 2)
    ss_res = np.sum((y - (slope * x + intercept)) ** 2)
    return slope, intercept, 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0


@pytest.mark.parametrize("case", ["noisy", "exact", "two points", "log-log"])
def test_line_fit_matches_polyfit(case):
    x = np.linspace(2.8, 3.9, 23)
    y = 1.9e3 - 5.3 * x
    if case == "noisy":
        y = y + np.random.default_rng(5).normal(0.0, 0.4, x.size)
    elif case == "two points":
        x, y = x[[0, -1]], y[[0, -1]]
    elif case == "log-log":
        x = np.log(np.geomspace(1e-4, 1e-2, 7))
        y = 2.0 * x - 41.0
    slope, intercept, r2 = tomography.line_fit(x, y)
    want = _polyfit_line(x, y)
    assert slope == pytest.approx(want[0], rel=1e-12)
    assert intercept == pytest.approx(want[1], rel=1e-12)
    assert r2 == pytest.approx(want[2], rel=1e-12)
    if case != "noisy":
        assert r2 == pytest.approx(1.0, abs=1e-12)
    else:
        assert 0.9 < r2 < 1.0


def test_line_fit_flat_and_degenerate_inputs():
    slope, intercept, r2 = tomography.line_fit([1.0, 2.0, 4.0], [3.0, 3.0, 3.0])
    assert (slope, intercept, r2) == (0.0, 3.0, 1.0)
    with pytest.raises(ValidationError, match="2 distinct x values"):
        tomography.line_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError, match="2 distinct x values"):
        tomography.line_fit([1.0, np.nan], [1.0, 2.0])


# ----------------------------------------------------------------- IO


def test_scan_csv_layout(grid128):
    scan = tomography.simulate_set_scan(
        grid128, grid128.omega_i[:2], 1.0, [1e-3, 2e-3]
    )
    text = tomography.set_scan_to_csv(scan)
    lines = text.splitlines()
    assert lines[0] == "seed_lambda_nm,signal_lambda_nm,counts,seed_power_W"
    assert len(lines) == 1 + 2 * grid128.omega_s.size
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(
        float(scan.lambda_i_nm[0]), rel=1e-8
    )
    assert float(first[1]) == pytest.approx(
        float(scan.lambda_s_nm[0]), rel=1e-8
    )
    assert float(first[3]) == pytest.approx(1e-3, rel=1e-8)
    # second block switches to the second seed step and power
    second = lines[1 + grid128.omega_s.size].split(",")
    assert float(second[3]) == pytest.approx(2e-3, rel=1e-8)


def test_scan_csv_holds_no_copy_of_the_table(grid128, tmp_path):
    """The four columns go to the writer as blocks laid side by side a
    chunk at a time: beyond its three derived columns (seed and signal
    wavelengths, seed power), writing holds one chunk's working set, under
    the 2.5 MiB of a grid CSV, where a stacked table would add 4 MiB."""
    seeds = np.linspace(grid128.omega_i[0], grid128.omega_i[-1], 1024)
    scan = tomography.simulate_set_scan(grid128, seeds, 1.0, 1e-3)
    path = tmp_path / "scan.csv"
    tracemalloc.start()
    try:
        tomography.set_scan_to_csv(scan, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 3 * scan.slices.nbytes < 2.5 * 2**20
    assert path.read_text() == tomography.set_scan_to_csv(scan)


def test_scan_counts_beyond_the_float_range_are_refused(grid128):
    """A pump power whose square overflows is a RangeError that names it,
    not an OverflowError."""
    seeds = grid128.omega_i[:2]
    with pytest.raises(RangeError, match="pump_power_W = 1e[+]300 W"):
        tomography.simulate_set_scan(grid128, seeds, 1e300, 1e-3)
    with pytest.raises(RangeError, match="beyond the float range"):
        tomography.simulate_set_scan(grid128, seeds, 1e150, 1e300)


def test_reconstruction_csv_layout(grid128):
    rec = tomography.reconstruct_jsi(
        tomography.simulate_set_scan(grid128, grid128.omega_i, 1.0, 1e-3)
    )
    lines = tomography.reconstruction_to_csv(rec).splitlines()
    assert lines[0].split(",")[0] == "0"
    assert len(lines) == 1 + rec.omega_s.size
