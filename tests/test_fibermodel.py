"""Tube-model dispersion: resonances, bands, derivatives, divergence zones."""

from __future__ import annotations

import math
from importlib.resources import files as resource_files

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import jn_zeros

from hcfwm import fibermodel, gasmedia, tomography
from hcfwm.errors import (
    DivergenceZoneError,
    NumericalError,
    RangeError,
    ValidationError,
)

from _oracles import capillary_delta_eff

# frozen regression values for the reference fiber (R_eff 22 um, t 630 nm)
VACUUM_RESONANCES_NM = (1317.2899469788158, 666.790835205989, 449.9856380633246)
XENON_34_RESONANCES_NM = (1314.7649827914972, 665.5223451924172, 449.1405519135065)
NEFF_VACUUM_NO_COT_1030 = 0.9998394514036335
ZDW_XENON_34_BAND_I_NM = 1588.0716635930262
ZDW_XENON_34_BAND_II_NM = 835.3384652130806
BETA1_XENON_34_1030 = 3.343570955435662e-09
BETA2_XENON_34_1030 = -8.272111617054772e-28


def test_resonance_goldens_vacuum(fiber, vacuum):
    structure = fibermodel.band_structure(fiber, vacuum)
    # the three longest resonances, the ones inside 400-2000 nm
    assert structure.resonances_nm[:3] == pytest.approx(
        VACUUM_RESONANCES_NM, rel=1e-9
    )
    assert structure.resonances_nm[3] < 400.0


def test_resonances_satisfy_their_defining_equation(fiber, vacuum):
    """lambda_j must solve lambda = (2 t / j) sqrt(n_si^2 - n_gas^2)."""
    structure = fibermodel.band_structure(fiber, vacuum)
    si = gasmedia.get_model("silica")
    for j, lam in enumerate(structure.resonances_nm[:4], start=1):
        n_si2 = 1.0 + float(si.n_squared_minus_one(lam, check=False))
        rhs = (2.0 * fiber.t_nm / j) * np.sqrt(n_si2 - 1.0)
        assert lam == pytest.approx(rhs, abs=1e-6)


def test_gas_filling_shifts_resonances_down(fiber, xenon, vacuum):
    xe = fibermodel.band_structure(fiber, xenon).resonances_nm
    assert xe[:3] == pytest.approx(XENON_34_RESONANCES_NM, rel=1e-9)
    vac = fibermodel.band_structure(fiber, vacuum).resonances_nm
    # higher core index narrows the index step across the wall
    assert all(x < v for x, v in zip(xe[:3], VACUUM_RESONANCES_NM))
    assert all(x < v for x, v in zip(xe, vac))


def test_band_labels_and_edges(fiber, vacuum):
    structure = fibermodel.band_structure(fiber, vacuum)
    labels = [b.label for b in structure.bands]
    assert labels[:4] == ["I", "II", "III", "IV"]
    bands = {b.label: b for b in structure.bands}
    band_i = bands["I"]
    assert band_i.lo_nm == pytest.approx(VACUUM_RESONANCES_NM[0], rel=1e-9)
    assert band_i.hi_nm == structure.window_nm[1]
    band_ii = bands["II"]
    assert band_ii.lo_nm == pytest.approx(VACUUM_RESONANCES_NM[1], rel=1e-9)
    assert band_ii.hi_nm == pytest.approx(VACUUM_RESONANCES_NM[0], rel=1e-9)


def test_band_index_and_band_of(fiber, xenon):
    structure = fibermodel.band_structure(fiber, xenon)
    assert structure.band_index([1500.0, 1030.0, 500.0]).tolist() == [1, 2, 3]
    structure.require_bands(1030.0)
    with pytest.raises(DivergenceZoneError):
        structure.require_bands(XENON_34_RESONANCES_NM[0])


def test_exclusion_zone_half_percent(fiber, xenon):
    structure = fibermodel.band_structure(fiber, xenon)
    lam1 = structure.resonances_nm[0]
    inside = lam1 * 1.004
    outside = lam1 * 1.006
    assert not bool(structure.in_band_mask(inside)[0])
    assert bool(structure.in_band_mask(outside)[0])
    with pytest.raises(DivergenceZoneError) as err:
        structure.require_bands(inside)
    assert err.value.lambda_j_nm == pytest.approx(lam1, rel=1e-12)
    with pytest.raises(RangeError, match="outside the model window"):
        structure.require_bands(5000.0)


def test_capillary_index_deficit(vacuum):
    """At the strut anti-resonance the wall term vanishes and the mode
    sits below the gas index by u^2 lambda^2 / (8 pi^2 R^2), the classic
    capillary deficit."""
    n_si2 = 1.0 + float(
        gasmedia.get_model("silica").n_squared_minus_one(1030.0)
    )
    # strut phase k0 t sqrt(n_si^2 - 1) = pi/2 at 1030 nm
    t_nm = 1030.0 / (4.0 * math.sqrt(n_si2 - 1.0))
    fiber = fibermodel.FiberModel(R_eff_um=22.0, t_nm=t_nm)
    n_eff = 1.0 + float(fibermodel.delta_eff(fiber, vacuum, 1030.0))
    assert n_eff == pytest.approx(NEFF_VACUUM_NO_COT_1030, rel=1e-12)
    u = fiber.u
    expected_deficit = (
        u**2 * (1030.0e-9) ** 2 / (8.0 * np.pi**2 * (fiber.R_eff_um * 1e-6) ** 2)
    )
    assert 1.0 - n_eff == pytest.approx(expected_deficit, rel=1e-9)


def test_cot_term_diverges_toward_resonance(fiber, xenon):
    structure = fibermodel.band_structure(fiber, xenon)
    lam1 = structure.resonances_nm[0]

    def cot_magnitude(offset: float) -> float:
        lam = lam1 * (1.0 + offset)
        full = fibermodel.delta_eff(fiber, xenon, lam, check=False)
        smooth = capillary_delta_eff(fiber, xenon, lam)
        return abs(float(full - smooth))

    offsets = (0.10, 0.05, 0.02, 0.01, 0.006, 0.001)
    mags = [cot_magnitude(o) for o in offsets]
    assert all(b > a for a, b in zip(mags, mags[1:]))
    assert mags[-1] / mags[0] > 50.0


def test_wavevector_consistency(fiber, xenon):
    lam = np.array([800.0, 1030.0, 1500.0])
    om = fibermodel.omega_from_lambda_nm(lam)
    k = fibermodel.dispersion_derivatives(fiber, xenon, lam).k
    kappa = fibermodel.reduced_kappa(fiber, xenon, om)
    c = 299792458.0
    assert np.allclose(k, om / c + kappa, rtol=0.0, atol=0.0)
    n_eff = 1.0 + fibermodel.delta_eff(
        fiber, xenon, fibermodel.lambda_nm_from_omega(om)
    )
    assert np.allclose(k, n_eff * om / c, rtol=1e-12)


def test_lambda_omega_roundtrip():
    lam = np.array([250.0, 1030.0, 3200.0])
    back = fibermodel.lambda_nm_from_omega(fibermodel.omega_from_lambda_nm(lam))
    assert np.allclose(back, lam, rtol=1e-14)


def test_dispersion_derivative_goldens(fiber, xenon):
    pt = fibermodel.dispersion_derivatives(fiber, xenon, 1030.0)
    assert pt.beta1 == pytest.approx(BETA1_XENON_34_1030, rel=1e-12)
    assert pt.beta2 == pytest.approx(BETA2_XENON_34_1030, rel=1e-9)
    # beta1 is within a part in 1e3 of n_eff / c (group vs phase index)
    n_eff = 1.0 + float(fibermodel.delta_eff(fiber, xenon, 1030.0))
    assert pt.beta1 == pytest.approx(n_eff / 299792458.0, rel=1e-3)


def test_beta1_smooth_across_neighbors(fiber, xenon):
    b = [
        fibermodel.dispersion_derivatives(fiber, xenon, lam).beta1
        for lam in (1029.0, 1030.0, 1031.0)
    ]
    # central value agrees with the average of its neighbors far better
    # than the neighbor spread itself: no stencil noise
    spread = abs(b[2] - b[0])
    assert abs(b[1] - 0.5 * (b[0] + b[2])) < 1e-2 * spread


def test_beta2_sign_structure(fiber, xenon):
    """Normal dispersion at short wavelengths, anomalous beyond the ZDW."""
    assert fibermodel.dispersion_derivatives(fiber, xenon, 780.0).beta2 > 0.0
    assert fibermodel.dispersion_derivatives(fiber, xenon, 1030.0).beta2 < 0.0
    assert fibermodel.dispersion_derivatives(fiber, xenon, 1500.0).beta2 > 0.0
    assert fibermodel.dispersion_derivatives(fiber, xenon, 1700.0).beta2 < 0.0


def test_find_zdw_goldens_and_residual(fiber, xenon):
    bands = {b.label: b for b in fibermodel.band_structure(fiber, xenon).bands}
    zdw_i = fibermodel.find_zdw(fiber, xenon, bands["I"])
    assert zdw_i == pytest.approx([ZDW_XENON_34_BAND_I_NM], rel=1e-9)
    zdw_ii = fibermodel.find_zdw(fiber, xenon, bands["II"])
    assert zdw_ii == pytest.approx([ZDW_XENON_34_BAND_II_NM], rel=1e-9)
    at_root = fibermodel.dispersion_derivatives(fiber, xenon, zdw_i[0]).beta2
    assert abs(at_root) < 1e-30


def test_stencil_error_against_exclusion_zone(fiber, xenon):
    structure = fibermodel.band_structure(fiber, xenon)
    lam1 = structure.resonances_nm[0]
    # legal wavelength, but the finite-difference stencil cannot fit
    # between it and the exclusion-zone edge
    lam = lam1 * 0.995 * (1.0 - 1e-6)
    structure.require_bands(lam)
    assert structure.band_index(lam).tolist() == [2]
    with pytest.raises(NumericalError, match="no room for a dispersion stencil"):
        fibermodel.dispersion_derivatives(fiber, xenon, lam)


def test_failed_procedures_raise_numerical_error(fiber, xenon, monkeypatch):
    """A stencil with no room and a resonance that does not converge are
    NumericalError itself (exit 2, a sweep gap), with these texts."""
    lam = fibermodel.band_structure(fiber, xenon).resonances_nm[0] * 0.995 * (
        1.0 - 1e-6
    )
    with pytest.raises(NumericalError) as got:
        fibermodel.dispersion_derivatives(fiber, xenon, lam)
    assert type(got.value) is NumericalError
    assert str(got.value) == (
        f"no room for a dispersion stencil at {lam:.6g} nm; a band edge or "
        "resonance exclusion zone is closer than 1.3e-05 (relative) in omega"
    )
    flip = iter([1.0, 1.1] * 60)
    monkeypatch.setattr(fibermodel, "_wall_index", lambda gas, lam_nm: next(flip))
    with pytest.raises(NumericalError) as got:
        fibermodel._solve_resonance(fiber, xenon, 1)
    assert type(got.value) is NumericalError
    assert str(got.value) == (
        "resonance j=1 did not converge to 1e-9 nm within 100 iterations "
        "(t = 630 nm, xenon at 3.4 bar)"
    )


def test_derivatives_refuse_divergence_zone(fiber, xenon):
    lam2 = fibermodel.band_structure(fiber, xenon).resonances_nm[1]
    with pytest.raises(DivergenceZoneError):
        fibermodel.dispersion_derivatives(fiber, xenon, lam2 * 1.001)
    with pytest.raises(DivergenceZoneError):
        fibermodel.delta_eff(fiber, xenon, lam2 * 1.001)


def _halved_stencil_wavelength(structure):
    """A band II wavelength whose full-size stencil reaches into the band I
    exclusion zone, but whose once-halved stencil fits."""
    lam = structure.resonances_nm[0] * 0.995 * (1.0 - 7e-5)
    om0 = float(fibermodel.omega_from_lambda_nm(lam))
    reach = fibermodel.lambda_nm_from_omega(
        om0 * (1.0 - np.array([1.0, 0.5]) * fibermodel.BETA2_REL_STEP)
    )
    assert structure.in_band_mask(reach).tolist() == [False, True]
    return lam


def test_dispersion_derivatives_array_is_per_element(fiber, xenon):
    """An array call gives bit for bit the k, beta1 and beta2 of one call
    per element, halved stencils included, and keeps the input shape."""
    structure = fibermodel.band_structure(fiber, xenon)
    halved = _halved_stencil_wavelength(structure)
    lam = np.array([[780.0, 1030.0, halved], [1500.0, 1700.0, 900.0]])
    got = fibermodel.dispersion_derivatives(fiber, xenon, lam)
    for field in ("lambda_nm", "k", "beta1", "beta2"):
        assert getattr(got, field).shape == lam.shape
    for index in np.ndindex(lam.shape):
        one = fibermodel.dispersion_derivatives(fiber, xenon, float(lam[index]))
        assert (got.k[index], got.beta1[index], got.beta2[index]) == (
            one.k, one.beta1, one.beta2
        )
        assert isinstance(one.beta2, float)

    # the halved element, formed by hand on the once-halved stencil
    om0 = float(fibermodel.omega_from_lambda_nm(halved))
    h1 = 0.5 * fibermodel.BETA1_REL_STEP * om0
    h2 = 0.5 * fibermodel.BETA2_REL_STEP * om0
    kap = fibermodel.reduced_kappa(
        fiber, xenon, np.array([om0 - h2, om0 - h1, om0, om0 + h1, om0 + h2]),
        check=False,
    )
    c = scipy.constants.c
    assert got.k[0, 2] == om0 / c + kap[2]
    assert got.beta1[0, 2] == 1.0 / c + (kap[3] - kap[1]) / (2.0 * h1)
    assert got.beta2[0, 2] == (kap[4] - 2.0 * kap[2] + kap[0]) / h2**2


def test_dispersion_derivatives_array_names_the_first_bad(fiber, xenon):
    structure = fibermodel.band_structure(fiber, xenon)
    lam1, lam2 = structure.resonances_nm[:2]
    no_room = (lam1 * 0.995 * (1.0 - 1e-6), lam1 * 0.995 * (1.0 - 2e-6))
    with pytest.raises(NumericalError, match="no room for a dispersion stencil") as got:
        fibermodel.dispersion_derivatives(
            fiber, xenon, np.array([1030.0, no_room[0], 900.0, no_room[1]])
        )
    assert f"at {no_room[0]:.6g} nm" in str(got.value)
    in_zone = (lam2 * 1.001, lam1 * 1.004)
    with pytest.raises(DivergenceZoneError) as got:
        fibermodel.dispersion_derivatives(
            fiber, xenon, np.array([1030.0, in_zone[0], in_zone[1], no_room[0]])
        )
    assert got.value.lambda_j_nm == lam2
    with pytest.raises(DivergenceZoneError) as expected:
        structure.require_bands(in_zone[0])
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("first_bad", ["window", "resonance"])
def test_delta_eff_reports_the_first_bad_wavelength(fiber, xenon, first_bad):
    """The whole array is checked at once; the error is the one
    require_bands gives for the first bad element alone, not for a later
    one."""
    structure = fibermodel.band_structure(fiber, xenon)
    outside = 5000.0
    in_zone = structure.resonances_nm[0] * 1.004
    bad, later = (outside, in_zone) if first_bad == "window" else (in_zone, outside)
    lam = np.array([1030.0, 1100.0, bad, 1050.0, later])
    with pytest.raises(RangeError) as got:
        fibermodel.delta_eff(fiber, xenon, lam)
    with pytest.raises(RangeError) as expected:
        structure.require_bands(bad)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)
    expected_type = RangeError if first_bad == "window" else DivergenceZoneError
    assert type(got.value) is expected_type


def test_delta_eff_check_leaves_values_alone(fiber, xenon):
    lam = np.linspace(700.0, 1250.0, 512)
    checked = fibermodel.delta_eff(fiber, xenon, lam)
    np.testing.assert_array_equal(
        checked, fibermodel.delta_eff(fiber, xenon, lam, check=False)
    )
    assert fibermodel.delta_eff(fiber, xenon, 700.0) == checked[0]


_WALLS = dict(
    log_t_nm=st.floats(math.log10(30.0), math.log10(60_000.0)),
    r_eff_um=st.floats(3.0, 60.0),
    species=st.sampled_from(["xenon", "argon", "vacuum"]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(**_WALLS, pressure_bar=st.floats(0.1, 20.0))
def test_every_allowed_wavelength_has_its_band(
    log_t_nm, r_eff_um, species, pressure_bar
):
    """Wherever in_band_mask holds, the band of that wavelength was built,
    so require_bands needs no band-existence check of its own.  Probed on
    a dense ladder over the window and just outside both edges of every
    exclusion zone, where the band intervals are narrowest."""
    fiber = fibermodel.FiberModel(R_eff_um=r_eff_um, t_nm=10.0**log_t_nm)
    gas = gasmedia.make_gas(species, pressure_bar)
    structure = fibermodel.band_structure(fiber, gas)
    lo, hi = structure.window_nm
    res = np.asarray(structure.resonances_nm)
    edge = fibermodel.EXCLUSION_FRACTION * (1.0 + 1e-12)
    lam = np.concatenate((
        np.linspace(lo, hi, 4001)[1:-1], res * (1.0 - edge), res * (1.0 + edge)
    ))
    ok = structure.in_band_mask(lam)
    assert ok.any()
    for j in np.unique(structure.band_index(lam[ok])).tolist():
        assert fibermodel.roman(j) in {b.label for b in structure.bands}
    structure.require_bands(lam[ok])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_WALLS, pressure_bar=st.sampled_from([0.0, 1.0, 4.0, 30.0]))
def test_every_wall_has_a_band_structure(log_t_nm, r_eff_um, species, pressure_bar):
    """From 30 nm to 60 um, with no error and no warning (tier-1 turns
    warnings into errors).  Every band keeps room to evaluate, and the
    labels run on from the first resonance solved."""
    fiber = fibermodel.FiberModel(R_eff_um=r_eff_um, t_nm=10.0**log_t_nm)
    gas = gasmedia.make_gas(species, pressure_bar)
    structure = fibermodel.band_structure(fiber, gas)
    assert structure.bands
    for band in structure.bands:
        assert band.usable_lo_nm < band.usable_hi_nm
        mid = 0.5 * (band.usable_lo_nm + band.usable_hi_nm)
        assert structure.band_index(mid)[0] == band.index
    # each resonance solved has a zone that reaches the window
    lo, hi = structure.window_nm
    c = hi / (1.0 - fibermodel.EXCLUSION_FRACTION)
    assert all(max(170.0, 0.8 * lo) <= lj < c for lj in structure.resonances_nm)


def _zone_oracle(structure, lam):
    """The window-and-zone rule that in_band_mask replaced: inside the
    window and clear of every resonance's exclusion zone."""
    lo, hi = structure.window_nm
    ok = (lam > lo) & (lam < hi)
    for lj in structure.resonances_nm:
        ok &= np.abs(lam - lj) > fibermodel.EXCLUSION_FRACTION * lj
    return ok


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(**_WALLS, pressure_bar=st.floats(0.0, 30.0), seed=st.integers(0, 2**32))
def test_in_band_mask_is_the_window_and_zone_rule(
    log_t_nm, r_eff_um, species, pressure_bar, seed
):
    """The union of the bands' usable intervals is the window less the
    exclusion zones, except within 1e-12 (relative) of a zone edge, where
    the two forms round differently."""
    fiber = fibermodel.FiberModel(R_eff_um=r_eff_um, t_nm=10.0**log_t_nm)
    gas = gasmedia.make_gas(species, pressure_bar)
    structure = fibermodel.band_structure(fiber, gas)
    assert all(b.usable_lo_nm < b.usable_hi_nm for b in structure.bands)
    lo, hi = structure.window_nm
    rng = np.random.default_rng(seed)
    res = np.asarray(structure.resonances_nm)
    zone = fibermodel.EXCLUSION_FRACTION * res
    near = res + zone * rng.uniform(-1.5, 1.5, res.size)
    lam = np.concatenate((rng.uniform(0.9 * lo, 1.1 * hi, 20_000), near))
    edges = np.sort(np.concatenate(([lo, hi], res - zone, res + zone)))
    k = np.clip(np.searchsorted(edges, lam), 1, edges.size - 1)
    gap = np.minimum(lam - edges[k - 1], edges[k] - lam)
    clear = np.abs(gap) > 1e-12 * lam
    np.testing.assert_array_equal(
        structure.in_band_mask(lam)[clear], _zone_oracle(structure, lam)[clear]
    )


@pytest.mark.parametrize(
    "species", sorted(set(gasmedia.load_gas_data()) - {"silica"})
)
@pytest.mark.parametrize("pressure_bar", [0.0, 1.0, 20.0, 30.0])
def test_wall_index_falls_where_resonances_are_counted(species, pressure_bar):
    """band_structure counts the resonances below x as those of order
    j > 2t sqrt(n_si^2 - n_gas^2) / x, which holds only while the root falls
    with the wavelength: checked from the floor to the highest resonance
    whose zone can reach the window."""
    gas = gasmedia.make_gas(species, pressure_bar)
    lo, hi = fibermodel.model_window_nm(fibermodel.FiberModel(22.0, 630.0), gas)
    lam = np.geomspace(
        max(170.0, 0.8 * lo), hi / (1.0 - fibermodel.EXCLUSION_FRACTION), 20_001
    )
    w = fibermodel._wall_index(gas, lam)
    assert np.all(np.isfinite(w)) and np.all(np.diff(w) < 0.0)


def test_model_window_intersects_gas_and_silica(fiber, xenon, vacuum):
    assert fibermodel.model_window_nm(fiber, xenon) == (250.0, 3200.0)
    assert fibermodel.model_window_nm(fiber, vacuum) == (210.0, 3710.0)


_OTHER_GASES = """
far_ir:  # a window that misses silica's
  B: [1.0e-4]
  C_um2: [1.0e-2]
  lambda_min_nm: 4000.0
  lambda_max_nm: 5000.0
  P0_bar: 1.0
  T0_K: 293.15
  n2_per_bar_m2W: 0.0
denser_than_silica:  # n^2 = 3 at 1 bar and 293.15 K
  B: [2.0]
  C_um2: [0.0]
  lambda_min_nm: 250.0
  lambda_max_nm: 3200.0
  P0_bar: 1.0
  T0_K: 293.15
  n2_per_bar_m2W: 0.0
"""


def test_gas_tables_the_tube_model_cannot_use(fiber, tmp_path, monkeypatch):
    """A gas whose window misses silica's has no joint window, and one
    whose index exceeds silica's leaves the wall no resonance."""
    bundled = resource_files("hcfwm").joinpath("data/gases.yaml").read_text()
    path = tmp_path / "gases.yaml"
    path.write_text(bundled + _OTHER_GASES)
    monkeypatch.setenv("HCFWM_GAS_DATA", str(path))
    far = gasmedia.make_gas("far_ir", 1.0)
    with pytest.raises(ValidationError) as err:
        fibermodel.model_window_nm(fiber, far)
    assert str(err.value) == "empty joint validity window for far_ir and silica"
    dense = gasmedia.make_gas("denser_than_silica", 1.0)
    with pytest.raises(RangeError, match="^no wall resonances: n_si\\^2 - n_gas\\^2"):
        fibermodel.band_structure(fiber, dense)


def test_mode_parameter_bessel_zeros():
    he11 = fibermodel.FiberModel(R_eff_um=22.0, t_nm=630.0)
    assert he11.u == pytest.approx(2.404825557695773, rel=1e-12)
    assert he11.mode_label == "HE11"
    he12 = fibermodel.FiberModel(R_eff_um=22.0, t_nm=630.0, mode_m=1, mode_n=2)
    assert he12.u == pytest.approx(5.520078110286311, rel=1e-12)
    # computed once per fiber, not on every delta_eff call
    assert "u" in vars(he12)


def test_higher_order_mode_deeper_deficit(vacuum):
    base = fibermodel.FiberModel(R_eff_um=22.0, t_nm=630.0)
    he12 = fibermodel.FiberModel(R_eff_um=22.0, t_nm=630.0, mode_n=2)
    # in vacuum both the capillary and the wall term scale as u^2
    d11 = float(fibermodel.delta_eff(base, vacuum, 1030.0))
    d12 = float(fibermodel.delta_eff(he12, vacuum, 1030.0))
    assert d12 < d11 < 0.0
    assert d12 / d11 == pytest.approx((he12.u / base.u) ** 2, rel=1e-9)


def test_fiber_validation():
    with pytest.raises(ValidationError):
        fibermodel.FiberModel(R_eff_um=0.0, t_nm=630.0)
    with pytest.raises(ValidationError):
        fibermodel.FiberModel(R_eff_um=22.0, t_nm=-1.0)
    with pytest.raises(ValidationError):
        fibermodel.FiberModel(R_eff_um=22.0, t_nm=630.0, mode_m=0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"R_eff_um": math.nan, "t_nm": 630.0},
        {"R_eff_um": math.inf, "t_nm": 630.0},
        {"R_eff_um": 22.0, "t_nm": math.inf},
        {"R_eff_um": 22.0, "t_nm": math.nan},
    ],
)
def test_fiber_rejects_non_finite(kwargs):
    key = next(k for k, v in kwargs.items() if not math.isfinite(v))
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        fibermodel.FiberModel(**kwargs)


# ------------------------------------------ numpy replacements of scipy


def test_physical_constants_equal_scipy():
    assert fibermodel._C == scipy.constants.c
    assert tomography.hbar == scipy.constants.hbar


def test_bessel_zero_matches_scipy():
    # HE11 feeds every artifact, so it must agree to the last bit, and its
    # literal must be the float of the eigen-solve
    he11 = fibermodel.FiberModel(R_eff_um=22.0, t_nm=630.0).u
    assert he11 == fibermodel._bessel_zero_eigen(0, 1) == jn_zeros(0, 1)[0]
    # the eigenvalue method's rounding grows as (j_n / j_1)^2; the worst
    # case here is 10 ulp (1.18e-15 relative) at nu = 6, n = 7
    for nu in range(8):
        ref = jn_zeros(nu, 7)
        for n in range(1, 8):
            got = fibermodel._bessel_zero(nu, n)
            assert got == pytest.approx(ref[n - 1], rel=1.2e-15, abs=0.0)


def test_beta2_stencil_is_one_kappa_call(fiber, xenon, monkeypatch):
    """One kappa evaluation on the stacked stencil equals three separate
    ones bit for bit, on random in-band omega, for the band scan and for
    the 1-element arrays of the Brent solve."""
    structure = fibermodel.band_structure(fiber, xenon)
    rng = np.random.default_rng(20261019)
    calls = []
    kappa = fibermodel.reduced_kappa

    def counted(*args, **kwargs):
        calls.append(1)
        return kappa(*args, **kwargs)

    monkeypatch.setattr(fibermodel, "reduced_kappa", counted)
    for band in structure.bands:
        lo = band.usable_lo_nm * (1.0 + 1e-3)
        hi = band.usable_hi_nm * (1.0 - 1e-3)
        for size in (1, 2, 7, 400):
            om = fibermodel.omega_from_lambda_nm(rng.uniform(lo, hi, size))
            h2 = fibermodel.BETA2_REL_STEP * om
            want = (
                kappa(fiber, xenon, om + h2, check=False)
                - 2.0 * kappa(fiber, xenon, om, check=False)
                + kappa(fiber, xenon, om - h2, check=False)
            ) / h2**2
            calls.clear()
            got = fibermodel._beta2_on_grid(fiber, xenon, om)
            assert calls == [1]
            assert np.all(np.isfinite(want))
            assert got.tobytes() == want.tobytes()


def _oracle_brackets(rng):
    funcs = [
        lambda x: math.cos(x) - x,
        lambda x: x**3 - 2.0 * x - 5.0,
        lambda x: math.exp(x) - 3.0,
        lambda x: math.tanh(5.0 * (x - 0.3)),
        lambda x: (x - 0.7) ** 5,
        lambda x: 1e-30 * math.atan(x - 1.234),
        lambda x: x - 1e-3 if x > 1e-3 else -1e-8,  # flat, then a jump
    ]
    for f in funcs:
        for _ in range(60):
            a, b = rng.uniform(-3.0, 1.0), rng.uniform(1.0, 4.0)
            if (f(a) < 0.0) != (f(b) < 0.0):
                yield f, a, b


def test_brentq_port_is_step_exact():
    """Same float as scipy on every bracket, for several tolerance sets;
    where scipy gives up within maxiter, the port raises."""
    rng = np.random.default_rng(20260418)
    cases = 0
    for f, a, b in _oracle_brackets(rng):
        for xtol, rtol, maxiter in ((2e-12, 1e-13, 100), (1e-6, 8.9e-16, 100),
                                    (1e-3, 1e-10, 5)):
            try:
                want = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
            except RuntimeError:
                with pytest.raises(NumericalError, match="did not converge"):
                    fibermodel._brentq(f, a, b, xtol, rtol, maxiter)
            else:
                assert fibermodel._brentq(f, a, b, xtol, rtol, maxiter) == want
            cases += 1
    assert cases > 1000
    # a root at either end of the bracket is that end, as in scipy, also
    # where the other end has the same sign as the root's side
    for f, a, b in ((lambda x: x - 1.0, 1.0, 3.0), (lambda x: 1.0 - x, -2.0, 1.0),
                    (lambda x: 1.0 - x, 1.0, 3.0), (lambda x: x - 1.0, -2.0, 1.0)):
        assert fibermodel._brentq(f, a, b) == brentq(f, a, b) == 1.0


def test_brentq_port_needs_a_sign_change():
    with pytest.raises(NumericalError, match="no sign change"):
        fibermodel._brentq(lambda x: x * x + 1.0, -1.0, 1.0)


def test_brentq_port_on_beta2(fiber, xenon):
    """The find_zdw objective, bracketed at seeded widths around the root."""
    def b2(omega):
        return float(fibermodel._beta2_on_grid(fiber, xenon, np.array([omega]))[0])

    om0 = float(fibermodel.omega_from_lambda_nm(ZDW_XENON_34_BAND_I_NM))
    rng = np.random.default_rng(11)
    for _ in range(40):
        a = om0 * (1.0 - rng.uniform(1e-9, 3e-3))
        b = om0 * (1.0 + rng.uniform(1e-9, 3e-3))
        assert fibermodel._brentq(b2, a, b) == brentq(b2, a, b, rtol=1e-13)


def test_roman_numerals():
    assert [fibermodel.roman(n) for n in range(1, 10)] == [
        "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"
    ]
    with pytest.raises(ValueError):
        fibermodel.roman(0)
