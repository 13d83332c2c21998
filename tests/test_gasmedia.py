"""Gas and wall dispersion: data loading, density scaling, window limits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfwm import gasmedia
from hcfwm.errors import RangeError, ValidationError

# frozen regression values (double precision, bundled data table)
XENON_DELTA_REF_1030 = 6.852833461168807e-4   # 1.01325 bar, 273.15 K
XENON_DELTA_34BAR_1030 = 2.1410553510345888e-3  # 3.4 bar, 293.15 K
ARGON_DELTA_REF_1030 = 2.786293069404711e-4
SILICA_N_1030 = 1.4500438058627687


def test_xenon_reference_delta_golden():
    gas = gasmedia.make_gas("xenon", 1.01325, temperature_K=273.15)
    assert gasmedia.delta_gas(gas, 1030.0) == pytest.approx(
        XENON_DELTA_REF_1030, rel=1e-12
    )


def test_xenon_operating_delta_golden():
    gas = gasmedia.make_gas("xenon", 3.4)
    assert gasmedia.delta_gas(gas, 1030.0) == pytest.approx(
        XENON_DELTA_34BAR_1030, rel=1e-12
    )


def test_argon_reference_delta_golden():
    gas = gasmedia.make_gas("argon", 1.01325, temperature_K=273.15)
    assert gasmedia.delta_gas(gas, 1030.0) == pytest.approx(
        ARGON_DELTA_REF_1030, rel=1e-12
    )


def test_delta_matches_published_dispersion_form():
    """The stored Sellmeier terms are a rewrite of a published n-1 form.

    Reconstructing the original a_k / (b_k - 1/lambda^2) sum from the
    stored B = 2a/b, C = 1/b must reproduce delta up to the exact
    amplitude-vs-susceptibility difference, which is O(delta^2)."""
    model = gasmedia.get_model("xenon")
    gas = gasmedia.GasState(model=model, pressure_bar=model.P0_bar,
                            temperature_K=model.T0_K)
    lam_um = 1.030
    published = sum(
        (b_k / (2.0 * c_k)) / (1.0 / c_k - 1.0 / lam_um**2)
        for b_k, c_k in zip(model.B, model.C_um2)
    )
    delta = float(gasmedia.delta_gas(gas, 1030.0))
    assert delta == pytest.approx(published, abs=5e-7)
    # the exact square root is slightly below the first-order form
    assert delta < published


def test_argon_less_refractive_than_xenon():
    xe = gasmedia.make_gas("xenon", 3.4)
    ar = gasmedia.make_gas("argon", 3.4)
    ratio = float(gasmedia.delta_gas(ar, 1030.0) / gasmedia.delta_gas(xe, 1030.0))
    assert 0.3 < ratio < 0.5


def test_density_scaling_is_linear_in_susceptibility():
    lo = gasmedia.make_gas("xenon", 1.7)
    hi = gasmedia.make_gas("xenon", 3.4)
    # back out s = (n^2 - 1) from delta: s = delta (delta + 2)
    d_lo = float(gasmedia.delta_gas(lo, 1030.0))
    d_hi = float(gasmedia.delta_gas(hi, 1030.0))
    s_lo = d_lo * (d_lo + 2.0)
    s_hi = d_hi * (d_hi + 2.0)
    assert s_hi / s_lo == pytest.approx(2.0, rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(
    p1=st.floats(0.1, 10.0),
    p2=st.floats(0.1, 10.0),
    t1=st.floats(220.0, 400.0),
    t2=st.floats(220.0, 400.0),
)
def test_delta_monotone_in_pressure_and_temperature(p1, p2, t1, t2):
    d_p1 = float(gasmedia.delta_gas(gasmedia.make_gas("xenon", p1, t1), 1030.0))
    d_p2 = float(gasmedia.delta_gas(gasmedia.make_gas("xenon", p2, t1), 1030.0))
    if p1 < p2:
        assert d_p1 < d_p2
    d_t2 = float(gasmedia.delta_gas(gasmedia.make_gas("xenon", p1, t2), 1030.0))
    if t1 < t2:
        assert d_p1 > d_t2
    elif t1 > t2:
        assert d_p1 < d_t2


def test_vacuum_delta_identically_zero():
    vac = gasmedia.make_gas("vacuum", 1.0)
    lam = np.array([300.0, 1030.0, 3000.0])
    assert np.all(gasmedia.delta_gas(vac, lam) == 0.0)


def test_silica_index_golden_and_known_line():
    silica = gasmedia.get_model("silica")

    def index(lam):
        return float(np.sqrt(1.0 + silica.n_squared_minus_one(lam)))

    assert index(1030.0) == pytest.approx(SILICA_N_1030, rel=1e-12)
    # fused silica at the helium d line: n_d = 1.4585 to a few 1e-4
    assert index(587.6) == pytest.approx(1.4585, abs=5e-4)


def test_validity_window_enforced():
    gas = gasmedia.make_gas("xenon", 3.4)
    with pytest.raises(RangeError, match="validity window"):
        gasmedia.delta_gas(gas, 249.0)
    with pytest.raises(RangeError, match="validity window"):
        gasmedia.delta_gas(gas, 3200.5)
    with pytest.raises(RangeError):
        gasmedia.delta_gas(gas, np.array([1030.0, 4000.0]))
    # the unchecked path exists for resonance iteration, not user code
    assert np.isfinite(gasmedia.delta_gas(gas, 249.0, check=False))


def test_silica_is_not_a_filling_gas():
    with pytest.raises(ValidationError, match="wall material"):
        gasmedia.make_gas("silica", 1.0)


def test_unknown_species_lists_available():
    with pytest.raises(ValidationError, match="argon") as err:
        gasmedia.make_gas("helium", 1.0)
    assert "xenon" in str(err.value)


def test_state_validation():
    with pytest.raises(ValidationError, match="pressure"):
        gasmedia.make_gas("xenon", -0.1)
    with pytest.raises(ValidationError, match="temperature"):
        gasmedia.make_gas("xenon", 1.0, temperature_K=0.0)
    # zero pressure is legal (evacuated fiber)
    assert float(gasmedia.delta_gas(gasmedia.make_gas("xenon", 0.0), 1030.0)) == 0.0


@pytest.mark.parametrize(
    "pressure_bar, temperature_K, key",
    [
        (float("nan"), 293.15, "pressure"),
        (float("inf"), 293.15, "pressure"),
        (3.4, float("inf"), "temperature"),
        (3.4, float("nan"), "temperature"),
    ],
)
def test_state_rejects_non_finite(pressure_bar, temperature_K, key):
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        gasmedia.make_gas("xenon", pressure_bar, temperature_K=temperature_K)


def test_kerr_index_scales_with_pressure():
    gas = gasmedia.make_gas("xenon", 3.4)
    assert gas.n2_m2W == pytest.approx(3.4 * gas.model.n2_per_bar_m2W, rel=1e-15)


def _write_table(tmp_path, text, name="gases.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_data_path_override_loads_alternative_table(tmp_path, monkeypatch):
    path = _write_table(
        tmp_path,
        """
argon:
  B: [5.496879532e-05, 1.138403950e-05, 4.881254088e-04]
  C_um2: [1.098756208e-02, 1.137759978e-02, 4.672460518e-03]
  lambda_min_nm: 250.0
  lambda_max_nm: 3200.0
  P0_bar: 1.01325
  T0_K: 273.15
  n2_per_bar_m2W: 0.8e-21
""",
    )
    table = gasmedia.load_gas_data(path)
    assert sorted(table) == ["argon"]
    monkeypatch.setenv("HCFWM_GAS_DATA", path)
    with pytest.raises(ValidationError, match="unknown species 'xenon'"):
        gasmedia.make_gas("xenon", 1.0)


def test_data_schema_missing_and_unknown_keys(tmp_path):
    missing = _write_table(
        tmp_path, "argon:\n  B: [1.0]\n  C_um2: [0.1]\n", name="missing.yaml"
    )
    with pytest.raises(ValidationError, match="missing keys"):
        gasmedia.load_gas_data(missing)
    extra = _write_table(
        tmp_path,
        """
argon:
  B: [1.0e-4]
  C_um2: [1.0e-2]
  lambda_min_nm: 250.0
  lambda_max_nm: 3200.0
  P0_bar: 1.0
  T0_K: 273.15
  n2_per_bar_m2W: 0.0
  typo_key: 1.0
""",
        name="extra.yaml",
    )
    with pytest.raises(ValidationError, match="unknown keys"):
        gasmedia.load_gas_data(extra)
    empty = _write_table(tmp_path, "", name="empty.yaml")
    with pytest.raises(ValidationError, match="map species"):
        gasmedia.load_gas_data(empty)


_ARGON = """
argon:
  B: [5.496879532e-05, 1.138403950e-05, 4.881254088e-04]
  C_um2: [1.098756208e-02, 1.137759978e-02, 4.672460518e-03]
  lambda_min_nm: 250.0
  lambda_max_nm: 3200.0
  P0_bar: 1.01325
  T0_K: 273.15
  n2_per_bar_m2W: 0.8e-21
"""


@pytest.mark.parametrize(
    "old, new, error",
    [
        ("P0_bar: 1.01325", "P0_bar: abc",
         "gas data for 'argon': P0_bar must be a number, got 'abc'"),
        ("T0_K: 273.15", "T0_K: [273.15]",
         "gas data for 'argon': T0_K must be a number, got [273.15]"),
        ("B: [5.496879532e-05, 1.138403950e-05, 4.881254088e-04]",
         "B: 5.496879532e-05",
         "gas data for 'argon': B must be a list of numbers, got 5.496879532e-05"),
        ("C_um2: [1.098756208e-02,", "C_um2: [x,",
         "gas data for 'argon': C_um2[0] must be a number, got 'x'"),
    ],
)
def test_data_values_must_be_numbers(tmp_path, old, new, error):
    path = _write_table(tmp_path, _ARGON.replace(old, new))
    with pytest.raises(ValidationError) as err:
        gasmedia.load_gas_data(path)
    assert str(err.value) == error


def test_data_values_may_be_numeric_strings(tmp_path):
    quoted = _ARGON.replace("P0_bar: 1.01325", "P0_bar: '1.01325'").replace(
        "B: [5.496879532e-05,", "B: ['5.496879532e-05',"
    )
    assert gasmedia.load_gas_data(_write_table(tmp_path, quoted)) == (
        gasmedia.load_gas_data(_write_table(tmp_path, _ARGON, name="plain.yaml"))
    )


def test_model_validation_rules():
    with pytest.raises(ValidationError, match="equal-length"):
        gasmedia.SellmeierModel(
            species="x", B=(1.0,), C_um2=(1.0, 2.0),
            lambda_min_nm=100.0, lambda_max_nm=200.0,
            P0_bar=1.0, T0_K=273.15, n2_per_bar_m2W=0.0,
        )
    with pytest.raises(ValidationError, match="window"):
        gasmedia.SellmeierModel(
            species="x", B=(1.0,), C_um2=(1.0,),
            lambda_min_nm=300.0, lambda_max_nm=200.0,
            P0_bar=1.0, T0_K=273.15, n2_per_bar_m2W=0.0,
        )
