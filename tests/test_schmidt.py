"""Schmidt decomposition: closed-form spectra, invariances, mode output."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from hcfwm import jsa, schmidt
from hcfwm.errors import ValidationError

from _oracles import (
    mehler_coefficients,
    mehler_K,
    mehler_kernel,
    mehler_rho,
    sinc_gaussian_K,
)


# ------------------------------------------------------- Schmidt number


def _K_of(coefficients):
    """K of a diagonal JSA whose Schmidt coefficients are given."""
    amp = np.sqrt(np.asarray(coefficients, dtype=float)).astype(complex)
    return schmidt.schmidt_decompose(np.diag(amp)).K


def test_schmidt_number_closed_cases():
    assert _K_of([1.0, 0.0]) == 1.0
    assert _K_of([0.5, 0.5]) == pytest.approx(2.0, rel=1e-14)
    lam = 0.5
    c = (1.0 - lam) * lam ** np.arange(60)
    # geometric spectrum: K = (1 + lam) / (1 - lam)
    assert _K_of(c) == pytest.approx(3.0, abs=1e-9)


# --------------------------------------------------- analytic spectra


def test_factorable_product_is_single_mode():
    x = np.linspace(-4.0, 4.0, 64)
    f = np.exp(-(x**2) / 2.0 + 0.3j * x)
    g = np.exp(-(x**2) / 1.5 - 0.7j * x**2)
    res = schmidt.schmidt_decompose(np.outer(f, g))
    assert res.n_modes == 1
    assert abs(res.K - 1.0) < 1e-9
    assert not res.flat_phase


@pytest.mark.parametrize(
    "mu,span,n",
    [(0.5, 15.0, 512), (0.6, 12.0, 384)],
    ids=["mu-0.5", "mu-0.6"],
)
def test_correlated_gaussian_matches_mehler_spectrum(mu, span, n):
    """A correlated-Gaussian kernel has the exact geometric Schmidt
    spectrum c_n = (1 - lam) lam^n; the discretized SVD must hit it."""
    rho = mehler_rho(mu)
    x = np.linspace(-span, span, n)
    kernel = mehler_kernel(x, rho)
    res = schmidt.schmidt_decompose(kernel.astype(complex))
    c_an = mehler_coefficients(mu, 10)
    assert np.max(np.abs(res.coefficients[:10] - c_an)) < 1e-9
    assert res.K == pytest.approx(mehler_K(mu), rel=1e-9)


def test_mehler_case_exact_quarter():
    """mu = 0.6 maps to rho = 1/3, lam = 1/9, so K = 1.25 exactly."""
    assert mehler_K(0.6) == pytest.approx(1.25, rel=1e-15)
    x = np.linspace(-12.0, 12.0, 384)
    res = schmidt.schmidt_decompose(
        mehler_kernel(x, mehler_rho(0.6)).astype(complex)
    )
    assert res.K == pytest.approx(1.25, abs=1e-9)


def test_sinc_reference_schmidt_number(branch, pump):
    """The exact sinc-JSA reference on the reference branch: converged in
    its quadrature and at the continuum values the acceptance suite
    compares against."""
    args = (branch.beta1_p, branch.beta1_s, branch.beta1_i, pump.sigma)
    k_1m = sinc_gaussian_K(*args, 1.0)
    assert k_1m == pytest.approx(1.1812, abs=1e-4)
    assert sinc_gaussian_K(*args, 0.4) == pytest.approx(1.6082, abs=1e-4)
    assert sinc_gaussian_K(*args, 1.0, nodes=800) == pytest.approx(
        k_1m, rel=1e-9
    )


# ------------------------------------------------------- invariances


def test_transpose_invariance(grid128):
    res = schmidt.schmidt_decompose(grid128.values)
    res_t = schmidt.schmidt_decompose(grid128.values.T)
    assert abs(res.K - res_t.K) < 1e-12
    n = min(res.n_modes, res_t.n_modes)
    assert np.max(np.abs(res.coefficients[:n] - res_t.coefficients[:n])) < 1e-12


def test_separable_phase_leaves_spectrum_alone(grid128):
    """Multiplying by exp(i (f(omega_s) + g(omega_i))) is a diagonal
    unitary on each side and cannot change the singular values."""
    om_s = grid128.omega_s - grid128.omega_s.mean()
    om_i = grid128.omega_i - grid128.omega_i.mean()
    phase = np.exp(
        1j * (3e-13 * om_s[:, None] + 2e-26 * om_i[None, :] ** 2)
    )
    base = schmidt.schmidt_decompose(grid128)
    twisted = schmidt.schmidt_decompose(grid128.values * phase)
    assert twisted.K == pytest.approx(base.K, rel=1e-9)
    n = min(base.n_modes, twisted.n_modes)
    assert np.max(np.abs(base.coefficients[:n] - twisted.coefficients[:n])) < 1e-9


def test_flat_and_complex_variants_differ(grid128):
    """The sinc phase is not separable, so discarding it must change the
    spectrum; intensity-only data genuinely underdetermines K here."""
    k_complex = schmidt.schmidt_decompose(grid128).K
    k_flat = schmidt.schmidt_decompose(grid128, flat_phase=True).K
    assert k_complex - k_flat > 1e-3


def test_modes_are_orthonormal(grid128):
    for flat in (False, True):
        res = schmidt.schmidt_decompose(grid128, flat_phase=flat)
        n = res.n_modes
        gram_s = res.signal_modes.conj().T @ res.signal_modes
        gram_i = res.idler_modes.conj().T @ res.idler_modes
        assert np.max(np.abs(gram_s - np.eye(n))) < 1e-8
        assert np.max(np.abs(gram_i - np.eye(n))) < 1e-8


def test_spectrum_invariants(grid128):
    res = schmidt.schmidt_decompose(grid128)
    c = res.coefficients
    assert abs(float(np.sum(c)) - 1.0) < 1e-9
    assert np.all(c >= 0.0)
    assert np.all(np.diff(c) <= 0.0)
    assert res.K >= 1.0
    assert res.purity * res.K == pytest.approx(1.0, rel=1e-14)
    assert res.flat_phase is False


def test_truncation_drops_svd_noise():
    x = np.linspace(-3.0, 3.0, 48)
    f = np.exp(-(x**2))
    rng = np.random.default_rng(7)
    grid = np.outer(f, f) + 1e-20 * rng.standard_normal((48, 48))
    res = schmidt.schmidt_decompose(grid.astype(complex))
    assert res.n_modes == 1
    assert res.coefficients[0] == 1.0


def test_decompose_validation(grid128):
    with pytest.raises(ValidationError, match="identically zero"):
        schmidt.schmidt_decompose(np.zeros((8, 8)))
    bad = np.ones((8, 8)) * np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        schmidt.schmidt_decompose(bad)
    with pytest.raises(ValidationError, match="non-negative"):
        schmidt.schmidt_decompose(-np.ones((8, 8)))
    with pytest.raises(ValidationError, match="2-D"):
        schmidt.schmidt_decompose(np.ones(8))


def test_jsa_grid_needs_a_positive_cell_area(grid128):
    """A hand-built JsaGrid whose signal axis descends has a negative cell
    area; weighting by its square root would give a NaN K."""
    descending = dataclasses.replace(
        grid128, omega_s=grid128.omega_s[::-1].copy(),
        values=grid128.values[::-1].copy(),
    )
    for decompose in (schmidt.schmidt_decompose, schmidt.schmidt_number):
        with pytest.raises(ValidationError, match="cell_area must be > 0"):
            decompose(descending)


def test_real_input_is_treated_as_jsi(grid128):
    """A real grid is an intensity: decomposing it must equal the
    flat-phase decomposition of the underlying amplitude."""
    intensity = jsa.jsi(grid128)
    from_jsi = schmidt.schmidt_decompose(intensity)
    flat = schmidt.schmidt_decompose(grid128, flat_phase=True)
    assert from_jsi.flat_phase is True
    n = min(from_jsi.n_modes, flat.n_modes)
    assert np.max(np.abs(from_jsi.coefficients[:n] - flat.coefficients[:n])) < 1e-12
    assert from_jsi.K == pytest.approx(flat.K, rel=1e-12)


def test_grid_refinement_stability(fiber, xenon, pump, branch):
    ks = []
    for n in (256, 512):
        grid = jsa.build_jsa(fiber, xenon, pump, branch, L_m=1.0, n=n)
        ks.append(schmidt.schmidt_decompose(grid, flat_phase=True).K)
    assert abs(ks[1] - ks[0]) / ks[1] < 5e-3


# ----------------------------------------------- Gram-form Schmidt number


@pytest.mark.parametrize("mode", ["linearized", "full"])
@pytest.mark.parametrize("L_m", [0.4, 1.0])
def test_gram_schmidt_number_matches_svd(fiber, xenon, pump, branch, L_m, mode):
    grid = jsa.build_jsa(fiber, xenon, pump, branch, L_m=L_m, n=256, mode=mode)
    for flat in (True, False):
        k_svd = schmidt.schmidt_decompose(grid, flat_phase=flat).K
        k_gram = schmidt.schmidt_number(grid, flat_phase=flat)
        assert k_gram == pytest.approx(k_svd, rel=1e-9)


def test_gram_schmidt_number_of_raw_arrays(grid128):
    """A raw JSI and a raw complex JSA, on both the square grid and a
    non-square cut of it in either orientation."""
    amplitude = np.asarray(grid128.values)
    for cut in (amplitude, amplitude[:, :100], amplitude[:100, :]):
        inputs = [(np.abs(cut) ** 2, False), (cut, False), (cut, True)]
        for arr, flat in inputs:
            k_svd = schmidt.schmidt_decompose(arr, flat_phase=flat).K
            k_gram = schmidt.schmidt_number(arr, flat_phase=flat)
            assert k_gram == pytest.approx(k_svd, rel=1e-9)


def test_gram_schmidt_number_closed_cases():
    amp = np.sqrt((1.0 - 0.5) * 0.5 ** np.arange(60)).astype(complex)
    assert schmidt.schmidt_number(np.diag(amp)) == pytest.approx(3.0, abs=1e-9)
    x = np.linspace(-12.0, 12.0, 384)
    kernel = mehler_kernel(x, mehler_rho(0.6)).astype(complex)
    assert schmidt.schmidt_number(kernel) == pytest.approx(1.25, abs=1e-9)


@pytest.mark.parametrize(
    "arr",
    [
        np.ones(8),
        np.ones((1, 8)),
        np.full((8, 8), np.nan),
        np.zeros((8, 8), dtype=complex),
        -np.ones((8, 8)),
    ],
    ids=["1-D", "one-row", "non-finite", "all-zero", "negative-jsi"],
)
def test_gram_and_svd_refuse_the_same_inputs(arr):
    with pytest.raises(ValidationError) as by_svd:
        schmidt.schmidt_decompose(arr)
    with pytest.raises(ValidationError) as by_gram:
        schmidt.schmidt_number(arr)
    assert str(by_gram.value) == str(by_svd.value)


# -------------------------------------------------------------- output


def test_schmidt_json_fields(grid128):
    res = schmidt.schmidt_decompose(grid128, flat_phase=True)
    doc = json.loads(schmidt.schmidt_to_json(res))
    assert set(doc) == {"c", "K", "purity", "flat_phase"}
    assert doc["K"] == res.K
    assert doc["flat_phase"] is True
    assert doc["c"] == res.coefficients.tolist()


def test_modes_csv_headers(grid128):
    """The 8 leading modes, or every mode of a decomposition with fewer."""
    flat = schmidt.schmidt_decompose(grid128, flat_phase=True)
    assert flat.n_modes > 8
    text = schmidt.schmidt_modes_to_csv(flat)
    lines = text.splitlines()
    assert lines[0] == ",".join(f"S{m},I{m}" for m in range(8))
    assert len(lines) == 1 + grid128.omega_s.size

    full = schmidt.schmidt_decompose(grid128)
    text_c = schmidt.schmidt_modes_to_csv(full)
    assert text_c.splitlines()[0] == ",".join(
        f"S{m}_re,S{m}_im,I{m}_re,I{m}_im" for m in range(8)
    )

    x = np.linspace(-3.0, 3.0, 16)
    single = schmidt.schmidt_decompose(np.outer(np.exp(-x**2), np.exp(-x**2)))
    assert schmidt.schmidt_modes_to_csv(single).splitlines()[0] == "S0,I0"
