"""Schmidt decomposition: closed-form spectra, invariances, mode output."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc

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
    svd_mode_errors,
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
    assert res.signal_modes.shape == res.idler_modes.shape == (64, 1)
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
    res = schmidt.schmidt_decompose(grid128)
    n = res.signal_modes.shape[1]
    gram_s = res.signal_modes.conj().T @ res.signal_modes
    gram_i = res.idler_modes.conj().T @ res.idler_modes
    assert np.max(np.abs(gram_s - np.eye(n))) < 1e-8
    assert np.max(np.abs(gram_i - np.eye(n))) < 1e-8


@pytest.fixture
def mode_paths(monkeypatch):
    """The paths that the complex decompositions of the test took, in
    order: "iteration" for each subspace iteration, and "full SVD" for
    each SVD with singular vectors made outside one."""
    paths, inside = [], []
    svd, iterate = np.linalg.svd, schmidt._subspace_modes

    def spy_svd(a, *args, **kwargs):
        if kwargs.get("compute_uv", True) and not inside:
            paths.append("full SVD")
        return svd(a, *args, **kwargs)

    def spy_iterate(*args):
        paths.append("iteration")
        inside.append(True)
        try:
            return iterate(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(np.linalg, "svd", spy_svd)
    monkeypatch.setattr(schmidt, "_subspace_modes", spy_iterate)
    return paths


def test_written_modes_match_the_full_svd(grid128, mode_paths):
    """The 8 written modes come from the subspace iteration, with no full
    SVD of the grid, and match a full SVD: residual within 1e-10 s_n,
    overlap within 1e-12 of 1, and <r, S_n> real and positive."""
    res = schmidt.schmidt_decompose(grid128)
    assert res.n_modes > 8
    assert res.signal_modes.shape == res.idler_modes.shape == (128, 8)
    assert mode_paths == ["iteration"]
    residual, overlap, phase = svd_mode_errors(grid128.values, res)
    assert residual <= 1e-10
    assert overlap <= 1e-12
    assert phase <= 1e-12


def _with_spectrum(s, n=64, leading=None):
    """An n x n complex matrix with singular values s between random
    unitaries; `leading`, if given, is projected out of its leading right
    singular vector."""
    rng = np.random.default_rng(3)
    draw = rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))
    if leading is not None:
        basis = np.linalg.qr(leading)[0]
        draw[1][:, 0] -= basis @ (basis.conj().T @ draw[1][:, 0])
    u, v = (np.linalg.qr(d)[0] for d in draw)
    return (u[:, :len(s)] * s) @ v[:, :len(s)].conj().T


@pytest.mark.parametrize("case", ["degenerate", "slow", "blind-start"])
def test_hard_spectra_take_the_full_svd(case, mode_paths):
    """A leading spectrum that is degenerate across the iteration block,
    or decays too slowly for the pass cap, goes straight to the full SVD,
    with no iteration; a leading mode that the fixed start block cannot
    see fails the residual check after the iteration and goes there too.
    The modes then meet the same residual and phase checks, and are the
    full SVD's own up to phase."""
    if case == "degenerate":
        matrix = _with_spectrum(np.ones(20))
    elif case == "slow":
        matrix = _with_spectrum(0.97 ** np.arange(64))
    else:
        start = schmidt._start_block(64, 16)
        matrix = _with_spectrum([1.0, *(0.5 ** np.arange(1, 9))], leading=start)
    res = schmidt.schmidt_decompose(matrix)
    assert res.signal_modes.shape == res.idler_modes.shape == (64, 8)
    if case == "blind-start":
        assert mode_paths == ["iteration", "full SVD"]
    else:
        assert mode_paths == ["full SVD"]
    residual, overlap, phase = svd_mode_errors(matrix, res)
    assert residual <= 1e-10
    assert overlap <= 1e-12
    assert phase <= 1e-12


@pytest.mark.parametrize("cut", ["2x2", "tall", "wide"])
def test_modes_of_small_and_non_square_grids(grid128, cut, mode_paths):
    """A 2 x 2 grid, whose block spans its whole side, and the tall and
    wide cuts of grid128 give (rows, k) and (cols, k) modes from the
    subspace iteration that meet the residual and phase checks."""
    amplitude = np.asarray(grid128.values)
    matrix = {
        "2x2": np.array([[1.0, 0.5j], [0.25, -0.75]]),
        "tall": amplitude[:, :100],
        "wide": amplitude[:100, :],
    }[cut]
    res = schmidt.schmidt_decompose(matrix)
    k = min(8, res.n_modes)
    assert res.signal_modes.shape == (matrix.shape[0], k)
    assert res.idler_modes.shape == (matrix.shape[1], k)
    assert mode_paths == ["iteration"]
    residual, overlap, phase = svd_mode_errors(matrix, res)
    assert residual <= 1e-10
    assert overlap <= 1e-12
    assert phase <= 1e-12


def test_flat_result_carries_empty_modes(grid128):
    """The flat-phase SVD computes singular values only; its mode arrays
    stay arrays, one row per grid point and no column."""
    amplitude = grid128.values[:, :100]
    for arr, flat in ((grid128, True), (amplitude, True), (np.abs(amplitude) ** 2, False)):
        res = schmidt.schmidt_decompose(arr, flat_phase=flat)
        assert res.flat_phase is True
        assert res.n_modes > 8
        assert res.signal_modes.shape == (128, 0)
        assert res.idler_modes.shape == (128 if arr is grid128 else 100, 0)


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


def test_descending_axis_gives_the_same_K(grid128):
    """A hand-built JsaGrid whose signal axis descends has a negative cell
    area; no cell area enters K, and reversing the rows of the amplitude
    matrix leaves its singular values alone."""
    descending = dataclasses.replace(
        grid128, omega_s=grid128.omega_s[::-1].copy(),
        values=grid128.values[::-1].copy(),
    )
    for flat_phase in (True, False):
        for K in (
            lambda g: schmidt.schmidt_number(g, flat_phase),
            lambda g: schmidt.schmidt_decompose(g, flat_phase).K,
        ):
            assert K(descending) == pytest.approx(K(grid128), rel=1e-12)


@pytest.mark.parametrize("flat_phase", [True, False], ids=["flat", "complex"])
def test_decomposition_reads_only_the_amplitudes(grid128, flat_phase):
    """A JsaGrid and its bare values array give the same bits: nothing of
    the grid but its amplitudes enters the decomposition."""
    got = schmidt.schmidt_decompose(grid128, flat_phase)
    raw = schmidt.schmidt_decompose(grid128.values, flat_phase)
    assert np.array_equal(got.coefficients, raw.coefficients)
    assert got.K == raw.K
    assert np.array_equal(got.signal_modes, raw.signal_modes)
    assert np.array_equal(got.idler_modes, raw.idler_modes)
    assert schmidt.schmidt_number(grid128, flat_phase) == schmidt.schmidt_number(
        grid128.values, flat_phase
    )


def _traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complex_schmidt_holds_no_copy_of_the_grid(fiber, xenon, pump, branch):
    """At N = 512 a complex decomposition holds the singular values and
    the N x 16 blocks of its subspace iteration, but neither singular-vector
    matrix nor any copy of the grid: its traced peak stays under a quarter
    of a grid.  The Gram K holds a block of rows of the grid's conjugate
    and of conj(G), but neither G nor a conjugate copy of the grid: its
    peak stays under half a grid."""
    grid = jsa.build_jsa(fiber, xenon, pump, branch, L_m=1.0, n=512)
    size = grid.values.nbytes
    for call, bound in ((schmidt.schmidt_number, 0.5), (schmidt.schmidt_decompose, 0.25)):
        peak = _traced_peak(call, grid)
        assert peak <= bound * size, (call.__name__, peak / size)


def test_flat_schmidt_holds_no_singular_vectors(fiber, xenon, pump, branch):
    """At N = 512 the flat-phase decomposition holds |F|, half a complex
    grid, and the singular values, but neither singular-vector matrix:
    its traced peak stays under 0.75 of a complex grid."""
    grid = jsa.build_jsa(fiber, xenon, pump, branch, L_m=1.0, n=512)
    peak = _traced_peak(schmidt.schmidt_decompose, grid, True)
    assert peak <= 0.75 * grid.values.nbytes, peak / grid.values.nbytes


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


@pytest.mark.parametrize("shape", [(300, 700), (700, 300)], ids=["wide", "tall"])
def test_gram_schmidt_number_sums_every_row_block(shape):
    """The Gram K sums ||conj(G)||_F^2 over blocks of rows of the shorter
    axis; here that axis is no whole number of blocks, so a dropped or
    doubled last block would move K."""
    rows, cols = sorted(shape)
    step = schmidt._GRAM_BLOCK_CELLS // cols
    assert rows > step and rows % step != 0
    rng = np.random.default_rng(5)
    x = np.linspace(-3.0, 3.0, max(shape))
    envelope = np.exp(-(x[:shape[0], None] - x[None, :shape[1]]) ** 2)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    amplitude = envelope * (1.0 + 0.3 * noise)
    inputs = [(amplitude, False), (amplitude, True), (np.abs(amplitude) ** 2, False)]
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
    """The 8 leading modes of a complex decomposition, or every mode of one
    with fewer; a flat-phase result carries no modes and is refused."""
    full = schmidt.schmidt_decompose(grid128)
    assert full.n_modes > 8
    lines = schmidt.schmidt_modes_to_csv(full).splitlines()
    assert lines[0] == ",".join(
        f"S{m}_re,S{m}_im,I{m}_re,I{m}_im" for m in range(8)
    )
    assert len(lines) == 1 + grid128.omega_s.size

    x = np.linspace(-3.0, 3.0, 16)
    g = np.exp(-x**2)
    single = schmidt.schmidt_decompose(np.outer(g, g * np.exp(0.5j * x)))
    assert single.n_modes == 1
    assert schmidt.schmidt_modes_to_csv(single).splitlines()[0] == (
        "S0_re,S0_im,I0_re,I0_im"
    )

    flat = schmidt.schmidt_decompose(grid128, flat_phase=True)
    with pytest.raises(ValidationError, match="flat-phase .* carries no modes"):
        schmidt.schmidt_modes_to_csv(flat)
