"""References computed independently of the package internals.

The physics references are derived from textbook identities (Mehler's
Hermite expansion of a correlated Gaussian, the Gaussian approximation of a
sinc, and the Fourier transform of the exact sinc JSA to the time domain)
so that the numerical decompositions in the package can be checked against
formulas that share no code with them.  ``capillary_delta_eff`` is the
smooth (Marcatili-Schmeltzer) part of the tube model, without the wall
resonance term, for isolating that term.  ``three_kappa_phi`` is the
full-mode phase-matching function as the JSA formed it before it took
its mismatch from ``phasematch.delta_k``.  ``per_slice_set_scan`` is the
seeded scan as ``tomography`` built it one slice at a time, before the
slices became one array expression.  ``csv_writer_text`` is the
per-cell CSV writer the exporters used before ``hcfwm.export``, kept as
the byte-for-byte reference of the artifact format; ``tolist_jsa_json`` is
``jsa.json`` as ``json.dumps`` wrote it from ``.tolist()`` lists, before
``hcfwm.export`` encoded float arrays itself.  ``svd_mode_errors``
measures the Schmidt modes of a result against a full ``np.linalg.svd``.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np
from scipy.special import erf

# Gaussian stand-in for sinc(x): exp(-gamma x^2) with the same amplitude
# half-maximum point, sinc(1.8955) = 1/2.
SINC_GAUSS_GAMMA = float(np.log(2.0) / 1.8955**2)


def mehler_rho(mu: float) -> float:
    """Schmidt ratio of a correlated Gaussian amplitude.

    For F(x, y) = exp(-(x^2 + y^2)/(2 s^2) + mu x y / s^2) (any scale s,
    |mu| < 1) Mehler's expansion gives singular values proportional to
    rho^n with rho = (1 - sqrt(1 - mu^2)) / |mu|.
    """
    if mu == 0.0:
        return 0.0
    return float((1.0 - np.sqrt(1.0 - mu * mu)) / abs(mu))


def mehler_mu(rho: float) -> float:
    """Inverse of mehler_rho: the correlation giving Schmidt ratio rho."""
    return float(2.0 * rho / (1.0 + rho * rho))


def mehler_coefficients(mu: float, n: int) -> np.ndarray:
    """First n normalized Schmidt coefficients c_k = (1 - lam) lam^k."""
    lam = mehler_rho(mu) ** 2
    return (1.0 - lam) * lam ** np.arange(n)


def mehler_K(mu: float) -> float:
    """Schmidt number of the correlated Gaussian: (1 + lam)/(1 - lam)."""
    lam = mehler_rho(mu) ** 2
    return float((1.0 + lam) / (1.0 - lam))


def mehler_kernel(x: np.ndarray, rho: float) -> np.ndarray:
    """Correlated Gaussian grid whose Schmidt modes are Hermite functions.

    Uses the unit-variance parameterization
        F = exp(-q (x^2 + y^2) + 2 b x y),
        q = (1 + rho^2) / (2 (1 - rho^2)),  b = rho / (1 - rho^2),
    for which the correlation is mu = b / q = 2 rho / (1 + rho^2) and the
    envelope decays fast enough along the diagonal that a +-15 window
    truncates below double precision.
    """
    q = (1.0 + rho**2) / (2.0 * (1.0 - rho**2))
    b = rho / (1.0 - rho**2)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.exp(-q * (X**2 + Y**2) + 2.0 * b * X * Y)


def double_gaussian_K(
    beta1_p: float,
    beta1_s: float,
    beta1_i: float,
    sigma: float,
    L_m: float,
    gamma: float = SINC_GAUSS_GAMMA,
) -> float:
    """Analytic Schmidt number of a Gaussian-pump, Gaussian-sinc JSA.

    Replacing sinc(delta_k L / 2) by exp(-gamma (delta_k L / 2)^2) makes
    |F| a bivariate Gaussian in the frequency offsets (x, y):

        ln |F| = -(x + y)^2 / (4 sigma^2) - gamma L^2 (a x + b y)^2 / 4,
        a = beta1_p - beta1_s,  b = beta1_p - beta1_i,

    a quadratic form -(A x^2 + 2 B x y + C y^2)/2 whose Schmidt number
    follows from the Mehler formulas with mu = -B / sqrt(A C).
    """
    a = beta1_p - beta1_s
    b = beta1_p - beta1_i
    A = 1.0 / (2.0 * sigma**2) + gamma * L_m**2 * a**2 / 2.0
    C = 1.0 / (2.0 * sigma**2) + gamma * L_m**2 * b**2 / 2.0
    B = 1.0 / (2.0 * sigma**2) + gamma * L_m**2 * a * b / 2.0
    mu = -B / np.sqrt(A * C)
    return mehler_K(float(mu))


def sinc_gaussian_K(
    beta1_p: float,
    beta1_s: float,
    beta1_i: float,
    sigma: float,
    L_m: float,
    nodes: int = 400,
) -> float:
    """Exact Schmidt number of a Gaussian-pump, linearized-sinc JSA.

    The complex amplitude, with no Gaussian stand-in for the sinc, is

        F(x, y) = exp(-(x + y)^2 / (4 sigma^2)) sinc(theta) exp(i theta),
        theta = L (a x + b y) / 2,
        a = beta1_p - beta1_s,  b = beta1_p - beta1_i.

    Fourier-transforming each photon to time is a local unitary, so the
    Schmidt spectrum does not change.  With sinc(theta) exp(i theta) =
    int_0^1 exp(2 i theta t) dt, the JSA in (t_s, t_i) is a Gaussian ridge
    cut to a strip:

        exp(-sigma^2 (b t_s - a t_i)^2 / (a - b)^2),
        0 <= (t_s - t_i) / (a - b) <= L.

    In the scaled times T = sigma t_s, with alpha = sigma a L,
    beta = sigma b L and delta = (T' - T) / (alpha - beta), the signal's
    reduced density matrix is one Gaussian integral over the strip,

        rho(T, T') = int exp(-(T - alpha w)^2 - (T' - alpha (w + delta))^2) dw,
        max(0, -delta) <= w <= min(1, 1 - delta),

    a Gaussian times a difference of erf.  Tr rho = sqrt(pi / 2) exactly;
    Tr rho^2 is a 2-D quadrature over T and D = T' - T.  The integrand is
    smooth and decaying in T (trapezoid, spectrally accurate) and smooth in
    D on 0 <= D <= |alpha - beta| (Gauss-Legendre); rho is symmetric and
    vanishes for |delta| > 1, so that half-range counts twice.  Then
    K = (Tr rho)^2 / Tr rho^2 (Law, Walmsley & Eberly, PRL 84, 5304
    (2000)).
    """
    a = beta1_p - beta1_s
    b = beta1_p - beta1_i
    if a == b:
        raise ValueError("equal group-delay gaps: the JSA is not normalizable")
    # K is the same for either photon; reduce the one with the steeper arm
    # so that alpha != 0
    if abs(a) < abs(b):
        a, b = b, a
    alpha = sigma * a * L_m
    beta = sigma * b * L_m

    T = np.linspace(min(0.0, alpha) - 8.0, max(0.0, alpha) + 8.0, nodes)
    x, wts = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * abs(alpha - beta)
    D = (half * (x + 1.0))[:, None]
    delta = D / (alpha - beta)
    w0 = np.maximum(0.0, -delta)
    w1 = np.minimum(1.0, 1.0 - delta)
    # (T - alpha w)^2 + (T2 - alpha w)^2 = 2 (alpha w - m)^2 + (T - T2)^2 / 2
    T2 = T[None, :] + D - alpha * delta
    m = 0.5 * (T[None, :] + T2)
    rho = (
        np.exp(-0.5 * (T[None, :] - T2) ** 2)
        * np.sqrt(np.pi / 8.0) / alpha
        * (erf(np.sqrt(2.0) * (alpha * w1 - m))
           - erf(np.sqrt(2.0) * (alpha * w0 - m)))
    )
    tr_rho2 = 2.0 * half * np.sum(wts[:, None] * rho**2) * (T[1] - T[0])
    return float((np.pi / 2.0) / tr_rho2)


def capillary_delta_eff(fiber, gas, lambda_nm) -> np.ndarray:
    """n_eff - 1 of a bare capillary: gas dispersion minus the core deficit
    u^2 / (2 k0^2 n_gas R^2), with no strut (cot) term."""
    from hcfwm import gasmedia

    lam = np.asarray(lambda_nm, dtype=float)
    dg = gasmedia.delta_gas(gas, lam, check=False)
    k0 = 2.0 * np.pi / (lam * 1e-9)
    R = fiber.R_eff_um * 1e-6
    return dg - fiber.u**2 / (2.0 * k0**2 * (1.0 + dg) * R**2)


def three_kappa_phi(fiber, gas, omega_s, omega_i, L_m: float) -> np.ndarray:
    """Loss-free full-mode phi without a Kerr term, from three reduced
    wavevectors formed here: delta_k = 2 kappa(omega_bar) - kappa_s -
    kappa_i with omega_bar = (omega_s + omega_i) / 2, and phi =
    sinc(delta_k L / 2) exp(i delta_k L / 2)."""
    from hcfwm.fibermodel import reduced_kappa

    om_s = np.asarray(omega_s, dtype=float)
    om_i = np.asarray(omega_i, dtype=float)
    dk = (
        2.0 * reduced_kappa(fiber, gas, 0.5 * (om_s + om_i), check=False)
        - reduced_kappa(fiber, gas, om_s, check=False)
        - reduced_kappa(fiber, gas, om_i, check=False)
    )
    x = dk * L_m / 2.0
    return np.sinc(x / np.pi) * np.exp(1j * x)


def per_slice_set_scan(intensity, axis, seeds, scale, noise) -> np.ndarray:
    """Slices of a seeded scan, one seed at a time: the JSI column at each
    seed, interpolated linearly in ``axis`` (increasing), times
    ``scale[k]``, then ``noise``'s multiplicative draws (clipped at zero)
    and dark floor."""
    rows = []
    for k, omega in enumerate(seeds):
        j = int(np.searchsorted(axis, omega))
        if j == 0:
            col = intensity[:, 0]
        elif j >= axis.size:
            col = intensity[:, -1]
        else:
            w = (omega - axis[j - 1]) / (axis[j] - axis[j - 1])
            col = (
                intensity[:, j - 1] if w == 0.0
                else (1.0 - w) * intensity[:, j - 1] + w * intensity[:, j]
            )
        out = scale[k] * col
        if noise.rel_sigma > 0.0:
            draws = noise.rng_for_slice(k).standard_normal(out.size)
            out = np.maximum(out * (1.0 + noise.rel_sigma * draws), 0.0)
        if noise.dark_floor > 0.0:
            out = out + noise.dark_floor
        rows.append(out)
    return np.vstack(rows)


def csv_writer_text(header, rows) -> str:
    """CSV through ``csv.writer`` with "\\n" line ends, every float cell
    formatted f"{v:.9g}"; text and int cells go to ``csv.writer`` as they
    are."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in [header, *rows]:
        writer.writerow(
            [v if isinstance(v, (str, int)) else f"{v:.9g}" for v in row]
        )
    return buf.getvalue()


def tolist_jsa_json(grid, metadata: dict) -> str:
    """The text of jsa.json: the axes and the row-major magnitude and phase
    of ``grid`` as ``.tolist()`` lists, and ``metadata``, through
    ``json.dumps``."""
    return json.dumps(
        {
            "omega_s_rad_s": grid.omega_s.tolist(),
            "omega_i_rad_s": grid.omega_i.tolist(),
            "lambda_s_nm": grid.lambda_s_nm.tolist(),
            "lambda_i_nm": grid.lambda_i_nm.tolist(),
            "magnitude": np.abs(grid.values).tolist(),
            "phase_rad": np.angle(grid.values).tolist(),
            "metadata": metadata,
        },
        sort_keys=True,
    )


def svd_mode_errors(matrix, result) -> tuple[float, float, float]:
    """Worst errors of the modes a complex ``schmidt_decompose`` result
    holds, against a full SVD M = U S V^H of its amplitude matrix: the
    residual ||M v_n - s_n S_n|| / s_n with v_n = conj(I_n); 1 - |<S_n,
    U[:, n]>| and 1 - |<I_n, V^H[n]>|; and |arg <r, S_n>| for the
    ramp r_j = j + 1 of the phase rule."""
    u_ref, s, vh_ref = np.linalg.svd(matrix, full_matrices=False)
    sig, idl = result.signal_modes, result.idler_modes
    k = sig.shape[1]
    residual = np.linalg.norm(matrix @ np.conj(idl) - sig * s[:k], axis=0) / s[:k]
    overlap = np.minimum(
        np.abs(np.sum(np.conj(u_ref[:, :k]) * sig, axis=0)),
        np.abs(np.sum(np.conj(vh_ref[:k]).T * idl, axis=0)),
    )
    ramp = np.arange(1.0, sig.shape[0] + 1.0)
    phase = np.abs(np.angle(ramp @ sig))
    return float(residual.max()), float(1.0 - overlap.min()), float(phase.max())
