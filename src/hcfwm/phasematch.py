"""Multi-branch degenerate-pump four-wave mixing phase matching.

Two pump photons at omega_p convert to signal and idler at
omega_s = omega_p + delta_omega and omega_i = omega_p - delta_omega.  The
wavevector mismatch is evaluated entirely in reduced quantities (the
omega/c parts of k_s + k_i - 2 k_p cancel exactly):

    delta_k = kappa_s + kappa_i - 2 kappa_p  [- 2 gamma P_peak]

with the optional Kerr contribution gamma = n2 omega_p / (c A_eff),
A_eff = pi R_eff^2, off by default (P_peak = 0).

The solver scans delta_omega on a dense grid, masks out points whose signal
or idler falls outside a transmission band or inside a resonance exclusion
zone, brackets every sign change of delta_k within contiguous valid runs,
and bisects each bracket until |delta_k| <= 1e-4 rad/m.  Because the band
structure is split by wall resonances, several disjoint solutions can
coexist; each solved branch is annotated with its band labels, the
stripe angle

    theta = -arctan((beta1_p - beta1_s) / (beta1_p - beta1_i))

and the phase-matching width

    dphi = |1 / (2 L^2 (beta1_p - beta1_s)(beta1_p - beta1_i))|

stored at L = 1 m and rescaled by 1/L^2 on request.  Branches whose signal
and idler sit in different band pairs belong to different families; the
(band_s, band_i) pair is the family key.
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from . import export, fibermodel
from .errors import NumericalError, RangeError, ValidationError
from .fibermodel import (
    _C,
    FiberModel,
    lambda_nm_from_omega,
    omega_from_lambda_nm,
)
from .gasmedia import GasState

BISECT_TOL_RAD_M = 1e-4
DEFAULT_GRID_POINTS = 4000
# default near-pump cutoff: |delta_omega| / 2 pi >= 5e12 Hz
DEFAULT_DETUNING_MIN = 2.0 * np.pi * 5e12

DENSITY_CSV_HEADER = ("lambda_p_nm", "delta_omega_THz", "theta_deg", "band_s", "band_i")


def theta_deg_from_beta1(beta1_p: float, beta1_s: float, beta1_i: float) -> float:
    """Stripe angle in degrees, in (-90, 90].

    The beta1_p = beta1_i limit is a vertical stripe, returned as +90
    rather than a division error; the doubly degenerate case (all three
    group delays equal) has no defined orientation and returns 0.
    """
    num = beta1_p - beta1_s
    den = beta1_p - beta1_i
    if den == 0.0:
        return 90.0 if num != 0.0 else 0.0
    return float(np.degrees(-np.arctan(num / den)))


def dphi_width_from_beta1(
    beta1_p: float, beta1_s: float, beta1_i: float, L_m: float = 1.0
) -> float:
    """Phase-matching width |1 / (2 L^2 (b1p-b1s)(b1p-b1i))| in (rad/s)^2."""
    num = (beta1_p - beta1_s) * (beta1_p - beta1_i)
    if num == 0.0:
        return np.inf
    return abs(1.0 / (2.0 * L_m**2 * num))


@dataclass(frozen=True)
class PhaseMatchBranch:
    """One phase-matched (signal, idler) solution for a given pump."""

    omega_p: float
    omega_s: float
    omega_i: float
    band_p: str
    band_s: str
    band_i: str
    beta1_p: float
    beta1_s: float
    beta1_i: float
    residual_rad_m: float

    def __post_init__(self):
        if not (self.omega_s >= self.omega_p >= self.omega_i > 0.0):
            raise ValidationError(
                "branch ordering must satisfy omega_s >= omega_p >= omega_i > 0"
            )

    @property
    def delta_omega(self) -> float:
        return self.omega_s - self.omega_p

    @property
    def lambda_p_nm(self) -> float:
        return float(lambda_nm_from_omega(self.omega_p))

    @property
    def lambda_s_nm(self) -> float:
        return float(lambda_nm_from_omega(self.omega_s))

    @property
    def lambda_i_nm(self) -> float:
        return float(lambda_nm_from_omega(self.omega_i))

    @property
    def family(self) -> tuple[str, str]:
        return (self.band_s, self.band_i)

    @property
    def theta_deg(self) -> float:
        return theta_deg_from_beta1(self.beta1_p, self.beta1_s, self.beta1_i)

    def dphi_width(self, L_m: float = 1.0) -> float:
        return dphi_width_from_beta1(self.beta1_p, self.beta1_s, self.beta1_i, L_m)


def kerr_gamma(fiber: FiberModel, gas: GasState, omega_p: float) -> float:
    """Kerr nonlinear parameter gamma = n2 omega_p / (c A_eff) in 1/(W m)."""
    a_eff = np.pi * (fiber.R_eff_um * 1e-6) ** 2
    return gas.n2_m2W * omega_p / (_C * a_eff)


def _check_peak_power(pump_peak_power_W: float) -> None:
    if isinstance(pump_peak_power_W, bool) or not isinstance(
        pump_peak_power_W, numbers.Real
    ):
        raise ValidationError(
            f"pump_peak_power_W must be a number, got {pump_peak_power_W!r}"
        )
    if not (math.isfinite(pump_peak_power_W) and pump_peak_power_W >= 0.0):
        raise ValidationError(
            f"pump_peak_power_W must be finite and >= 0, got {pump_peak_power_W}"
        )


def delta_k(
    fiber: FiberModel,
    gas: GasState,
    omega_p,
    omega_s,
    omega_i,
    pump_peak_power_W: float = 0.0,
    check: bool = True,
):
    """Wavevector mismatch k_s + k_i - 2 k_p in rad/m.

    Symmetric under signal-idler exchange.  With nonzero peak power the
    Kerr term -2 gamma P is included.
    """
    _check_peak_power(pump_peak_power_W)
    ks = fibermodel.reduced_kappa(fiber, gas, omega_s, check=check)
    ki = fibermodel.reduced_kappa(fiber, gas, omega_i, check=check)
    kp = fibermodel.reduced_kappa(fiber, gas, omega_p, check=check)
    out = ks + ki - 2.0 * kp
    if pump_peak_power_W > 0.0:
        om_p = np.asarray(omega_p, dtype=float)
        out = out - 2.0 * kerr_gamma(fiber, gas, om_p) * pump_peak_power_W
    return out


def solve_phase_matching(
    fiber: FiberModel,
    gas: GasState,
    omega_p: float,
    detuning_window: tuple[float, float] | None = None,
    pump_peak_power_W: float = 0.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[PhaseMatchBranch]:
    """All phase-matched branches of one pump, sorted by detuning.

    detuning_window is (min, max) of delta_omega in rad/s; the default
    starts at the near-pump cutoff (|delta_omega|/2pi = 5 THz, below which
    FWM merges into the pump line) and ends where signal or idler leaves
    the model window.
    """
    _check_peak_power(pump_peak_power_W)
    structure = fibermodel.band_structure(fiber, gas)
    lam_p = float(lambda_nm_from_omega(omega_p))
    band_p = structure.require_band(lam_p)
    win_lo, win_hi = structure.window_nm

    if detuning_window is None:
        dw_lo = DEFAULT_DETUNING_MIN
        dw_hi = min(
            float(omega_from_lambda_nm(win_lo)) - omega_p,  # signal edge
            omega_p - float(omega_from_lambda_nm(win_hi)),  # idler edge
        ) * (1.0 - 1e-9)
    else:
        dw_lo, dw_hi = float(detuning_window[0]), float(detuning_window[1])
    if not 0.0 < dw_lo < dw_hi:
        raise ValidationError(
            f"detuning window must satisfy 0 < min < max, got ({dw_lo}, {dw_hi})"
        )
    if grid_points < 16:
        raise ValidationError("grid_points must be >= 16")

    dw = np.linspace(dw_lo, dw_hi, int(grid_points))
    omega_s = omega_p + dw
    omega_i = omega_p - dw
    ok = structure.in_band_mask(lambda_nm_from_omega(omega_s))
    ok &= structure.in_band_mask(lambda_nm_from_omega(omega_i))
    ok &= omega_i > 0.0

    kp = float(fibermodel.reduced_kappa(fiber, gas, np.array([omega_p]), check=False)[0])
    gamma_term = (
        2.0 * kerr_gamma(fiber, gas, omega_p) * pump_peak_power_W
        if pump_peak_power_W > 0.0
        else 0.0
    )

    mismatch = np.full(dw.shape, np.nan)
    if np.any(ok):
        mismatch[ok] = (
            fibermodel.reduced_kappa(fiber, gas, omega_s[ok], check=False)
            + fibermodel.reduced_kappa(fiber, gas, omega_i[ok], check=False)
            - 2.0 * kp
            - gamma_term
        )

    def f(detuning: float) -> float:
        ks = fibermodel.reduced_kappa(
            fiber, gas, np.array([omega_p + detuning]), check=False
        )[0]
        ki = fibermodel.reduced_kappa(
            fiber, gas, np.array([omega_p - detuning]), check=False
        )[0]
        return float(ks + ki - 2.0 * kp - gamma_term)

    roots: list[tuple[float, float]] = []  # (delta_omega, residual)
    for i in range(dw.size - 1):
        if not (ok[i] and ok[i + 1]):
            continue
        fa, fb = mismatch[i], mismatch[i + 1]
        if fa == 0.0:
            roots.append((float(dw[i]), 0.0))
            continue
        if fa * fb >= 0.0:
            continue
        a, b = float(dw[i]), float(dw[i + 1])
        fm = fa
        m = a
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = f(m)
            if abs(fm) <= BISECT_TOL_RAD_M:
                break
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        else:
            raise NumericalError(
                f"bisection stalled at delta_omega = {m:.6e} rad/s with "
                f"|delta_k| = {abs(fm):.3e} rad/m > {BISECT_TOL_RAD_M} rad/m"
            )
        roots.append((m, fm))

    cell = float(dw[1] - dw[0]) if dw.size > 1 else 0.0
    roots.sort(key=lambda r: r[0])
    for (r1, _), (r2, _) in zip(roots, roots[1:]):
        if r2 - r1 < 2.0 * cell:
            warnings.warn(
                f"phase-matching roots {r1:.4e} and {r2:.4e} rad/s are closer "
                f"than two grid cells; increase grid_points to resolve them",
                stacklevel=2,
            )

    branches = []
    for detuning, residual in roots:
        om_s = omega_p + detuning
        om_i = omega_p - detuning  # exact energy conservation by construction
        lam_s = float(lambda_nm_from_omega(om_s))
        lam_i = float(lambda_nm_from_omega(om_i))
        band_s = structure.require_band(lam_s)
        band_i = structure.require_band(lam_i)
        branches.append(
            PhaseMatchBranch(
                omega_p=omega_p,
                omega_s=om_s,
                omega_i=om_i,
                band_p=band_p.label,
                band_s=band_s.label,
                band_i=band_i.label,
                beta1_p=fibermodel.dispersion_derivatives(fiber, gas, lam_p).beta1,
                beta1_s=fibermodel.dispersion_derivatives(fiber, gas, lam_s).beta1,
                beta1_i=fibermodel.dispersion_derivatives(fiber, gas, lam_i).beta1,
                residual_rad_m=residual,
            )
        )
    return branches


@dataclass(frozen=True)
class DensityRecord:
    """One (pump, branch) entry of a phase-matching density map."""

    lambda_p_nm: float
    delta_omega: float
    theta_deg: float
    band_p: str
    band_s: str
    band_i: str
    lambda_s_nm: float
    lambda_i_nm: float


def density_map(
    fiber: FiberModel,
    gas: GasState,
    pump_range_nm: tuple[float, float],
    steps: int,
    detuning_window: tuple[float, float] | None = None,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[DensityRecord]:
    """Branches for every pump on a wavelength grid.

    Pumps that land outside a band, or whose solve fails numerically, are
    recorded as gaps (no rows) rather than aborting the map.  Pumps are
    solved one after another and the rows come out in pump order.
    """
    lo, hi = float(pump_range_nm[0]), float(pump_range_nm[1])
    if not 0.0 < lo < hi:
        raise ValidationError(f"bad pump range ({lo}, {hi}) nm")
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    pumps = np.linspace(lo, hi, int(steps))

    def work(lam_p: float) -> list[DensityRecord]:
        try:
            branches = solve_phase_matching(
                fiber, gas, float(omega_from_lambda_nm(lam_p)),
                detuning_window=detuning_window, grid_points=grid_points,
            )
        except (RangeError, NumericalError):
            return []
        return [
            DensityRecord(
                lambda_p_nm=lam_p,
                delta_omega=b.delta_omega,
                theta_deg=b.theta_deg,
                band_p=b.band_p,
                band_s=b.band_s,
                band_i=b.band_i,
                lambda_s_nm=b.lambda_s_nm,
                lambda_i_nm=b.lambda_i_nm,
            )
            for b in branches
        ]

    return [rec for lam in pumps for rec in work(float(lam))]


def density_map_to_csv(records: list[DensityRecord], path=None) -> str:
    """Serialize map records; delta_omega_THz is angular frequency / 1e12."""
    return export.to_csv(
        DENSITY_CSV_HEADER,
        (
            (r.lambda_p_nm, r.delta_omega / 1e12, r.theta_deg,
             r.band_s, r.band_i)
            for r in records
        ),
        path,
    )
