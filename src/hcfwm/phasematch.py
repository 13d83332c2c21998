"""Multi-branch degenerate-pump four-wave mixing phase matching.

Two pump photons at omega_p convert to signal and idler at
omega_s = omega_p + delta_omega and omega_i = omega_p - delta_omega.  The
wavevector mismatch is evaluated entirely in reduced quantities (the
omega/c parts of k_s + k_i - 2 k_p cancel exactly):

    delta_k = kappa_s + kappa_i - 2 kappa_p  [+ 2 gamma P_peak]

with the optional Kerr contribution gamma = n2 omega_p / (c A_eff),
A_eff = pi R_eff^2, off by default (P_peak = 0).  The sign is the textbook
one (Agrawal, Nonlinear Fiber Optics, sec. 10.2): near the pump
delta_k ~ beta2 Omega^2, so the Kerr root Omega_MI = sqrt(2 gamma P /
|beta2|) exists only where beta2 < 0.  delta_k is the one place the
mismatch is formed; the full-mode JSA takes it from there too.

The solver scans delta_omega on a dense grid, masks out points whose signal
or idler falls outside a transmission band or inside a resonance exclusion
zone, and brackets every sign change of delta_k between adjacent valid
points, all with array operations.  One bisection loop then halves every
bracket at once until each has |delta_k| <= 1e-4 rad/m.  Because the band
structure is split by wall resonances, several disjoint solutions can
coexist; each solved branch is annotated with its band labels, beta1 of
pump, signal and idler (from one dispersion_derivatives call), the stripe
angle

    theta = -arctan((beta1_p - beta1_s) / (beta1_p - beta1_i))

and the phase-matching width

    dphi = |1 / (2 L^2 (beta1_p - beta1_s)(beta1_p - beta1_i))|

stored at L = 1 m and rescaled by 1/L^2 on request.  Branches whose signal
and idler sit in different band pairs belong to different families; the
(band_s, band_i) pair is the family key.

The density map is the same solve over a grid of pump wavelengths, with
the same solver settings, Kerr term included.  Each pump is scanned on its
own detuning grid, but the brackets of all pumps are bisected in one loop,
each at its own pump frequency, and beta1 comes from one
dispersion_derivatives call for the whole map; so a map row is bit for bit
what a single-pump solve gives.  A pump that fails with one of
``errors.GAP_ERRORS`` (outside a band, no room for the default detuning
window at a window edge, a stalled bracket, no stencil room) is a gap.
density_map_to_csv writes the branches one row each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import export, fibermodel
from .errors import (
    GAP_ERRORS,
    HcfwmError,
    NumericalError,
    RangeError,
    ValidationError,
    check_number,
    check_pair,
)
from .fibermodel import (
    _C,
    FiberModel,
    lambda_nm_from_omega,
    omega_from_lambda_nm,
    roman,
)
from .gasmedia import GasState

BISECT_TOL_RAD_M = 1e-4
DEFAULT_GRID_POINTS = 4000
# Without caps, a typo such as grid_points: 4e9 exhausts memory instead of
# failing.  The recipes use 4000 grid points and 26 or 51 pump steps.
MAX_GRID_POINTS = 1_000_000
MAX_PUMP_STEPS = 10_000
# Each cap holds alone, but both at once would scan for over an hour.  At
# about 0.5 us per scanned point (measured on a 2-vCPU x86 host), this
# bounds a density map to about a minute.
MAX_MAP_POINTS = 10**8
# default near-pump cutoff: |delta_omega| / 2 pi >= 5e12 Hz
DEFAULT_DETUNING_MIN = 2.0 * np.pi * 5e12

DENSITY_CSV_HEADER = ("lambda_p_nm", "delta_omega_THz", "theta_deg", "band_s", "band_i")


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
    # the Kerr power the branch was solved at; full-mode phi uses it too
    pump_peak_power_W: float = 0.0

    def __post_init__(self):
        for name in ("omega_p", "omega_s", "omega_i", "beta1_p", "beta1_s",
                     "beta1_i", "residual_rad_m"):
            check_number(name, getattr(self, name))
        check_number("pump_peak_power_W", self.pump_peak_power_W, lo=0)
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
        """Stripe angle in degrees, in (-90, 90].

        The beta1_p = beta1_i limit is a vertical stripe, returned as +90
        rather than a division error; the doubly degenerate case (all three
        group delays equal) has no defined orientation and returns 0.
        """
        num = self.beta1_p - self.beta1_s
        den = self.beta1_p - self.beta1_i
        if den == 0.0:
            return 90.0 if num != 0.0 else 0.0
        return float(np.degrees(-np.arctan(num / den)))

    def dphi_width(self, L_m: float = 1.0) -> float:
        """Phase-matching width |1 / (2 L^2 (b1p-b1s)(b1p-b1i))| in (rad/s)^2."""
        check_number("L_m", L_m, lo=0, lo_open=True)
        num = (self.beta1_p - self.beta1_s) * (self.beta1_p - self.beta1_i)
        if num == 0.0:
            return np.inf
        return abs(1.0 / (2.0 * L_m**2 * num))


def kerr_gamma(fiber: FiberModel, gas: GasState, omega_p):
    """Kerr nonlinear parameter gamma = n2 omega_p / (c A_eff) in 1/(W m),
    at one pump frequency or per element of an array."""
    a_eff = np.pi * (fiber.R_eff_um * 1e-6) ** 2
    return gas.n2_m2W * omega_p / (_C * a_eff)


def delta_k(
    fiber: FiberModel,
    gas: GasState,
    omega_p,
    omega_s,
    omega_i,
    pump_peak_power_W: float = 0.0,
    check: bool = True,
):
    """Wavevector mismatch k_s + k_i - 2 k_p + 2 gamma P in rad/m.

    The three frequency sets broadcast together; kappa is evaluated once
    for all of them, checked in the order signal, idler, pump.  Symmetric
    under signal-idler exchange.  With nonzero peak power the Kerr term
    +2 gamma P is added, gamma taken at each pump frequency (the textbook
    sign; see the module docstring).
    """
    check_number("pump_peak_power_W", pump_peak_power_W, lo=0)
    om = [np.asarray(w, dtype=float) for w in (omega_s, omega_i, omega_p)]
    kappa = fibermodel.reduced_kappa(
        fiber, gas, np.concatenate([w.ravel() for w in om]), check=check
    )
    ends = np.cumsum([w.size for w in om])
    ks, ki, kp = (kappa[e - w.size:e].reshape(w.shape) for e, w in zip(ends, om))
    out = ks + ki - 2.0 * kp
    if pump_peak_power_W > 0.0:
        out = out + 2.0 * kerr_gamma(fiber, gas, om[2]) * pump_peak_power_W
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
    check_number("omega_p", omega_p, lo=0, lo_open=True)
    return _solve_pumps(
        fiber, gas, [omega_p], (), detuning_window, pump_peak_power_W, grid_points
    )


def _scan_pump(fiber, gas, structure, omega_p, window, pump_peak_power_W, grid_points):
    """One pump's band label, detuning grid step, and the cells of its grid
    that hold a root, as rows (left end, right end, mismatch at the left
    end): a mismatch of 0 there is the root itself."""
    lambda_p = float(lambda_nm_from_omega(omega_p))
    band_p = structure.require_band(lambda_p)
    if window is None:
        win_lo, win_hi = structure.window_nm
        dw_lo = DEFAULT_DETUNING_MIN
        dw_hi = min(
            float(omega_from_lambda_nm(win_lo)) - omega_p,  # signal edge
            omega_p - float(omega_from_lambda_nm(win_hi)),  # idler edge
        ) * (1.0 - 1e-9)
        if not dw_lo < dw_hi:
            raise RangeError(
                f"no detuning window for the pump at {lambda_p:.6g} nm: it is "
                f"within {DEFAULT_DETUNING_MIN / (2e12 * np.pi):g} THz of an edge "
                f"of the model window [{win_lo:.6g}, {win_hi:.6g}] nm"
            )
    else:
        dw_lo, dw_hi = window
    dw = np.linspace(dw_lo, dw_hi, grid_points)
    ok = structure.in_band_mask(lambda_nm_from_omega(omega_p + dw))
    ok &= structure.in_band_mask(lambda_nm_from_omega(omega_p - dw))
    dk = np.full(dw.shape, np.nan)
    dk[ok] = delta_k(
        fiber, gas, omega_p, omega_p + dw[ok], omega_p - dw[ok],
        pump_peak_power_W, check=False,
    )
    # in a cell with both ends valid, a zero at the left end is a root and
    # a sign change is a bracket; so is a NaN product, which is bisected
    # (and normally stalls with an error) rather than skipped
    fa, fb = dk[:-1], dk[1:]
    cell_ok = ok[:-1] & ok[1:]
    cells = np.flatnonzero(cell_ok & ((fa == 0.0) | ~(fa * fb >= 0.0)))
    return band_p.label, float(dw[1] - dw[0]), np.array(
        [dw[cells], dw[cells + 1], fa[cells]]
    )


def _bisect(fiber, gas, omega_p, a, b, fa, pump_peak_power_W):
    """Halve every bracket [a, b] at once, each at its own pump frequency,
    until |delta_k| <= BISECT_TOL_RAD_M or 200 steps have passed.

    Returns the last midpoint and mismatch of each bracket, and the indexes
    of the brackets still open (stalled)."""
    roots, residuals = np.array(a), np.zeros(a.size)
    live = np.arange(a.size)
    for _ in range(200):
        if not live.size:
            break
        m = 0.5 * (a + b)
        fm = delta_k(
            fiber, gas, omega_p, omega_p + m, omega_p - m,
            pump_peak_power_W, check=False,
        )
        roots[live], residuals[live] = m, fm
        left = fa * fm < 0.0
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
        keep = np.abs(fm) > BISECT_TOL_RAD_M
        live, a, b, fa = live[keep], a[keep], b[keep], fa[keep]
        omega_p = omega_p[keep]
    return roots, residuals, live


def _solve_pumps(
    fiber: FiberModel,
    gas: GasState,
    omegas_p,
    gaps: tuple[type[HcfwmError], ...],
    detuning_window: tuple[float, float] | None = None,
    pump_peak_power_W: float = 0.0,
    grid_points: int = DEFAULT_GRID_POINTS,
) -> list[PhaseMatchBranch]:
    """The branches of every pump in ``omegas_p``, in pump order: the one
    solve behind solve_phase_matching (one pump) and density_map.

    Each pump is scanned on its own detuning grid; then one bisection loop
    halves the brackets of all pumps together.  An error of a type in
    ``gaps`` drops only its own pump, with a warning that names the pump
    and the error.
    """
    check_number("pump_peak_power_W", pump_peak_power_W, lo=0)
    grid_points = check_number(
        "grid_points", grid_points, lo=16, hi=MAX_GRID_POINTS, integer=True
    )
    if len(omegas_p) * grid_points > MAX_MAP_POINTS:
        raise ValidationError(
            f"steps x grid_points must be <= {MAX_MAP_POINTS}, got "
            f"{len(omegas_p)} x {grid_points}"
        )
    if detuning_window is not None:
        detuning_window = tuple(map(
            float, check_pair("detuning window", detuning_window, lo=0, lo_open=True)
        ))
        if not detuning_window[0] < detuning_window[1]:
            raise ValidationError(
                f"detuning window must satisfy 0 < min < max, got {detuning_window}"
            )
    structure = fibermodel.band_structure(fiber, gas)

    scans = []
    for omega_p in omegas_p:
        try:
            scans.append((omega_p, *_scan_pump(
                fiber, gas, structure, omega_p, detuning_window,
                pump_peak_power_W, grid_points,
            )))
        except gaps as exc:
            _warn_gap(omega_p, exc)
    pumps = [omega_p for omega_p, *_ in scans]
    # every pump's brackets in pump order, and in detuning order within a
    # pump; the brackets of pump k are bounds[k]:bounds[k + 1]
    sizes = [rows.shape[1] for *_, rows in scans]
    bounds = np.cumsum([0, *sizes]).tolist()
    om = np.repeat(np.asarray(pumps, dtype=float), sizes)
    roots, right, fa = np.concatenate(
        [np.empty((3, 0)), *(rows for *_, rows in scans)], axis=1
    )
    residuals = np.zeros(roots.size)
    stalled = np.zeros(roots.size, dtype=bool)
    # a bracket whose left end is an exact zero is solved, with residual 0
    todo = np.flatnonzero(fa != 0.0)
    roots[todo], residuals[todo], open_ = _bisect(
        fiber, gas, om[todo], roots[todo], right[todo], fa[todo], pump_peak_power_W
    )
    stalled[todo[open_]] = True

    # pump, then (signal, idler) per root; energy is conserved by
    # construction
    om_si = np.column_stack((om + roots, om - roots))
    lam = [
        lambda_nm_from_omega(np.concatenate(([omega_p], om_si[lo:hi].ravel())))
        for omega_p, lo, hi in zip(pumps, bounds, bounds[1:])
    ]
    # beta1 of every pump and root in one call; if that fails, each pump's
    # own call below raises the error that names its pump
    beta1 = None
    if roots.size:
        try:
            beta1 = fibermodel.dispersion_derivatives(
                fiber, gas, np.concatenate(lam)
            ).beta1
        except HcfwmError:
            pass

    branches: list[PhaseMatchBranch] = []
    for k, (omega_p, band_p, cell_w, _) in enumerate(scans):
        lo, hi = bounds[k], bounds[k + 1]
        try:
            if stalled[lo:hi].any():
                j = lo + int(np.argmax(stalled[lo:hi]))
                raise NumericalError(
                    f"bisection stalled at delta_omega = {roots[j]:.6e} rad/s with "
                    f"|delta_k| = {abs(residuals[j]):.3e} rad/m > "
                    f"{BISECT_TOL_RAD_M} rad/m"
                )
            for r1, r2 in zip(roots[lo:hi].tolist(), roots[lo + 1:hi].tolist()):
                if r2 - r1 < 2.0 * cell_w:
                    warnings.warn(
                        f"phase-matching roots {r1:.4e} and {r2:.4e} rad/s are "
                        f"closer than two grid cells; increase grid_points to "
                        f"resolve them",
                        stacklevel=3,
                    )
            if hi == lo:
                continue
            if beta1 is None:
                beta1_k = fibermodel.dispersion_derivatives(fiber, gas, lam[k]).beta1
            else:  # pump k's wavelengths start after k pumps and 2 lo roots
                beta1_k = beta1[k + 2 * lo:k + 2 * hi + 1]
            bands = np.array([roman(j) for j in structure.band_index(lam[k][1:])])
            branches += [
                PhaseMatchBranch(
                    omega_p=omega_p, omega_s=om_s, omega_i=om_i,
                    band_p=band_p, band_s=band_s, band_i=band_i,
                    beta1_p=float(beta1_k[0]), beta1_s=beta1_s, beta1_i=beta1_i,
                    residual_rad_m=residual, pump_peak_power_W=pump_peak_power_W,
                )
                for (om_s, om_i), (band_s, band_i), (beta1_s, beta1_i), residual
                in zip(
                    om_si[lo:hi].tolist(), bands.reshape(-1, 2).tolist(),
                    beta1_k[1:].reshape(-1, 2).tolist(), residuals[lo:hi].tolist(),
                )
            ]
        except gaps as exc:
            _warn_gap(omega_p, exc)
    return branches


def _warn_gap(omega_p: float, exc: HcfwmError) -> None:
    lambda_p = float(lambda_nm_from_omega(omega_p))
    warnings.warn(f"pump at {lambda_p:.6g} nm is a gap: {exc}")


def density_map(
    fiber: FiberModel,
    gas: GasState,
    pump_range_nm: tuple[float, float],
    steps: int,
    **solve,
) -> list[PhaseMatchBranch]:
    """The branches of every pump on a wavelength grid, in pump order.

    ``solve`` (detuning_window, pump_peak_power_W, grid_points) are the
    settings of ``solve_phase_matching``, and a map row is exactly what a
    single-pump solve gives: each pump is scanned on its own detuning grid,
    then one bisection loop halves the brackets of every pump at once.
    Pumps that land outside a band, that sit so close to a model-window
    edge that the default detuning window is empty, or whose solve fails
    numerically, are gaps (no branches) rather than aborting the map.
    ``steps`` times ``grid_points`` is refused above MAX_MAP_POINTS before
    any scan.
    """
    lo, hi = map(float, check_pair("pump range", pump_range_nm, lo=0, lo_open=True))
    if not lo < hi:
        raise ValidationError(f"bad pump range ({lo}, {hi}) nm")
    steps = check_number("steps", steps, lo=2, hi=MAX_PUMP_STEPS, integer=True)
    pumps = omega_from_lambda_nm(np.linspace(lo, hi, steps)).tolist()
    return _solve_pumps(fiber, gas, pumps, GAP_ERRORS, **solve)


def density_map_to_csv(
    branches: list[PhaseMatchBranch], path: str | None = None
) -> str | None:
    """Serialize map branches; delta_omega_THz is angular frequency / 1e12."""
    return export.to_csv(
        DENSITY_CSV_HEADER,
        (
            (b.lambda_p_nm, b.delta_omega / 1e12, b.theta_deg, b.band_s, b.band_i)
            for b in branches
        ),
        path,
    )
