"""Joint spectral amplitude F(omega_s, omega_i) = alpha * phi on a grid.

The two-photon amplitude of degenerate-pump FWM factors into an energy
conservation part, the autoconvolution of the pump spectral amplitude
evaluated at the frequency sum,

    alpha(omega_s + omega_i) = [A * A](omega_s + omega_i),

and a phase-matching part set by the fiber,

    phi = sinc(delta_k L / 2) * exp(i delta_k L / 2).

Around a solved branch (omega_s0, omega_i0) the mismatch linearizes to

    delta_k_lin =   (omega_s - omega_s0)(beta1_p - beta1_s)
                  + (omega_i - omega_i0)(beta1_p - beta1_i)

with zero offset at the branch itself.  The "full" mode instead takes the
un-linearized mismatch from phasematch.delta_k, pumped at
omega_bar = (omega_s + omega_i)/2 with the Kerr power the branch was
solved at; its first-order Taylor expansion reproduces delta_k_lin, so
both modes agree near the branch center and differ only where dispersion
curvature matters.

Grids are square (N x N), centered on the branch, with half-width
kappa_span * max(sqrt(2) sigma, sqrt(dphi width at L)) per axis.  Signal
and idler points outside their transmission band enter phi as NaN, so no
kappa sees them as numbers; cells whose signal, idler or (full mode)
omega_bar leaves its band are zeroed, and the clipped fraction is
reported, warning above zero and failing above 20%.  After construction
sum |F|^2 domega_s domega_i = 1 (the overall FWM gain constant is absorbed
into this normalization).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import export, fibermodel
from .errors import ClippedGridError, NumericalError, ValidationError, check_number
from .fibermodel import FiberModel, lambda_nm_from_omega
from .gasmedia import GasState
from .phasematch import PhaseMatchBranch, delta_k

DEFAULT_GRID_N = 512
# One complex N x N grid at N = 4096 holds 256 MiB, and the largest N the
# tests use is 1024; without a cap, n = 1e20 fails inside numpy.
MAX_GRID_N = 4096
DEFAULT_KAPPA_SPAN = 4.0
CLIP_FATAL_FRACTION = 0.20
# alpha squares sigma, which overflows above about 1.3e154 rad/s; a pump
# this wide is flat over any grid already
MAX_PUMP_SIGMA = 1e150
# build_jsa evaluates the grid this many cells at a time, rounded to whole rows
_BLOCK_CELLS = 32768


@dataclass(frozen=True)
class GaussianPump:
    """Gaussian pump, optionally with a sinusoidal spectral modulation,

        A(omega) ~ g(omega) * (1 + depth cos(k (omega - omega_p0))),
        g(omega) = exp(-(omega - omega_p0)^2 / (2 sigma^2)),  k = 2 pi / period.

    depth = 0, the default, is the transform-limited Gaussian and needs no
    period.  The modulation is an empirical stand-in for a pump carrying
    residual self-phase modulation structure; depth and period are
    calibration knobs, not measured quantities.
    """

    omega_p0: float
    sigma: float  # rad/s, field-amplitude standard deviation
    depth: float = 0.0
    period: float | None = None  # rad/s, set when depth > 0

    def __post_init__(self):
        check_number("omega_p0", self.omega_p0, lo=0, lo_open=True)
        check_number("sigma", self.sigma, lo=0, lo_open=True)
        check_number("sigma", self.sigma, hi=MAX_PUMP_SIGMA)
        check_number("modulation depth", self.depth, lo=0, hi=1, hi_open=True)
        if self.depth or self.period is not None:
            check_number("modulation period", self.period, lo=0, lo_open=True)

    @classmethod
    def from_fwhm(cls, lambda_nm: float, fwhm_fs: float) -> "GaussianPump":
        """Pump from center wavelength and intensity FWHM duration."""
        check_number("lambda_nm", lambda_nm, lo=0, lo_open=True)
        return cls(
            omega_p0=float(fibermodel.omega_from_lambda_nm(lambda_nm)),
            sigma=cls.sigma_from_fwhm(fwhm_fs),
        )

    @staticmethod
    def sigma_from_fwhm(fwhm_fs: float) -> float:
        """Field sigma in rad/s of a transform-limited Gaussian pulse:
        FWHM_t * FWHM_omega = 4 ln 2, so sigma = 2 sqrt(ln 2) / FWHM_t, and
        inf where that overflows."""
        check_number("fwhm_fs", fwhm_fs, lo=0, lo_open=True)
        with np.errstate(over="ignore"):
            return 2.0 * np.sqrt(np.log(2.0)) / (fwhm_fs * 1e-15)

    @property
    def fwhm_fs(self) -> float:
        return 2.0 * np.sqrt(np.log(2.0)) / self.sigma * 1e15

    def _ripple(self) -> tuple[float, float, float, float]:
        """(d, h^2, q, norm) with d the depth, h = k sigma / 2, q = exp(-h^2)
        and norm = 1 + 2 d q + (d^2 / 2)(1 + q^4), the squared L2 norm of A
        over that of g.  h is capped at 40, where q and h^2 q are 0 already."""
        h = min(math.pi * float(self.sigma) / float(self.period), 40.0)
        q = math.exp(-h * h)
        d = self.depth
        return d, h * h, q, 1.0 + 2.0 * d * q + 0.5 * d * d * (1.0 + q**4)

    @property
    def sizing_sigma(self) -> float:
        """Field width that sizes a JSA grid: sqrt(2) times the RMS width of
        the intensity spectrum |A|^2, which is sigma for depth 0."""
        if not self.depth:
            return self.sigma
        d, h2, q, norm = self._ripple()
        # the second moment of |A|^2 over that of g^2, sigma^2 / 2
        m2 = (
            1.0 + 2.0 * d * q * (1.0 - 2.0 * h2)
            + 0.5 * d * d * (1.0 + q**4 * (1.0 - 8.0 * h2))
        )
        return self.sigma * math.sqrt(m2 / norm)

    def alpha(self, Omega):
        """Energy conservation function at the frequency sum Omega: the
        autoconvolution [A * A](Omega) of A at unit L2 norm, in closed form
        with x = Omega - 2 omega_p0,

            exp(-x^2 / (4 sigma^2))
            * [1 + 2 d q cos(k x / 2) + (d^2 / 2)(cos(k x) + q^4)] / norm,

        q and norm as in ``_ripple``; exp(-x^2 / (4 sigma^2)) alone for
        depth 0.  Its peak alpha(2 omega_p0) is 1.  A function of
        omega_s + omega_i only, so alpha is anti-diagonal on the grid."""
        x = np.asarray(Omega, dtype=float) - 2.0 * self.omega_p0
        out = np.exp(-(x**2) / (4.0 * self.sigma**2))
        if self.depth:
            d, _, q, norm = self._ripple()
            c = np.cos(math.pi / self.period * x)  # cos(k x / 2)
            # cos(k x) = 2 c^2 - 1
            out *= (1.0 + 2.0 * d * q * c + d * d * (c * c - 0.5 + 0.5 * q**4)) / norm
        return out.astype(complex)

    def metadata(self) -> dict:
        """The pump entry of jsa.json's metadata."""
        meta = {
            "shape": "gaussian",
            "omega_p0_rad_s": self.omega_p0,
            "sigma_rad_s": self.sigma,
        }
        if self.depth:
            meta["modulation_depth"] = self.depth
            meta["modulation_period_rad_s"] = self.period
        return meta


def phi_function(
    fiber: FiberModel | None,
    gas: GasState | None,
    branch: PhaseMatchBranch,
    omega_s,
    omega_i,
    L_m: float,
    mode: str = "linearized",
    check: bool = True,
):
    """Phase-matching function phi = sinc(delta_k L/2) exp(i delta_k L/2).

    mode="linearized" uses the first-order expansion around the branch (no
    fiber/gas evaluation needed); mode="full" negates phasematch.delta_k
    at the pump omega_bar = (omega_s + omega_i)/2 and the branch's
    pump_peak_power_W, giving 2k(omega_bar) - k(omega_s) - k(omega_i) -
    2 gamma P, and requires fiber and gas.  A NaN frequency passes through
    kappa as NaN and gives NaN phi; |phi| <= 1 everywhere else.
    """
    check_number("fiber length L_m", L_m, lo=0, lo_open=True)
    om_s = np.asarray(omega_s, dtype=float)
    om_i = np.asarray(omega_i, dtype=float)
    if mode == "linearized":
        dk = (om_s - branch.omega_s) * (branch.beta1_p - branch.beta1_s) + (
            om_i - branch.omega_i
        ) * (branch.beta1_p - branch.beta1_i)
    elif mode == "full":
        if fiber is None or gas is None:
            raise ValidationError("full mode requires fiber and gas")
        dk = -delta_k(
            fiber, gas, 0.5 * (om_s + om_i), om_s, om_i,
            branch.pump_peak_power_W, check=check,
        )
    else:
        raise ValidationError(f"mode must be 'linearized' or 'full', got {mode!r}")
    x = dk * L_m / 2.0
    return np.sinc(x / np.pi) * np.exp(1j * x)


class FrequencyAxes:
    """Signal and idler axes omega_s and omega_i (rad/s), with their vacuum
    wavelengths; the base of every grid record."""

    @property
    def lambda_s_nm(self) -> np.ndarray:
        return lambda_nm_from_omega(self.omega_s)

    @property
    def lambda_i_nm(self) -> np.ndarray:
        return lambda_nm_from_omega(self.omega_i)


@dataclass(eq=False)
class JsaGrid(FrequencyAxes):
    """Discretized JSA with its construction metadata."""

    omega_s: np.ndarray
    omega_i: np.ndarray
    values: np.ndarray  # complex, values[j, k] = F(omega_s[j], omega_i[k])
    fiber: FiberModel
    gas: GasState
    pump: GaussianPump
    branch: PhaseMatchBranch
    L_m: float
    mode: str
    clipped_fraction: float

    @property
    def cell_area(self) -> float:
        return float(
            (self.omega_s[1] - self.omega_s[0]) * (self.omega_i[1] - self.omega_i[0])
        )


def build_jsa(
    fiber: FiberModel,
    gas: GasState,
    pump: GaussianPump,
    branch: PhaseMatchBranch,
    L_m: float,
    n: int = DEFAULT_GRID_N,
    kappa_span: float = DEFAULT_KAPPA_SPAN,
    mode: str = "linearized",
) -> JsaGrid:
    """JSA grid centered on a solved branch, normalized to unit L2 norm."""
    check_number("fiber length L_m", L_m, lo=0, lo_open=True)
    n = check_number("grid size n", n, lo=8, hi=MAX_GRID_N, integer=True)
    check_number("kappa_span", kappa_span, lo=0, lo_open=True)
    if not isinstance(pump, GaussianPump):
        raise ValidationError(f"unknown pump spectrum type {type(pump).__name__}")

    half = kappa_span * max(
        np.sqrt(2.0) * pump.sizing_sigma, np.sqrt(branch.dphi_width(L_m))
    )
    offsets = np.linspace(-half, half, n)
    omega_s = branch.omega_s + offsets
    omega_i = branch.omega_i + offsets

    structure = fibermodel.band_structure(fiber, gas)
    ok_s = structure.in_band_mask(lambda_nm_from_omega(omega_s))
    ok_i = structure.in_band_mask(lambda_nm_from_omega(omega_i))
    mask = np.outer(ok_s, ok_i)
    if mode == "full":
        om_bar = 0.5 * (omega_s[:, None] + omega_i[None, :])
        mask &= structure.in_band_mask(lambda_nm_from_omega(om_bar))

    clipped = 1.0 - float(np.count_nonzero(mask)) / mask.size
    if clipped > CLIP_FATAL_FRACTION:
        raise ClippedGridError(
            f"{clipped:.1%} of the JSA grid falls outside the transmission "
            f"bands (limit {CLIP_FATAL_FRACTION:.0%}); shrink kappa_span or "
            f"move the branch away from band edges"
        )
    if clipped > 0.0:
        warnings.warn(
            f"{clipped:.2%} of the JSA grid clipped by band edges",
            stacklevel=2,
        )

    # alpha * phi a block of whole rows at a time: each cell gets the same
    # bits as in one pass over the grid, and the temporaries stay small
    in_s = np.where(ok_s, omega_s, np.nan)[:, None]
    in_i = np.where(ok_i, omega_i, np.nan)[None, :]
    values = np.empty((n, n), dtype=complex)
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        phi = phi_function(
            fiber, gas, branch, in_s[rows], in_i, L_m, mode=mode, check=False
        )
        alpha = pump.alpha(omega_s[rows, None] + omega_i[None, :])
        np.multiply(alpha, phi, out=values[rows])
    values[~mask] = 0.0

    if not np.all(np.isfinite(values)):
        raise NumericalError("JSA grid contains non-finite values")
    grid = JsaGrid(
        omega_s=omega_s, omega_i=omega_i, values=values,
        fiber=fiber, gas=gas, pump=pump, branch=branch,
        L_m=float(L_m), mode=mode, clipped_fraction=clipped,
    )
    norm2 = np.sum(np.abs(values) ** 2) * grid.cell_area
    if norm2 <= 0.0:
        raise NumericalError("JSA grid is identically zero")
    values /= np.sqrt(norm2)
    return grid


def jsi(grid: JsaGrid) -> np.ndarray:
    """Joint spectral intensity |F|^2; sums to 1/cell_area by construction."""
    return np.abs(grid.values) ** 2


@dataclass(frozen=True)
class Marginals:
    """Single-photon spectra obtained by integrating out the partner."""

    signal: np.ndarray          # vs omega_s, integral d omega_i of JSI
    idler: np.ndarray           # vs omega_i
    centroid_omega_s: float
    centroid_omega_i: float
    centroid_lambda_s_nm: float
    centroid_lambda_i_nm: float


def marginals(intensity, omega_s, omega_i) -> Marginals:
    """Marginal spectra and intensity-weighted centroids of a real JSI on
    its axes: ``jsi(grid)`` on the grid's axes, or a tomography
    reconstruction.
    """
    intensity = np.asarray(intensity, dtype=float)
    omega_s = np.asarray(omega_s, dtype=float)
    omega_i = np.asarray(omega_i, dtype=float)
    if intensity.shape != (omega_s.size, omega_i.size):
        raise ValidationError("JSI shape does not match the axes")
    if min(omega_s.size, omega_i.size) < 2:
        raise ValidationError("JSI axes need at least 2 points")
    if not (np.all(np.isfinite(omega_s)) and np.all(np.isfinite(omega_i))):
        raise ValidationError("JSI axes must be finite")
    d_s = float(omega_s[1] - omega_s[0])
    d_i = float(omega_i[1] - omega_i[0])
    sig = intensity.sum(axis=1) * d_i
    idl = intensity.sum(axis=0) * d_s
    tot_s, tot_i = sig.sum(), idl.sum()
    # a NaN or inf cell makes its row and column sums, and so these
    # totals, non-finite: no separate pass over the grid is needed
    if not (np.isfinite(tot_s) and np.isfinite(tot_i)):
        raise ValidationError("JSI holds a non-finite value")
    if tot_s <= 0.0 or tot_i <= 0.0:
        raise ValidationError("JSI has no weight; cannot form centroids")
    cs = float(np.sum(sig * omega_s) / tot_s)
    ci = float(np.sum(idl * omega_i) / tot_i)
    return Marginals(
        signal=sig, idler=idl,
        centroid_omega_s=cs, centroid_omega_i=ci,
        centroid_lambda_s_nm=float(lambda_nm_from_omega(cs)),
        centroid_lambda_i_nm=float(lambda_nm_from_omega(ci)),
    )


def jsa_to_json(grid: JsaGrid, path: str | None = None) -> str | None:
    """Self-describing JSON: axes, row-major magnitude and phase, metadata."""
    obj = {
        "omega_s_rad_s": grid.omega_s,
        "omega_i_rad_s": grid.omega_i,
        "lambda_s_nm": grid.lambda_s_nm,
        "lambda_i_nm": grid.lambda_i_nm,
        "magnitude": np.abs(grid.values),
        "phase_rad": np.angle(grid.values),
        "metadata": {
            "fiber": {
                "R_eff_um": grid.fiber.R_eff_um,
                "t_nm": grid.fiber.t_nm,
                "mode": grid.fiber.mode_label,
            },
            "gas": {
                "species": grid.gas.species,
                "pressure_bar": grid.gas.pressure_bar,
                "temperature_K": grid.gas.temperature_K,
            },
            "pump": grid.pump.metadata(),
            "branch": {
                "lambda_p_nm": grid.branch.lambda_p_nm,
                "lambda_s_nm": grid.branch.lambda_s_nm,
                "lambda_i_nm": grid.branch.lambda_i_nm,
                "band_p": grid.branch.band_p,
                "band_s": grid.branch.band_s,
                "band_i": grid.branch.band_i,
                "theta_deg": grid.branch.theta_deg,
            },
            "L_m": grid.L_m,
            "mode": grid.mode,
            "clipped_fraction": grid.clipped_fraction,
            "normalization": "sum(|F|^2) * domega_s * domega_i = 1",
        },
    }
    return export.to_json(obj, path)


def grid_to_csv(
    lambda_s_nm, lambda_i_nm, values, path: str | None = None
) -> str | None:
    """Real grid as CSV; first row holds idler wavelengths (nm), first
    column signal wavelengths (nm), corner cell 0."""
    lam_s = np.asarray(lambda_s_nm, dtype=float)
    lam_i = np.asarray(lambda_i_nm, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.shape != (lam_s.size, lam_i.size):
        raise ValidationError("grid shape does not match the wavelength axes")
    return export.to_csv(["0"] + lam_i.tolist(), (lam_s[:, None], values), path)


def jsi_to_csv(grid: JsaGrid, path: str | None = None) -> str | None:
    """JSI as CSV in the layout of grid_to_csv."""
    return grid_to_csv(grid.lambda_s_nm, grid.lambda_i_nm, jsi(grid), path)
