"""Stimulated-emission tomography of the joint spectral intensity.

Seeding the idler of the four-wave-mixing process with a swept
narrow-band laser amplifies each horizontal slice of the JSI by the seed
photon number, so a scan of recorded signal spectra maps out the whole
distribution classically.  This module simulates such a scan from a
ground-truth JSA grid, reconstructs the JSI by seed-power normalization,
and fits the power-scaling laws (linear in seed, quadratic in pump) that
identify the stimulated regime.

Absolute gain is not modeled: a slice is P_pump^2 * N_seed * JSI in
arbitrary units, and all comparisons are shape-based after normalization.
The per-photon energy of the seed is evaluated once at the sweep center,
so the simulated slice is strictly linear in the monitored seed power;
across a 30 nm sweep near 1550 nm the neglected variation is below 1%.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import export
from .errors import RangeError, ValidationError, check_number
from .jsa import MAX_GRID_N, FrequencyAxes, JsaGrid, grid_to_csv, jsi

# reduced Planck constant h / (2 pi) in J s, from the exact SI h = 6.62607015e-34
hbar = 1.0545718176461565e-34

SET_CSV_HEADER = "seed_lambda_nm,signal_lambda_nm,counts,seed_power_W"


@dataclass(frozen=True)
class NoiseModel:
    """Per-sample multiplicative Gaussian noise plus an additive dark floor.

    rel_sigma is the relative standard deviation of the multiplicative
    factor; dark_floor is a constant background added to every sample.
    seed feeds a splittable stream: slice i always draws from
    default_rng([*seed, i]), so each slice's noise depends only on the
    seed and the slice index.
    """

    rel_sigma: float = 0.0
    dark_floor: float = 0.0
    seed: tuple[int, ...] = (0,)

    def __post_init__(self):
        for name in ("rel_sigma", "dark_floor"):
            check_number(f"noise {name}", getattr(self, name), lo=0)
        seed = (self.seed,) if np.ndim(self.seed) == 0 else self.seed
        object.__setattr__(self, "seed", tuple(
            check_number("noise seed entries", s, lo=0, integer=True)
            for s in seed
        ))

    def rng_for_slice(self, index: int) -> np.random.Generator:
        index = check_number("slice index", index, lo=0, integer=True)
        return np.random.default_rng([*self.seed, index])


def _seed_photon_number(seed_power_W, duty_cycle, omega_i):
    """Per-step seed photon number at the sweep-center photon energy."""
    omega_ref = float(0.5 * (omega_i[0] + omega_i[-1]))
    return seed_power_W * duty_cycle / (hbar * omega_ref)


@dataclass
class SetScan(FrequencyAxes):
    """One stimulated-emission scan: swept seed, recorded signal spectra.

    slices[k, j] is the recorded signal intensity at omega_s[j] with the
    seed parked at omega_i[k]; seed_power_W[k] is the monitored seed
    power for that step.
    """

    omega_i: np.ndarray
    omega_s: np.ndarray
    slices: np.ndarray
    seed_power_W: np.ndarray
    duty_cycle: float = 1.0

    def __post_init__(self):
        self.omega_i = np.asarray(self.omega_i, dtype=float)
        self.omega_s = np.asarray(self.omega_s, dtype=float)
        self.slices = np.asarray(self.slices, dtype=float)
        self.seed_power_W = np.asarray(self.seed_power_W, dtype=float)
        if self.omega_i.ndim != 1 or self.omega_i.size < 1:
            raise ValidationError("seed sweep must be a non-empty 1-D axis")
        for axis in (self.omega_i, self.omega_s):  # NaN fails both tests
            if not np.all((axis > 0.0) & (axis < np.inf)):
                raise ValidationError("scan axes must be finite and > 0 rad/s")
        steps = np.diff(self.omega_i)
        if self.omega_i.size > 1 and not (
            np.all(steps > 0.0) or np.all(steps < 0.0)
        ):
            raise ValidationError("seed sweep must be strictly monotone")
        if self.seed_power_W.shape != self.omega_i.shape:
            raise ValidationError(
                "seed power profile must match the sweep axis length"
            )
        if not np.all(np.isfinite(self.seed_power_W) & (self.seed_power_W > 0.0)):
            raise ValidationError("monitored seed powers must be finite and > 0 W")
        check_number("duty cycle", self.duty_cycle, lo=0, lo_open=True, hi=1)
        if self.slices.shape != (self.omega_i.size, self.omega_s.size):
            raise ValidationError(
                "slices must have shape (sweep steps, signal axis); got "
                f"{self.slices.shape}"
            )
        if not np.all(np.isfinite(self.slices)):
            raise ValidationError("scan slices must be finite")

    @property
    def n_slices(self) -> int:
        return int(self.omega_i.size)

    def seed_photon_number(self) -> np.ndarray:
        """Per-step seed photon number derived from the monitored power."""
        return _seed_photon_number(self.seed_power_W, self.duty_cycle, self.omega_i)


@dataclass(frozen=True)
class Reconstruction(FrequencyAxes):
    """Seed-normalized, unit-sum JSI on the scan's axes."""

    omega_s: np.ndarray
    omega_i: np.ndarray
    values: np.ndarray  # values[j, k] on (omega_s[j], omega_i[k]); sums to 1


@dataclass(frozen=True)
class PowerScaling:
    """Fitted log-log exponents of total signal vs seed and pump power."""

    seed_exponent: float
    pump_exponent: float
    r_squared_seed: float
    r_squared_pump: float


def simulate_set_scan(
    truth: JsaGrid,
    seed_omega_i,
    pump_power_W: float,
    seed_power_W,
    noise: NoiseModel | None = None,
    duty_cycle: float = 1.0,
) -> SetScan:
    """Forward-simulate a seeded scan of the ground-truth JSI.

    Each slice is P_pump^2 * N_seed * JSI(omega_s, omega_i), with
    N_seed the seed photon number for that step.  Noise draws use one
    splittable stream per slice (``NoiseModel.rng_for_slice``), so each
    slice's noise is fixed by the noise seed and the slice index alone.
    """
    check_number("pump power pump_power_W", pump_power_W, lo=0, lo_open=True)
    check_number("duty cycle", duty_cycle, lo=0, lo_open=True, hi=1)
    seed_omega_i = np.atleast_1d(np.asarray(seed_omega_i, dtype=float))
    if seed_omega_i.size < 1:
        raise ValidationError("seed sweep must contain at least one step")
    # the slices are steps x N, so the steps share the grid's cap
    check_number("seed sweep steps", seed_omega_i.size, hi=MAX_GRID_N, integer=True)
    lo, hi = float(truth.omega_i[0]), float(truth.omega_i[-1])
    if not np.all((seed_omega_i >= lo) & (seed_omega_i <= hi)):
        raise RangeError(
            "seed sweep leaves the ground-truth idler axis "
            f"[{lo:.6g}, {hi:.6g}] rad/s"
        )
    powers = np.broadcast_to(
        np.asarray(seed_power_W, dtype=float), seed_omega_i.shape
    ).copy()
    if noise is None:
        noise = NoiseModel()

    intensity = jsi(truth)
    try:
        prefactor = pump_power_W**2
    except OverflowError:
        prefactor = np.inf

    # linear interpolation of the JSI columns at every seed; a seed on an
    # axis point (w = 0, or w = 1 at the last point) gives its column exactly
    axis = truth.omega_i
    k = np.clip(np.searchsorted(axis, seed_omega_i), 1, axis.size - 1)
    w = ((seed_omega_i - axis[k - 1]) / (axis[k] - axis[k - 1]))[:, None]
    columns = (1.0 - w) * intensity[:, k - 1].T + w * intensity[:, k].T
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        n_seed = _seed_photon_number(powers, duty_cycle, seed_omega_i)
        slices = (prefactor * n_seed)[:, None] * columns
    # a seed power that is not finite is SetScan's to refuse, by its name
    if np.isfinite(powers).all() and not np.isfinite(slices).all():
        raise RangeError(
            f"pump_power_W = {pump_power_W:g} W and seed_power_W up to "
            f"{powers.max():g} W give scan counts beyond the float range"
        )
    if noise.rel_sigma > 0.0:
        draws = np.vstack([
            noise.rng_for_slice(i).standard_normal(slices.shape[1])
            for i in range(slices.shape[0])
        ])
        slices = slices * (1.0 + noise.rel_sigma * draws)
        np.maximum(slices, 0.0, out=slices)
    if noise.dark_floor > 0.0:
        slices = slices + noise.dark_floor

    return SetScan(
        omega_i=seed_omega_i,
        omega_s=truth.omega_s.copy(),
        slices=slices,
        seed_power_W=powers,
        duty_cycle=float(duty_cycle),
    )


def reconstruct_jsi(scan: SetScan) -> Reconstruction:
    """Divide each slice by its seed photon number and renormalize.

    The pump power and the photon-energy constant cancel in the unit-sum
    normalization, so the reconstruction depends only on the slice shapes
    and the monitored power profile.
    """
    if scan.n_slices < 2:
        raise ValidationError(
            f"reconstruction needs at least 2 slices, got {scan.n_slices}"
        )
    # on a seed axis near 1e-300 rad/s, hbar * omega_ref underflows to 0 or
    # to a subnormal, and the photon numbers are infinite
    with np.errstate(divide="ignore", over="ignore"):
        n_seed = scan.seed_photon_number()
    if not np.all(np.isfinite(n_seed)):
        raise ValidationError(
            "seed photon numbers must be finite; the seed axis is too close "
            "to 0 rad/s"
        )
    if np.any(n_seed <= 0.0):  # a seed power near 5e-324 W underflows to 0
        raise ValidationError("seed photon numbers must be > 0")
    normalized = scan.slices / n_seed[:, None]
    omega_i = scan.omega_i
    if omega_i[0] > omega_i[-1]:
        omega_i = omega_i[::-1].copy()
        normalized = normalized[::-1]
    grid = normalized.T.copy()
    total = grid.sum()
    if total <= 0.0:
        raise ValidationError("scan carries no counts; cannot normalize")
    grid /= total
    return Reconstruction(
        omega_s=scan.omega_s.copy(), omega_i=omega_i, values=grid
    )


def line_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept: (slope, intercept, r²).

    Closed form on centred data in elementwise sums, so no BLAS or LAPACK
    routine runs; r² is 1 for a flat y.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    dx, dy = x - x.mean(), y - y.mean()
    ss_x, ss_tot = float(np.sum(dx * dx)), float(np.sum(dy * dy))
    if not ss_x > 0.0:
        raise ValidationError("a line fit needs at least 2 distinct x values")
    slope = float(np.sum(dx * dy)) / ss_x
    ss_res = float(np.sum((dy - slope * dx) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return slope, float(y.mean() - slope * x.mean()), r2


def power_scaling_check(
    truth: JsaGrid,
    seed_powers_W,
    pump_powers_W,
    noise: NoiseModel | None = None,
    duty_cycle: float = 1.0,
) -> PowerScaling:
    """Fit log-log total counts vs seed and pump power.

    Every scan seeds every (N // 32)-th point of the idler axis.

    Expected exponents are 1 (seed) and 2 (pump); deviations flag a
    broken stimulated-regime model.  The configured dark floor is
    subtracted before fitting since it is a known constant of the
    simulated detector.
    """
    seed_powers = np.asarray(seed_powers_W, dtype=float)
    pump_powers = np.asarray(pump_powers_W, dtype=float)
    for name, arr in (("seed", seed_powers), ("pump", pump_powers)):
        if arr.ndim != 1 or arr.size < 5:
            raise ValidationError(
                f"{name} power axis needs at least 5 points, got {arr.size}"
            )
        if not np.all(arr > 0.0):
            raise ValidationError(f"{name} powers must all be > 0 W")
        distinct = len(set(arr.tolist()))
        if distinct < 5:
            # a log-log fit over repeated powers is ill-posed, not a result
            raise ValidationError(
                f"{name} power axis needs at least 5 distinct points, "
                f"got {distinct}"
            )
    if noise is None:
        noise = NoiseModel()
    seed_omega_i = truth.omega_i[:: max(1, truth.omega_i.size // 32)]

    def total_counts(pump_W: float, seed_W: float, tag: int, idx: int):
        scan = simulate_set_scan(
            truth,
            seed_omega_i,
            pump_W,
            seed_W,
            noise=replace(noise, seed=(*noise.seed, tag, idx)),
            duty_cycle=duty_cycle,
        )
        return float(np.sum(scan.slices - noise.dark_floor))

    seed_totals = np.array(
        [total_counts(1.0, p, 0, i) for i, p in enumerate(seed_powers)]
    )
    pump_totals = np.array(
        [total_counts(p, 1.0, 1, i) for i, p in enumerate(pump_powers)]
    )
    seed_exp, _, r2_seed = line_fit(np.log(seed_powers), np.log(seed_totals))
    pump_exp, _, r2_pump = line_fit(np.log(pump_powers), np.log(pump_totals))
    return PowerScaling(
        seed_exponent=seed_exp,
        pump_exponent=pump_exp,
        r_squared_seed=r2_seed,
        r_squared_pump=r2_pump,
    )


def set_scan_to_csv(scan: SetScan, path: str | None = None) -> str | None:
    """Long-format CSV, one row per (seed step, signal sample)."""
    n_steps, n_signal = scan.slices.shape
    columns = (
        np.repeat(scan.lambda_i_nm, n_signal),
        np.tile(scan.lambda_s_nm, n_steps),
        scan.slices.ravel(),
        np.repeat(scan.seed_power_W, n_signal),
    )
    # laid side by side a chunk at a time, never stacked into one table
    return export.to_csv(
        SET_CSV_HEADER.split(","), tuple(c[:, None] for c in columns), path
    )


def reconstruction_to_csv(rec: Reconstruction, path: str | None = None) -> str | None:
    """Reconstructed JSI in the shared grid CSV layout."""
    return grid_to_csv(rec.lambda_s_nm, rec.lambda_i_nm, rec.values, path)
