"""Parameter-study drivers: length and pressure series.

It is also the one place where a RunConfig reaches the physics, for the
command line and the drivers alike: the ``*_from_config`` functions,
``solve_settings``, ``solve_branches``/``solve_branch``, ``build_grid`` and
``density_records``.

Each driver re-solves the phase-matching branch where the parameter
changes it, evaluates the JSA and its Schmidt numbers per point, and
aggregates centroids and angles into one summary table.  Per-point
failures are recorded as gaps and the sweep continues; a pressure sweep
additionally fits the idler centroid frequency against pressure.

Branch continuity across sweep points uses nearest-neighbor matching in
(omega_s, omega_i) seeded by the previous point, which prevents
branch-hopping artifacts in fitted slopes when several families coexist.
Fits are reported in frequency (THz = 10^12 rad/s), not wavelength.

A driver writes no file itself: given ``write`` (the signature of
``cli._Run.write``), it hands each point's JSI grid to it as it goes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import export
from .config import RunConfig, required_section
from .errors import (
    HcfwmError, NumericalError, ValidationError, check_number, check_pair,
)
from .fibermodel import FiberModel, omega_from_lambda_nm
from .gasmedia import GasState, make_gas
from .jsa import (
    GaussianPump,
    JsaGrid,
    SampledPump,
    build_jsa,
    grid_to_csv,
    jsi,
    marginals,
)
from .phasematch import PhaseMatchBranch, density_map, solve_phase_matching
from .schmidt import schmidt_number

__all__ = [
    "SweepPoint",
    "SweepGap",
    "PressureFit",
    "SweepResult",
    "fiber_from_config",
    "gas_from_config",
    "pump_from_config",
    "select_branch",
    "solve_settings",
    "solve_branches",
    "solve_branch",
    "build_grid",
    "density_records",
    "sweep_length",
    "sweep_pressure",
    "summary_csv",
    "fit_to_dict",
]

SUMMARY_CSV_HEADER = (
    "param",
    "value",
    "K_flat",
    "K_complex",
    "theta_deg",
    "idler_nm",
    "signal_nm",
)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated sweep point with its derived scalars."""

    value: float
    branch: PhaseMatchBranch
    K_flat: float
    K_complex: float
    theta_deg: float
    idler_nm: float
    signal_nm: float
    idler_omega: float
    signal_omega: float


@dataclass(frozen=True)
class SweepGap:
    """A sweep point that failed, with the reason it was skipped."""

    value: float
    reason: str


@dataclass(frozen=True)
class PressureFit:
    """Linear fit of idler centroid frequency vs pressure.

    slope_THz_per_bar and span_THz are angular frequencies in units of
    10^12 rad/s, following the package convention.
    """

    slope_THz_per_bar: float
    intercept_THz: float
    r_squared: float
    span_THz: float
    n_points: int


@dataclass(frozen=True)
class SweepResult:
    """Aggregated sweep: monotone axis, per-point records, gaps, fit."""

    param: str
    unit: str
    points: tuple[SweepPoint, ...]
    gaps: tuple[SweepGap, ...]
    fit: PressureFit | None = None


def fiber_from_config(cfg: RunConfig) -> FiberModel:
    return FiberModel(
        R_eff_um=cfg.fiber.R_eff_um,
        t_nm=cfg.fiber.t_nm,
        mode_m=cfg.fiber.mode_m,
        mode_n=cfg.fiber.mode_n,
    )


def gas_from_config(cfg: RunConfig, pressure_bar: float | None = None) -> GasState:
    return make_gas(
        cfg.gas.species,
        cfg.gas.pressure_bar if pressure_bar is None else pressure_bar,
        temperature_K=cfg.gas.temperature_K,
    )


def pump_from_config(cfg: RunConfig):
    """Gaussian pump from the config width; sampled when modulated."""
    if cfg.pump.pulse_fwhm_fs is not None:
        base = GaussianPump.from_fwhm(cfg.pump.lambda_nm, cfg.pump.pulse_fwhm_fs)
    else:
        base = GaussianPump(
            omega_p0=float(omega_from_lambda_nm(cfg.pump.lambda_nm)),
            sigma=cfg.pump.sigma_THz * 1e12,
        )
    mod = cfg.pump.modulation
    if mod is not None and mod.depth > 0.0:
        return SampledPump.modulated_gaussian(
            base.omega_p0, base.sigma, mod.depth, mod.period_THz * 1e12
        )
    return base


def select_branch(
    branches: list[PhaseMatchBranch],
    prev: tuple[float, float] | None = None,
    seed_idler_nm: float | None = None,
) -> PhaseMatchBranch:
    """Pick one branch: nearest to the previous point, else nearest to a
    requested idler wavelength, else the most-detuned branch."""
    if prev is not None:
        prev = check_pair("prev", prev, ("omega_s", "omega_i"), lo=0, lo_open=True)
    if seed_idler_nm is not None:
        check_number("seed_idler_nm", seed_idler_nm, lo=0, lo_open=True)
    if not branches:
        raise NumericalError("no phase-matched branch in the scan window")
    if prev is not None:
        ws0, wi0 = prev
        return min(
            branches,
            key=lambda b: (b.omega_s - ws0) ** 2 + (b.omega_i - wi0) ** 2,
        )
    if seed_idler_nm is not None:
        return min(branches, key=lambda b: abs(b.lambda_i_nm - seed_idler_nm))
    return max(branches, key=lambda b: b.delta_omega)


def solve_settings(cfg: RunConfig) -> dict:
    """The keywords of ``solve_phase_matching`` that ``cfg.phasematch``
    sets; the one mapping for a single pump and the density map alike."""
    pm = cfg.phasematch
    return dict(
        detuning_window=pm.detuning_window(),
        pump_peak_power_W=pm.pump_peak_power_W,
        grid_points=pm.grid_points,
    )


def solve_branches(cfg: RunConfig, fiber, gas, pump) -> list[PhaseMatchBranch]:
    """Every phase-matched branch at the pump, under ``cfg.phasematch``."""
    return solve_phase_matching(fiber, gas, pump.omega_p0, **solve_settings(cfg))


def solve_branch(cfg: RunConfig, fiber, gas, pump, prev=None) -> PhaseMatchBranch:
    """The one branch a run follows, picked by ``select_branch``."""
    return select_branch(
        solve_branches(cfg, fiber, gas, pump),
        prev=prev,
        seed_idler_nm=cfg.phasematch.seed_idler_nm,
    )


def build_grid(cfg: RunConfig, fiber, gas, pump, branch, L_m: float) -> JsaGrid:
    """The JSA of ``branch`` over a length ``L_m``, on ``cfg.grid``."""
    g = cfg.grid
    return build_jsa(
        fiber, gas, pump, branch, L_m, n=g.N, kappa_span=g.span, mode=g.mode
    )


def density_records(cfg: RunConfig, fiber, gas) -> list[PhaseMatchBranch]:
    """The branches of every pump of ``cfg.density_map``'s scan, solved
    under ``cfg.phasematch`` as ``solve_branches`` solves one pump."""
    dm = cfg.density_map
    return density_map(
        fiber, gas, (dm.pump_min_nm, dm.pump_max_nm), dm.pump_steps,
        **solve_settings(cfg),
    )


def _evaluate_point(cfg: RunConfig, fiber, pump, value, gas, branch, L_m,
                    write, stem, param) -> SweepPoint:
    grid = build_grid(cfg, fiber, gas, pump, branch, L_m)
    k_flat = schmidt_number(grid, flat_phase=True)
    k_complex = schmidt_number(grid, flat_phase=False)
    intensity = jsi(grid)
    marg = marginals(intensity, grid.omega_s, grid.omega_i)
    if write is not None:
        write(stem.format(value), f"JSI grid at {param}={value:g}", grid_to_csv,
              grid.lambda_s_nm, grid.lambda_i_nm, intensity)
    return SweepPoint(
        value=value,
        branch=branch,
        K_flat=k_flat,
        K_complex=k_complex,
        theta_deg=branch.theta_deg,
        idler_nm=marg.centroid_lambda_i_nm,
        signal_nm=marg.centroid_lambda_s_nm,
        idler_omega=marg.centroid_omega_i,
        signal_omega=marg.centroid_omega_s,
    )


def _sweep_points(cfg: RunConfig, fiber, pump, values, at, write, stem, param):
    """(points, gaps) over ``values`` in order.  ``at(value)`` gives the
    gas, branch and length of a point; a point that fails is a gap.  With
    ``write``, and csv among ``cfg.output.formats`` so that the grids are
    written, values whose grid file names coincide are refused first."""
    if write is not None and "csv" in cfg.output.formats:
        named: dict[str, float] = {}
        for value in values:
            fname = stem.format(value)
            if fname in named:
                raise ValidationError(
                    f"sweep values {named[fname]!r} and {value!r} would both "
                    f"write {fname}"
                )
            named[fname] = value
    points: list[SweepPoint] = []
    gaps: list[SweepGap] = []
    for value in values:
        # each point's grid is freed in _evaluate_point, before the next
        # one is built
        try:
            points.append(
                _evaluate_point(
                    cfg, fiber, pump, value, *at(value), write, stem, param
                )
            )
        except HcfwmError as exc:
            gaps.append(SweepGap(value=value, reason=str(exc)))
    return tuple(points), tuple(gaps)


def sweep_length(cfg: RunConfig, write=None) -> SweepResult:
    """JSA and Schmidt numbers for the fiber lengths of
    ``cfg.sweep_length``.

    The branch is pressure- and pump-determined, so it is solved once
    and shared by all lengths; points run in axis order.  With ``write``,
    each point's JSI goes to it as ``jsi_L_<length>m.csv``.
    """
    lengths = required_section(cfg, "sweep_length", "a length sweep").lengths_m
    fiber = fiber_from_config(cfg)
    gas = gas_from_config(cfg)
    pump = pump_from_config(cfg)
    branch = solve_branch(cfg, fiber, gas, pump)
    points, gaps = _sweep_points(
        cfg, fiber, pump, lengths, lambda L: (gas, branch, L), write,
        "jsi_L_{:g}m.csv", "length_m",
    )
    return SweepResult(param="length_m", unit="m", points=points, gaps=gaps)


def sweep_pressure(cfg: RunConfig, write=None) -> SweepResult:
    """Branch, JSA, and centroids across the pressures of
    ``cfg.sweep_pressure``.

    Branch selection is chained: each pressure takes the branch nearest
    the previous point's (omega_s, omega_i); the first point honors
    phasematch.seed_idler_nm when several families coexist.  The fit is
    idler centroid frequency (THz = 10^12 rad/s) vs pressure (bar); it
    needs at least two successful points.  With ``write``, each point's
    JSI goes to it as ``jsi_P_<pressure>bar.csv``.
    """
    pressures = required_section(
        cfg, "sweep_pressure", "a pressure sweep"
    ).pressures_bar
    fiber = fiber_from_config(cfg)
    pump = pump_from_config(cfg)
    prev: tuple[float, float] | None = None

    def at(P: float):
        nonlocal prev
        gas = gas_from_config(cfg, pressure_bar=P)
        branch = solve_branch(cfg, fiber, gas, pump, prev)
        # chaining follows the selected branch even if its JSA fails
        prev = (branch.omega_s, branch.omega_i)
        return gas, branch, cfg.fiber_length_m

    points, gaps = _sweep_points(
        cfg, fiber, pump, pressures, at, write, "jsi_P_{:g}bar.csv",
        "pressure_bar",
    )
    if len(points) < 2:
        raise NumericalError(
            "pressure sweep produced fewer than 2 successful points "
            f"({len(gaps)} gaps); cannot fit the tuning slope"
        )
    pr = np.array([p.value for p in points])
    nu = np.array([p.idler_omega for p in points]) / 1e12
    slope, intercept = np.polyfit(pr, nu, 1)
    resid = nu - (slope * pr + intercept)
    ss_tot = float(np.sum((nu - nu.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0.0 else 1.0
    fit = PressureFit(
        slope_THz_per_bar=float(slope),
        intercept_THz=float(intercept),
        r_squared=r2,
        span_THz=float(nu.max() - nu.min()),
        n_points=len(points),
    )
    return SweepResult(
        param="pressure_bar",
        unit="bar",
        points=points,
        gaps=gaps,
        fit=fit,
    )


def summary_csv(result: SweepResult, path: str | None = None) -> str | None:
    """One row per successful sweep point, in axis order."""
    return export.to_csv(
        SUMMARY_CSV_HEADER,
        (
            (result.param, p.value, p.K_flat, p.K_complex, p.theta_deg,
             p.idler_nm, p.signal_nm)
            for p in result.points
        ),
        path,
    )


def fit_to_dict(result: SweepResult) -> dict:
    """JSON-ready summary of a sweep's fit and gaps."""
    obj: dict = {
        "param": result.param,
        "unit": result.unit,
        "n_points": len(result.points),
        "gaps": [{"value": g.value, "reason": g.reason} for g in result.gaps],
    }
    if result.fit is not None:
        obj["fit"] = asdict(result.fit)
    return obj
