"""Parameter-study drivers: length and pressure series.

It is also the one place where a RunConfig reaches the physics, for the
command line and the drivers alike: the ``*_from_config`` functions,
``solve_settings``, ``solve_branches``/``solve_branch``, ``build_grid``
(under ``grid_keys``, which names the config key of a grid failure) and
``density_records``.

Each driver re-solves the phase-matching branch where the parameter
changes it, evaluates the JSA and its Schmidt numbers per point, and
aggregates centroids and angles into one summary table; a pressure sweep
additionally fits the idler centroid frequency against pressure.  What
every point shares is built before the first point.  A point whose
physics raises one of ``errors.GAP_ERRORS`` is a gap and the sweep goes
on; any other error, or a JSI file that cannot be written, fails the run.

Branch continuity across sweep points uses nearest-neighbor matching in
(omega_s, omega_i) seeded by the previous point, which prevents
branch-hopping artifacts in fitted slopes when several families coexist.
Fits are reported in frequency (THz = 10^12 rad/s), not wavelength.

A driver writes no file itself: given ``write`` (the signature of
``cli._Run.write``), it hands each point's JSI grid to it as it goes,
named by ``value_text``, which gives distinct values distinct names.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import export
from .config import RunConfig, required_section
from .errors import (
    GAP_ERRORS,
    GridAxisError,
    NumericalError,
    check_number,
    check_pair,
)
from .fibermodel import FiberModel, omega_from_lambda_nm
from .gasmedia import GasState, make_gas
from .jsa import (
    GaussianPump,
    JsaGrid,
    build_jsa,
    grid_to_csv,
    jsi,
    marginals,
)
from .phasematch import PhaseMatchBranch, density_map, solve_phase_matching
from .schmidt import schmidt_number
from .tomography import line_fit

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
    return FiberModel(**asdict(cfg.fiber))


def gas_from_config(cfg: RunConfig) -> GasState:
    return make_gas(**asdict(cfg.gas))


def pump_from_config(cfg: RunConfig) -> GaussianPump:
    """Gaussian pump from the config width, modulated as the config says."""
    p, mod = cfg.pump, cfg.pump.modulation
    ripple = () if mod is None else (mod.depth, mod.period_THz * 1e12)
    return GaussianPump(
        float(omega_from_lambda_nm(p.lambda_nm)), p.sigma_rad_s(), *ripple
    )


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


@contextlib.contextmanager
def grid_keys(length_key: str = "fiber_length_m"):
    """Re-raise a GridAxisError from inside with the config key of the
    input at fault in front: ``length_key``, where ``L_m`` comes from, or
    ``grid.span`` for ``kappa_span``."""
    try:
        yield
    except GridAxisError as exc:
        key = length_key if exc.param == "L_m" else "grid.span"
        raise GridAxisError(f"config key '{key}': {exc}", exc.param) from None


def build_grid(
    cfg: RunConfig, fiber, gas, pump, branch, L_m: float,
    length_key: str = "fiber_length_m",
) -> JsaGrid:
    """The JSA of ``branch`` over a length ``L_m``, on ``cfg.grid``; a grid
    that cannot be laid out names its config key (``grid_keys``)."""
    g = cfg.grid
    with grid_keys(length_key):
        return build_jsa(
            fiber, gas, pump, branch, L_m, n=g.N, kappa_span=g.span, mode=g.mode
        )


def density_records(cfg: RunConfig, fiber, gas) -> list[PhaseMatchBranch]:
    """The branches of every pump of ``cfg.density_map``'s scan, solved
    under ``cfg.phasematch`` as ``solve_branches`` solves one pump."""
    dm = required_section(cfg, "density_map", "the density-map subcommand")
    return density_map(
        fiber, gas, (dm.pump_min_nm, dm.pump_max_nm), dm.pump_steps,
        **solve_settings(cfg),
    )


def value_text(value: float) -> str:
    """A sweep value as its grid file and its lines name it: ``{:g}`` where
    that reads back as the value, else ``repr``, so no two values collide."""
    value = float(check_number("sweep value", value, lo=0, lo_open=True))
    text = f"{value:g}"
    return text if float(text) == value else repr(value)


def _sweep_point(
    value: float, at, write, stem: str, param: str
) -> SweepPoint | SweepGap:
    """The SweepPoint at ``value``, whose branch and grid ``at(value)``
    gives, with its JSI handed to ``write``; a SweepGap if its physics
    raises one of GAP_ERRORS.  The grid is freed before its JSI is
    written, so the writer holds the JSI and one chunk, not the grid too."""
    try:
        branch, grid = at(value)
        k_flat = schmidt_number(grid, flat_phase=True)
        k_complex = schmidt_number(grid, flat_phase=False)
        intensity = jsi(grid)
        marg = marginals(intensity, grid.omega_s, grid.omega_i)
        lambda_s, lambda_i = grid.lambda_s_nm, grid.lambda_i_nm
        del grid
    except GAP_ERRORS as exc:
        return SweepGap(value=value, reason=str(exc))
    if write is not None:
        text = value_text(value)
        write(stem.format(text), f"JSI grid at {param}={text}", grid_to_csv,
              lambda_s, lambda_i, intensity)
    return SweepPoint(
        value=value, branch=branch, K_flat=k_flat, K_complex=k_complex,
        theta_deg=branch.theta_deg,
        idler_nm=marg.centroid_lambda_i_nm, signal_nm=marg.centroid_lambda_s_nm,
        idler_omega=marg.centroid_omega_i,
    )


def _split(outcomes) -> tuple[tuple[SweepPoint, ...], tuple[SweepGap, ...]]:
    """(points, gaps) of ``_sweep_point``'s outcomes, in axis order."""
    points = tuple(o for o in outcomes if isinstance(o, SweepPoint))
    return points, tuple(o for o in outcomes if isinstance(o, SweepGap))


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

    def at(L: float):
        return branch, build_grid(
            cfg, fiber, gas, pump, branch, L, "sweep_length.lengths_m"
        )

    points, gaps = _split([
        _sweep_point(L, at, write, "jsi_L_{}m.csv", "length_m") for L in lengths
    ])
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
    gas = gas_from_config(cfg)
    pump = pump_from_config(cfg)
    prev: tuple[float, float] | None = None

    def at(P: float):
        nonlocal prev
        gas_P = replace(gas, pressure_bar=P)
        branch = solve_branch(cfg, fiber, gas_P, pump, prev)
        # chaining follows the selected branch even if its JSA fails
        prev = (branch.omega_s, branch.omega_i)
        return branch, build_grid(cfg, fiber, gas_P, pump, branch, cfg.fiber_length_m)

    points, gaps = _split([
        _sweep_point(P, at, write, "jsi_P_{}bar.csv", "pressure_bar")
        for P in pressures
    ])
    if len(points) < 2:
        raise NumericalError(
            "pressure sweep produced fewer than 2 successful points "
            f"({len(gaps)} gaps); cannot fit the tuning slope"
        )
    pr = np.array([p.value for p in points])
    nu = np.array([p.idler_omega for p in points]) / 1e12
    slope, intercept, r2 = line_fit(pr, nu)
    fit = PressureFit(
        slope_THz_per_bar=slope,
        intercept_THz=intercept,
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
