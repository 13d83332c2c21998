"""Command-line front end: config-driven runs with per-run manifests.

Every subcommand reads one config (a YAML path or the name of a bundled
recipe), writes its artifacts under `<out>/<subcommand>/<label>/` where
the label defaults to a UTC timestamp, and emits a machine-parseable
manifest.json listing the files.  Exit code 0 means success, 1 a
validation problem (bad config, unreadable gas table, run directory that
cannot be created, artifact that cannot be written, out-of-range
physics), 2 a numerical failure (non-convergence, no fittable sweep,
float overflow, or a NaN or inf that an artifact would have held).

Output files never embed wall-clock times or absolute paths, so a rerun
with the same config and the same --label is byte-identical at one BLAS
thread count: the last digits of schmidt_complex.json (and at times the
last ulp of K_complex), which come from LAPACK's values-only complex SVD,
differ between 1 and 2 OpenBLAS threads.  modes.csv does not: its 8 modes
come from a short subspace iteration and carry a fixed phase (<r, S_n>
real and positive for the ramp r_j = j + 1), not LAPACK's, and its bytes
were the same at 1 and 2 threads on every bundled recipe in both grid
modes.  --threads is accepted (it must be >= 1) and ignored: hcfwm
starts no threads of its own.  numpy's OpenBLAS does, one per CPU unless
OPENBLAS_NUM_THREADS or OMP_NUM_THREADS says otherwise: its workers
exist from `import numpy` on and sleep until a BLAS or LAPACK call (the
Schmidt SVDs, the sweeps' Schmidt numbers) wakes them; on a small
matrix, waking them costs milliseconds, more than the arithmetic.  The
thread count is left to the caller's environment.  The bundled gas data can be replaced by pointing
the HCFWM_GAS_DATA environment variable at an alternative table.

`main` also sets the C allocator's policy for the process it runs in
(glibc only; see `_keep_freed_memory`): freed heap pages stay mapped, so
the numpy temporaries of each grid and each encoder chunk reuse them
instead of faulting in fresh zero pages.  In a fresh process, a
`sweep-pressure` run of 23 points at N = 256 takes 7.0k minor page faults
with it and 8.7k without, and a 4-point `sweep-length` at N = 512 takes
7.6k with it and 11.9k without, at a peak RSS 1.4 MiB lower.
`import hcfwm` and the library functions leave the allocator alone.
Every warning of a run is printed once to stderr as one line,
`warning: <Category>: <message>`.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import datetime
import os
import sys
import warnings
from importlib.resources import files as resource_files

import numpy as np

from . import __version__, export, fibermodel, jsa, phasematch, schmidt
from . import sweeps as sweeps_mod
from . import tomography
from .config import (
    KNOWN_FORMATS,
    RunConfig,
    config_to_dict,
    dump_config,
    load_config,
    loads_config,
    required_section,
)
from .errors import NumericalError, ValidationError

_DISPERSION_SAMPLES_PER_BAND = 200


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors."""

    def error(self, message):
        raise ValidationError(message)


def _keep_freed_memory() -> None:
    """Make glibc keep freed memory in the process instead of returning it.

    By default glibc gives the top of the heap back to the kernel once
    128 KiB of it are free, and serves large blocks from fresh mmaps that
    it unmaps on free.  A sweep frees all the numpy temporaries of one
    grid or encoder chunk together, so the next one gets them back as
    fresh zero pages, one minor fault per 4 KiB.  Raising both thresholds
    (256 MiB to trim, 32 MiB to mmap) keeps those pages mapped for reuse.
    Both must be set: setting either one alone also switches off glibc's
    dynamic thresholds and faults more than the default (42k with only
    the trim threshold and 55k with only the mmap one, against 8.7k, for
    a fresh 23-point `sweep-pressure` process).  Where the C
    library has no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD (<malloc.h>)
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, at the largest value allowed


@contextlib.contextmanager
def _one_line_warnings():
    """Print each distinct warning raised inside as one stderr line,
    before any error line, also when the body raises."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            lines = (
                f"warning: {w.category.__name__}: {w.message}" for w in caught
            )
            for line in dict.fromkeys(lines):
                print(line, file=sys.stderr)


def bundled_recipes() -> list[str]:
    root = resource_files("hcfwm").joinpath("recipes")
    names = []
    for entry in root.iterdir():
        if entry.name.endswith(".yaml"):
            names.append(entry.name[: -len(".yaml")])
    return sorted(names)


def resolve_config(value: str) -> RunConfig:
    """A filesystem path, or the name of a bundled recipe."""
    if os.path.exists(value):
        return load_config(value)
    name = value[: -len(".yaml")] if value.endswith(".yaml") else value
    candidate = resource_files("hcfwm").joinpath("recipes", f"{name}.yaml")
    if candidate.is_file():
        return loads_config(candidate.read_text(), origin=f"recipe '{name}'")
    raise ValidationError(
        f"config '{value}' is neither a file nor a bundled recipe; "
        f"bundled recipes: {', '.join(bundled_recipes())}"
    )


def _write_rows(header, rows, path: str) -> None:
    """The CLI's own tables; a function of its own so that a profile or
    trace times them apart from the library exporters."""
    export.to_csv(header, rows, path)


class _Run:
    """The one writer of a run directory: each artifact, listed as it is
    written, then config.yaml and manifest.json."""

    def __init__(self, cfg: RunConfig, subcommand: str, run_dir: str):
        self.cfg = cfg
        self.subcommand = subcommand
        self.run_dir = run_dir
        self.artifacts: list[dict] = []
        self.results: dict = {}

    def path(self, fname: str) -> str:
        return os.path.join(self.run_dir, fname)

    def write(self, fname: str, description: str, writer, *args, **kwargs) -> None:
        """``writer(*args, path=<run dir>/fname, **kwargs)``, then list it.
        A .csv or .json file whose format output.formats leaves out is not
        written, but its writer still runs its checks on
        ``export.CHECK_ONLY``, encoding nothing, and refuses what it would
        refuse in the file, so the exit code does not depend on
        output.formats."""
        fmt = fname.rpartition(".")[2]
        if fmt in KNOWN_FORMATS and fmt not in self.cfg.output.formats:
            try:
                writer(*args, path=export.CHECK_ONLY, **kwargs)
            except NumericalError as exc:
                raise NumericalError(
                    f"{fname}, which output.formats leaves out: {exc}"
                ) from None
            return
        writer(*args, path=self.path(fname), **kwargs)
        self.artifacts.append({"file": fname, "description": description})
        print(f"wrote {self.path(fname)}  ({description})")

    def finish(self) -> None:
        self.write("config.yaml", "resolved run configuration", dump_config, self.cfg)
        manifest = {
            "package": f"hcfwm {__version__}",
            "subcommand": self.subcommand,
            "config": config_to_dict(self.cfg),
            "artifacts": self.artifacts,
            "results": self.results,
        }
        export.to_json(manifest, self.path("manifest.json"), indent=1)
        print(f"wrote {self.path('manifest.json')}  (run manifest)")


def _point_grid(cfg: RunConfig):
    """The JSA at the config's operating point and fiber length."""
    fiber = sweeps_mod.fiber_from_config(cfg)
    gas = sweeps_mod.gas_from_config(cfg)
    pump = sweeps_mod.pump_from_config(cfg)
    branch = sweeps_mod.solve_branch(cfg, fiber, gas, pump)
    return sweeps_mod.build_grid(
        cfg, fiber, gas, pump, branch, cfg.fiber_length_m
    )


def cmd_dispersion(run: _Run) -> None:
    cfg = run.cfg
    fiber = sweeps_mod.fiber_from_config(cfg)
    gas = sweeps_mod.gas_from_config(cfg)
    structure = fibermodel.band_structure(fiber, gas)
    run.write(
        "bands.csv", "transmission bands and anti-resonance edges", _write_rows,
        (
            "band",
            "index",
            "lo_nm",
            "hi_nm",
            "usable_lo_nm",
            "usable_hi_nm",
            "res_lo_nm",
            "res_hi_nm",
        ),
        [
            (
                b.label,
                b.index,
                b.lo_nm,
                b.hi_nm,
                b.usable_lo_nm,
                b.usable_hi_nm,
                "" if b.res_lo_nm is None else b.res_lo_nm,
                "" if b.res_hi_nm is None else b.res_hi_nm,
            )
            for b in structure.bands
        ],
    )

    rows = []
    zdws = {}
    for band in structure.bands:
        lo, hi = band.usable_lo_nm, band.usable_hi_nm
        # twice the narrowest stencil's reach from each edge: every stencil fits
        margin = max(1e-3 * (hi - lo), 2.0 * fibermodel.MIN_STENCIL_REACH * hi)
        if not lo + margin < hi - margin:
            warnings.warn(
                f"band {band.label} is too narrow to sample: its usable "
                f"[{lo:.6g}, {hi:.6g}] nm leaves no room for a dispersion stencil"
            )
            continue
        grid = np.linspace(lo + margin, hi - margin, _DISPERSION_SAMPLES_PER_BAND)
        pt = fibermodel.dispersion_derivatives(fiber, gas, grid)
        table = np.column_stack((pt.lambda_nm, pt.k, pt.beta1, pt.beta2))
        rows += [(lam, band.label, *rest) for lam, *rest in table.tolist()]
        try:
            zdws[band.label] = fibermodel.find_zdw(fiber, gas, band)
        except NumericalError as exc:
            warnings.warn(
                f"no zero-dispersion wavelengths for band {band.label}: {exc}"
            )
    run.write("dispersion.csv", "wavevector and derivatives per band", _write_rows,
              ("lambda_nm", "band", "k_rad_m", "beta1_s_m", "beta2_s2_m"), rows)
    run.write("zdw.csv", "zero-dispersion wavelengths per band", _write_rows,
              ("band", "zdw_nm"),
              [(label, z) for label, zs in sorted(zdws.items()) for z in zs])
    run.results["bands"] = [b.label for b in structure.bands]
    run.results["resonances_nm"] = list(structure.resonances_nm)
    run.results["zdw_nm"] = zdws
    n = len(structure.bands)
    res = ", ".join(f"{r:.1f} nm" for r in structure.resonances_nm)
    print(f"{n} band{'' if n == 1 else 's'}; "
          + (f"resonances at {res}" if res else "no wall resonances"))


def cmd_phasematch(run: _Run) -> None:
    cfg = run.cfg
    fiber = sweeps_mod.fiber_from_config(cfg)
    gas = sweeps_mod.gas_from_config(cfg)
    pump = sweeps_mod.pump_from_config(cfg)
    branches = sweeps_mod.solve_branches(cfg, fiber, gas, pump)
    with sweeps_mod.grid_keys():
        widths = [b.dphi_width(cfg.fiber_length_m) / 1e24 for b in branches]
    run.write(
        "branches.csv", "phase-matched branches at the pump", _write_rows,
        (
            "lambda_p_nm",
            "lambda_s_nm",
            "lambda_i_nm",
            "delta_omega_THz",
            "band_p",
            "band_s",
            "band_i",
            "theta_deg",
            "dphi_width_THz2",
            "residual_rad_m",
        ),
        [
            (
                b.lambda_p_nm,
                b.lambda_s_nm,
                b.lambda_i_nm,
                b.delta_omega / 1e12,
                b.band_p,
                b.band_s,
                b.band_i,
                b.theta_deg,
                width,
                b.residual_rad_m,
            )
            for b, width in zip(branches, widths)
        ],
    )
    run.results["n_branches"] = len(branches)
    for b in branches:
        print(
            f"branch: signal {b.lambda_s_nm:.2f} nm ({b.band_s}), idler "
            f"{b.lambda_i_nm:.2f} nm ({b.band_i}), theta {b.theta_deg:.2f} deg"
        )
    if not branches:
        print("no phase-matched branches in the scan window")


def cmd_jsa(run: _Run) -> None:
    cfg = run.cfg
    grid = _point_grid(cfg)
    # jsa.json holds the grid's magnitude and phase while it is written;
    # the intensity comes after, so the two are never held at once
    run.write("jsa.json", "complex JSA grid with metadata", jsa.jsa_to_json, grid)
    intensity = jsa.jsi(grid)
    marg = jsa.marginals(intensity, grid.omega_s, grid.omega_i)
    run.write("jsi.csv", "joint spectral intensity grid", jsa.grid_to_csv,
              grid.lambda_s_nm, grid.lambda_i_nm, intensity)
    run.write(
        "marginals.csv", "signal and idler marginal spectra", _write_rows,
        ("lambda_s_nm", "signal", "lambda_i_nm", "idler"),
        np.column_stack(
            (grid.lambda_s_nm, marg.signal, grid.lambda_i_nm, marg.idler)
        ),
    )
    run.results["centroid_signal_nm"] = marg.centroid_lambda_s_nm
    run.results["centroid_idler_nm"] = marg.centroid_lambda_i_nm
    run.results["clipped_fraction"] = grid.clipped_fraction
    print(
        f"JSA {cfg.grid.N}x{cfg.grid.N} ({cfg.grid.mode}); centroids "
        f"signal {marg.centroid_lambda_s_nm:.2f} nm, idler "
        f"{marg.centroid_lambda_i_nm:.2f} nm"
    )


def cmd_schmidt(run: _Run) -> None:
    cfg = run.cfg
    grid = _point_grid(cfg)
    flat = schmidt.schmidt_decompose(grid, flat_phase=True)
    cplx = schmidt.schmidt_decompose(grid, flat_phase=False)
    run.write("schmidt_flat.json", "flat-phase Schmidt decomposition",
              schmidt.schmidt_to_json, flat)
    run.write("schmidt_complex.json", "complex-JSA Schmidt decomposition",
              schmidt.schmidt_to_json, cplx)
    run.write("modes.csv", "leading Schmidt mode vectors",
              schmidt.schmidt_modes_to_csv, cplx)
    run.results["K_flat"] = flat.K
    run.results["K_complex"] = cplx.K
    run.results["purity_flat"] = flat.purity
    print(
        f"Schmidt numbers at L={cfg.fiber_length_m:g} m: flat-phase "
        f"K={flat.K:.4f}, complex K={cplx.K:.4f}"
    )


def cmd_set_sim(run: _Run) -> None:
    cfg = run.cfg
    ss = required_section(cfg, "set_sim", "the set-sim subcommand")
    grid = _point_grid(cfg)
    seed_axis = np.linspace(
        float(fibermodel.omega_from_lambda_nm(ss.seed_max_nm)),
        float(fibermodel.omega_from_lambda_nm(ss.seed_min_nm)),
        ss.steps,
    )
    noise = tomography.NoiseModel(**dataclasses.asdict(ss.noise))
    scan = tomography.simulate_set_scan(
        grid,
        seed_axis,
        ss.pump_power_W,
        ss.seed_power_W,
        noise=noise,
        duty_cycle=ss.duty_cycle,
    )
    rec = tomography.reconstruct_jsi(scan)
    run.write("scan.csv", "stimulated scan, one row per sample",
              tomography.set_scan_to_csv, scan)
    run.write("reconstruction.csv", "seed-normalized JSI reconstruction",
              tomography.reconstruction_to_csv, rec)
    rec_marg = jsa.marginals(rec.values, rec.omega_s, rec.omega_i)
    run.results["reconstructed_idler_nm"] = rec_marg.centroid_lambda_i_nm
    run.results["reconstructed_signal_nm"] = rec_marg.centroid_lambda_s_nm
    print(
        f"scan: {scan.n_slices} slices x {scan.omega_s.size} samples; "
        f"reconstructed idler centroid {rec_marg.centroid_lambda_i_nm:.2f} nm"
    )
    if ss.power_check_seed_W is not None:  # set together with the pump axis
        scaling = tomography.power_scaling_check(
            grid,
            ss.power_check_seed_W,
            ss.power_check_pump_W,
            noise=noise,
            duty_cycle=ss.duty_cycle,
        )
        run.write("power_scaling.json", "log-log power-law exponents",
                  export.to_json, dataclasses.asdict(scaling), indent=1)
        run.results["seed_exponent"] = scaling.seed_exponent
        run.results["pump_exponent"] = scaling.pump_exponent
        print(
            f"power scaling: seed exponent {scaling.seed_exponent:.3f}, "
            f"pump exponent {scaling.pump_exponent:.3f}"
        )


def cmd_sweep(run: _Run) -> None:
    """sweep-length and sweep-pressure: the driver of the subcommand's name,
    looked up when the run starts, then its summary, points, gaps and fit."""
    driver = getattr(sweeps_mod, run.subcommand.replace("-", "_"))
    result = driver(run.cfg, write=run.write)
    run.write("summary.csv", "per-point Schmidt numbers and centroids",
              sweeps_mod.summary_csv, result)
    summary = sweeps_mod.fit_to_dict(result)
    run.write("sweep.json", "sweep fit, gaps, and point count", export.to_json,
              summary, indent=1)
    run.results["sweep"] = summary
    text = sweeps_mod.value_text
    for p in result.points:
        print(
            f"{result.param}={text(p.value)}{result.unit}: K_flat={p.K_flat:.4f} "
            f"K_complex={p.K_complex:.4f} theta={p.theta_deg:.2f} deg "
            f"idler={p.idler_nm:.2f} nm"
        )
    for g in result.gaps:
        print(f"{result.param}={text(g.value)}{result.unit}: gap ({g.reason})")
    fit = result.fit
    if fit is not None:
        print(
            f"fitted idler sensitivity: {fit.slope_THz_per_bar:.2f} THz/bar "
            f"(|slope| {abs(fit.slope_THz_per_bar):.2f}, r^2 {fit.r_squared:.4f}, "
            f"span {fit.span_THz:.2f} THz over {fit.n_points} points)"
        )


def cmd_density_map(run: _Run) -> None:
    cfg = run.cfg
    fiber = sweeps_mod.fiber_from_config(cfg)
    gas = sweeps_mod.gas_from_config(cfg)
    branches = sweeps_mod.density_records(cfg, fiber, gas)
    run.write("density.csv", "phase-matched branches over the pump scan",
              phasematch.density_map_to_csv, branches)
    families: dict[tuple[str, str], list[float]] = {}
    for b in branches:
        families.setdefault(b.family, []).append(b.theta_deg)
    fam_obj = {
        f"{s}+{i}": {
            "count": len(thetas),
            "theta_min_deg": min(thetas),
            "theta_max_deg": max(thetas),
        }
        for (s, i), thetas in sorted(families.items())
    }
    run.write("families.json", "branch families and their angle ranges",
              export.to_json, fam_obj, indent=1)
    names = sorted(f"{s}+{i}" for s, i in families)
    run.results["n_records"] = len(branches)
    run.results["families"] = names
    print(
        f"{len(branches)} phase-matched points in "
        f"{len(names)} famil{'y' if len(names) == 1 else 'ies'}"
        + (": " + ", ".join(names) if names else "")
    )


# subcommand -> (handler, help line), in --help order
_COMMANDS = {
    "dispersion": (cmd_dispersion, "band structure, dispersion curves, and ZDWs"),
    "phasematch": (
        cmd_phasematch, "phase-matched signal/idler branches at the pump"
    ),
    "jsa": (cmd_jsa, "joint spectral amplitude and marginals"),
    "schmidt": (cmd_schmidt, "Schmidt decomposition of the JSA"),
    "set-sim": (cmd_set_sim, "stimulated-emission tomography simulation"),
    "sweep-length": (cmd_sweep, "JSA and Schmidt numbers vs fiber length"),
    "sweep-pressure": (cmd_sweep, "branch tuning and Schmidt numbers vs gas pressure"),
    "density-map": (
        cmd_density_map, "branch families over a pump-wavelength scan"
    ),
}
SUBCOMMANDS = tuple(_COMMANDS)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="hcfwm",
        description=(
            "Design and analysis of photon-pair generation by four-wave "
            "mixing in gas-filled hollow-core fiber"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"hcfwm {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    config_help = (
        f"YAML config path or bundled recipe name ({', '.join(bundled_recipes())})"
    )
    for name, (_, help_line) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", required=True, help=config_help)
        p.add_argument(
            "--out",
            default=None,
            help="output root (default: the config's output.dir)",
        )
        p.add_argument(
            "--label",
            default=None,
            help="run directory name (default: UTC timestamp)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility (must be >= 1); hcfwm starts "
            "no threads of its own",
        )
    return parser


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            raise ValidationError(
                f"a subcommand is required: one of {', '.join(SUBCOMMANDS)}"
            )
        if args.threads < 1:
            raise ValidationError(
                f"--threads must be >= 1, got {args.threads}"
            )
        cfg = resolve_config(args.config)
        label = args.label or datetime.datetime.now(
            datetime.timezone.utc
        ).strftime("%Y%m%dT%H%M%SZ")
        if label in (".", "..") or os.path.basename(label) != label:
            raise ValidationError(f"--label must be one path component, got {label!r}")
        out_root = args.out or cfg.output.dir
        run_dir = os.path.join(out_root, args.subcommand, label)
        try:
            os.makedirs(run_dir, exist_ok=True)
        except OSError as exc:
            raise ValidationError(
                f"cannot create run directory {run_dir}: {exc.strerror}"
            ) from None
        run = _Run(cfg, args.subcommand, run_dir)
        with _one_line_warnings():
            _COMMANDS[args.subcommand][0](run)
            run.finish()
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # float overflow on extreme inputs, e.g. fiber.R_eff_um: 1e300
        print(f"numerical failure: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
