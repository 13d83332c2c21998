"""Run configuration: strict schema, YAML loading, and round-trip dumps.

One structured config drives every subcommand.  Parsing is strict:
unknown keys are rejected with their full dotted path, because a silent
unit typo (nm where µm was meant) is the dominant failure mode in this
domain.  Section contents default to the reference operating point
(t = 630 nm, R_eff = 22 µm, xenon at 3.4 bar, 1030 nm / 280 fs pump),
but the fiber, gas, and pump sections themselves must be present so an
empty file fails loudly instead of running on silent defaults.

Frequency-like config values follow the package convention: fields
suffixed _THz are angular frequencies in units of 10^12 rad/s.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

import yaml

from .errors import ValidationError

__all__ = [
    "FiberConfig",
    "GasConfig",
    "ModulationConfig",
    "PumpConfig",
    "GridConfig",
    "PhasematchConfig",
    "NoiseConfig",
    "SetSimConfig",
    "SweepLengthConfig",
    "SweepPressureConfig",
    "DensityMapConfig",
    "OutputConfig",
    "RunConfig",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "loads_config",
    "dump_config",
]

REQUIRED_SECTIONS = ("fiber", "gas", "pump")
KNOWN_FORMATS = ("csv", "json")


def _number(path: str, value: Any) -> float:
    """A number or numeric string as float; booleans are rejected.

    PyYAML reads 50e-9 (no dot in the mantissa) as a string, so numeric
    strings stay accepted.
    """
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"config key '{path}' must be a number, got {value!r}")


def _require_positive(path: str, value: float) -> float:
    value = _number(path, value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValidationError(
            f"config key '{path}' must be finite and > 0, got {value}"
        )
    return value


def _require_nonnegative(path: str, value: float) -> float:
    value = _number(path, value)
    if not (math.isfinite(value) and value >= 0.0):
        raise ValidationError(
            f"config key '{path}' must be finite and >= 0, got {value}"
        )
    return value


def _require_int(path: str, value: Any, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(
            f"config key '{path}' must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ValidationError(
            f"config key '{path}' must be >= {minimum}, got {value}"
        )
    return int(value)


class _Section:
    """Dict view that tracks consumed keys and rejects leftovers."""

    def __init__(self, raw: Any, path: str):
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ValidationError(
                f"config section '{path}' must be a mapping, got {raw!r}"
            )
        self.raw = dict(raw)
        self.path = path

    def take(self, key: str, default: Any) -> Any:
        return self.raw.pop(key, default)

    def sub(self, key: str) -> "_Section | None":
        if key not in self.raw:
            return None
        child = f"{self.path}.{key}" if self.path else key
        return _Section(self.raw.pop(key), child)

    def finish(self) -> None:
        if self.raw:
            extras = ", ".join(
                f"'{self.path}.{k}'" if self.path else f"'{k}'"
                for k in sorted(self.raw)
            )
            raise ValidationError(f"unknown config key(s): {extras}")


@dataclass(frozen=True)
class FiberConfig:
    R_eff_um: float = 22.0
    t_nm: float = 630.0
    mode_m: int = 1
    mode_n: int = 1

    @staticmethod
    def parse(sec: _Section) -> "FiberConfig":
        cfg = FiberConfig(
            R_eff_um=_require_positive(
                f"{sec.path}.R_eff_um", sec.take("R_eff_um", 22.0)
            ),
            t_nm=_require_positive(f"{sec.path}.t_nm", sec.take("t_nm", 630.0)),
            mode_m=_require_int(f"{sec.path}.mode_m", sec.take("mode_m", 1), 1),
            mode_n=_require_int(f"{sec.path}.mode_n", sec.take("mode_n", 1), 1),
        )
        sec.finish()
        return cfg


@dataclass(frozen=True)
class GasConfig:
    species: str = "xenon"
    pressure_bar: float = 3.4
    temperature_K: float = 293.15

    @staticmethod
    def parse(sec: _Section) -> "GasConfig":
        species = sec.take("species", "xenon")
        if not isinstance(species, str) or not species:
            raise ValidationError(
                f"config key '{sec.path}.species' must be a gas name, "
                f"got {species!r}"
            )
        cfg = GasConfig(
            species=species,
            pressure_bar=_require_positive(
                f"{sec.path}.pressure_bar", sec.take("pressure_bar", 3.4)
            ),
            temperature_K=_require_positive(
                f"{sec.path}.temperature_K", sec.take("temperature_K", 293.15)
            ),
        )
        sec.finish()
        return cfg


@dataclass(frozen=True)
class ModulationConfig:
    depth: float = 0.0
    period_THz: float = 1.0

    @staticmethod
    def parse(sec: _Section) -> "ModulationConfig":
        depth = _number(f"{sec.path}.depth", sec.take("depth", 0.0))
        if not 0.0 <= depth < 1.0:
            raise ValidationError(
                f"config key '{sec.path}.depth' must be in [0, 1), got {depth}"
            )
        cfg = ModulationConfig(
            depth=depth,
            period_THz=_require_positive(
                f"{sec.path}.period_THz", sec.take("period_THz", 1.0)
            ),
        )
        sec.finish()
        return cfg


@dataclass(frozen=True)
class PumpConfig:
    lambda_nm: float = 1030.0
    pulse_fwhm_fs: float | None = 280.0
    sigma_THz: float | None = None
    modulation: ModulationConfig | None = None

    @staticmethod
    def parse(sec: _Section) -> "PumpConfig":
        lam = _require_positive(
            f"{sec.path}.lambda_nm", sec.take("lambda_nm", 1030.0)
        )
        fwhm = sec.take("pulse_fwhm_fs", None)
        sigma = sec.take("sigma_THz", None)
        if fwhm is not None and sigma is not None:
            raise ValidationError(
                f"config section '{sec.path}' must set exactly one pump "
                "width ('pulse_fwhm_fs' or 'sigma_THz'); both are present"
            )
        if fwhm is None and sigma is None:
            fwhm = 280.0
        if fwhm is not None:
            fwhm = _require_positive(f"{sec.path}.pulse_fwhm_fs", fwhm)
        if sigma is not None:
            sigma = _require_positive(f"{sec.path}.sigma_THz", sigma)
        mod_sec = sec.sub("modulation")
        modulation = ModulationConfig.parse(mod_sec) if mod_sec else None
        sec.finish()
        return PumpConfig(
            lambda_nm=lam,
            pulse_fwhm_fs=fwhm,
            sigma_THz=sigma,
            modulation=modulation,
        )


@dataclass(frozen=True)
class GridConfig:
    N: int = 512
    span: float = 4.0
    mode: str = "linearized"

    @staticmethod
    def parse(sec: _Section) -> "GridConfig":
        mode = sec.take("mode", "linearized")
        if mode not in ("linearized", "full"):
            raise ValidationError(
                f"config key '{sec.path}.mode' must be 'linearized' or "
                f"'full', got {mode!r}"
            )
        cfg = GridConfig(
            N=_require_int(f"{sec.path}.N", sec.take("N", 512), 16),
            span=_require_positive(f"{sec.path}.span", sec.take("span", 4.0)),
            mode=mode,
        )
        sec.finish()
        return cfg


@dataclass(frozen=True)
class PhasematchConfig:
    grid_points: int = 4000
    pump_peak_power_W: float = 0.0
    detuning_min_THz: float | None = None
    detuning_max_THz: float | None = None
    seed_idler_nm: float | None = None

    @staticmethod
    def parse(sec: _Section) -> "PhasematchConfig":
        power = _require_nonnegative(
            f"{sec.path}.pump_peak_power_W", sec.take("pump_peak_power_W", 0.0)
        )
        lo = sec.take("detuning_min_THz", None)
        hi = sec.take("detuning_max_THz", None)
        if lo is not None:
            lo = _require_positive(f"{sec.path}.detuning_min_THz", lo)
        if hi is not None:
            hi = _require_positive(f"{sec.path}.detuning_max_THz", hi)
        if lo is not None and hi is not None and hi <= lo:
            raise ValidationError(
                f"config key '{sec.path}.detuning_max_THz' must exceed "
                "'detuning_min_THz'"
            )
        seed = sec.take("seed_idler_nm", None)
        if seed is not None:
            seed = _require_positive(f"{sec.path}.seed_idler_nm", seed)
        cfg = PhasematchConfig(
            grid_points=_require_int(
                f"{sec.path}.grid_points", sec.take("grid_points", 4000), 16
            ),
            pump_peak_power_W=power,
            detuning_min_THz=lo,
            detuning_max_THz=hi,
            seed_idler_nm=seed,
        )
        sec.finish()
        return cfg

    def detuning_window(self) -> tuple[float, float] | None:
        """Window in rad/s for the root scan, or None for the band default."""
        if self.detuning_min_THz is None and self.detuning_max_THz is None:
            return None
        if self.detuning_min_THz is None or self.detuning_max_THz is None:
            raise ValidationError(
                "config keys 'phasematch.detuning_min_THz' and "
                "'phasematch.detuning_max_THz' must be set together"
            )
        return (self.detuning_min_THz * 1e12, self.detuning_max_THz * 1e12)


@dataclass(frozen=True)
class NoiseConfig:
    rel_sigma: float = 0.0
    dark_floor: float = 0.0
    seed: int = 0

    @staticmethod
    def parse(sec: _Section) -> "NoiseConfig":
        rel = _require_nonnegative(
            f"{sec.path}.rel_sigma", sec.take("rel_sigma", 0.0)
        )
        dark = _require_nonnegative(
            f"{sec.path}.dark_floor", sec.take("dark_floor", 0.0)
        )
        seed = sec.take("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValidationError(
                f"config key '{sec.path}.seed' must be an integer, got {seed!r}"
            )
        sec.finish()
        return NoiseConfig(rel_sigma=rel, dark_floor=dark, seed=seed)


@dataclass(frozen=True)
class SetSimConfig:
    seed_min_nm: float = 1530.0
    seed_max_nm: float = 1560.0
    steps: int = 201
    pump_power_W: float = 0.2
    seed_power_W: float = 50e-9
    duty_cycle: float = 1.0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    power_check_seed_W: tuple[float, ...] | None = None
    power_check_pump_W: tuple[float, ...] | None = None

    @staticmethod
    def parse(sec: _Section) -> "SetSimConfig":
        lo = _require_positive(
            f"{sec.path}.seed_min_nm", sec.take("seed_min_nm", 1530.0)
        )
        hi = _require_positive(
            f"{sec.path}.seed_max_nm", sec.take("seed_max_nm", 1560.0)
        )
        if hi <= lo:
            raise ValidationError(
                f"config key '{sec.path}.seed_max_nm' must exceed "
                "'seed_min_nm'"
            )
        duty = _number(f"{sec.path}.duty_cycle", sec.take("duty_cycle", 1.0))
        if not 0.0 < duty <= 1.0:
            raise ValidationError(
                f"config key '{sec.path}.duty_cycle' must be in (0, 1], "
                f"got {duty}"
            )
        noise_sec = sec.sub("noise")
        noise = NoiseConfig.parse(noise_sec) if noise_sec else NoiseConfig()

        def powers(key: str) -> tuple[float, ...] | None:
            vals = sec.take(key, None)
            if vals is None:
                return None
            if not isinstance(vals, (list, tuple)) or len(vals) < 5:
                raise ValidationError(
                    f"config key '{sec.path}.{key}' needs a list of >= 5 "
                    "powers in W"
                )
            return tuple(
                _require_positive(f"{sec.path}.{key}[{i}]", v)
                for i, v in enumerate(vals)
            )

        cfg = SetSimConfig(
            seed_min_nm=lo,
            seed_max_nm=hi,
            steps=_require_int(f"{sec.path}.steps", sec.take("steps", 201), 2),
            pump_power_W=_require_positive(
                f"{sec.path}.pump_power_W", sec.take("pump_power_W", 0.2)
            ),
            seed_power_W=_require_positive(
                f"{sec.path}.seed_power_W", sec.take("seed_power_W", 50e-9)
            ),
            duty_cycle=duty,
            noise=noise,
            power_check_seed_W=powers("power_check_seed_W"),
            power_check_pump_W=powers("power_check_pump_W"),
        )
        sec.finish()
        return cfg


@dataclass(frozen=True)
class SweepLengthConfig:
    lengths_m: tuple[float, ...] = (0.4, 0.6, 0.8, 1.0)

    @staticmethod
    def parse(sec: _Section) -> "SweepLengthConfig":
        vals = sec.take("lengths_m", None)
        if vals is None:
            raise ValidationError(
                f"config section '{sec.path}' is missing key "
                f"'{sec.path}.lengths_m'"
            )
        if not isinstance(vals, (list, tuple)) or not vals:
            raise ValidationError(
                f"config key '{sec.path}.lengths_m' must be a non-empty list"
            )
        lengths = tuple(
            _require_positive(f"{sec.path}.lengths_m[{i}]", v)
            for i, v in enumerate(vals)
        )
        if len(lengths) > 1 and any(
            b <= a for a, b in zip(lengths, lengths[1:])
        ):
            raise ValidationError(
                f"config key '{sec.path}.lengths_m' must be strictly "
                "increasing"
            )
        sec.finish()
        return SweepLengthConfig(lengths_m=lengths)


@dataclass(frozen=True)
class SweepPressureConfig:
    pressures_bar: tuple[float, ...] = ()

    @staticmethod
    def parse(sec: _Section) -> "SweepPressureConfig":
        explicit = sec.take("pressures_bar", None)
        start = sec.take("start_bar", None)
        stop = sec.take("stop_bar", None)
        step = sec.take("step_bar", None)
        ranged = start is not None or stop is not None or step is not None
        if explicit is not None and ranged:
            raise ValidationError(
                f"config section '{sec.path}' must set either "
                "'pressures_bar' or start_bar/stop_bar/step_bar, not both"
            )
        if explicit is not None:
            if not isinstance(explicit, (list, tuple)) or not explicit:
                raise ValidationError(
                    f"config key '{sec.path}.pressures_bar' must be a "
                    "non-empty list"
                )
            pressures = tuple(
                _require_positive(f"{sec.path}.pressures_bar[{i}]", v)
                for i, v in enumerate(explicit)
            )
        elif ranged:
            if start is None or stop is None or step is None:
                raise ValidationError(
                    f"config section '{sec.path}' needs all of start_bar, "
                    "stop_bar, step_bar"
                )
            start = _require_positive(f"{sec.path}.start_bar", start)
            stop = _require_positive(f"{sec.path}.stop_bar", stop)
            step = _require_positive(f"{sec.path}.step_bar", step)
            if stop <= start:
                raise ValidationError(
                    f"config key '{sec.path}.stop_bar' must exceed 'start_bar'"
                )
            count = int(round((stop - start) / step)) + 1
            pressures = tuple(
                round(start + i * step, 12) for i in range(count)
            )
            if pressures[-1] > stop + 1e-9:
                pressures = pressures[:-1]
        else:
            raise ValidationError(
                f"config section '{sec.path}' is missing a pressure axis "
                "('pressures_bar' or start_bar/stop_bar/step_bar)"
            )
        if len(pressures) > 1 and any(
            b <= a for a, b in zip(pressures, pressures[1:])
        ):
            raise ValidationError(
                f"config key '{sec.path}.pressures_bar' must be strictly "
                "increasing"
            )
        for i, p in enumerate(pressures):
            if p > 20.0:
                raise ValidationError(
                    f"config key '{sec.path}.pressures_bar[{i}]' is outside "
                    f"the gas-model sanity range (0, 20] bar: {p}"
                )
        sec.finish()
        return SweepPressureConfig(pressures_bar=pressures)


@dataclass(frozen=True)
class DensityMapConfig:
    pump_min_nm: float = 700.0
    pump_max_nm: float = 1250.0
    pump_steps: int = 51

    @staticmethod
    def parse(sec: _Section) -> "DensityMapConfig":
        lo = _require_positive(
            f"{sec.path}.pump_min_nm", sec.take("pump_min_nm", 700.0)
        )
        hi = _require_positive(
            f"{sec.path}.pump_max_nm", sec.take("pump_max_nm", 1250.0)
        )
        if hi <= lo:
            raise ValidationError(
                f"config key '{sec.path}.pump_max_nm' must exceed "
                "'pump_min_nm'"
            )
        cfg = DensityMapConfig(
            pump_min_nm=lo,
            pump_max_nm=hi,
            pump_steps=_require_int(
                f"{sec.path}.pump_steps", sec.take("pump_steps", 51), 2
            ),
        )
        sec.finish()
        return cfg


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "runs"
    formats: tuple[str, ...] = ("csv", "json")

    @staticmethod
    def parse(sec: _Section) -> "OutputConfig":
        out_dir = sec.take("dir", "runs")
        if not isinstance(out_dir, str) or not out_dir:
            raise ValidationError(
                f"config key '{sec.path}.dir' must be a directory name"
            )
        formats = sec.take("formats", list(KNOWN_FORMATS))
        if not isinstance(formats, (list, tuple)) or not formats:
            raise ValidationError(
                f"config key '{sec.path}.formats' must be a non-empty list"
            )
        for fmt in formats:
            if fmt not in KNOWN_FORMATS:
                raise ValidationError(
                    f"config key '{sec.path}.formats' allows only "
                    f"{KNOWN_FORMATS}, got {fmt!r}"
                )
        sec.finish()
        return OutputConfig(dir=out_dir, formats=tuple(formats))


@dataclass(frozen=True)
class RunConfig:
    fiber: FiberConfig = field(default_factory=FiberConfig)
    gas: GasConfig = field(default_factory=GasConfig)
    pump: PumpConfig = field(default_factory=PumpConfig)
    fiber_length_m: float = 1.0
    grid: GridConfig = field(default_factory=GridConfig)
    phasematch: PhasematchConfig = field(default_factory=PhasematchConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    sweep_length: SweepLengthConfig | None = None
    sweep_pressure: SweepPressureConfig | None = None
    density_map: DensityMapConfig | None = None
    set_sim: SetSimConfig | None = None


def config_from_dict(raw: Any) -> RunConfig:
    """Strict parse of a plain mapping into a RunConfig."""
    if raw is None or raw == {}:
        raise ValidationError(
            "config file is empty; missing required sections: "
            + ", ".join(f"'{s}'" for s in REQUIRED_SECTIONS)
        )
    top = _Section(raw, "")
    missing = [s for s in REQUIRED_SECTIONS if s not in top.raw]
    if missing:
        raise ValidationError(
            "config is missing required section(s): "
            + ", ".join(f"'{s}'" for s in missing)
        )
    fiber = FiberConfig.parse(top.sub("fiber"))
    gas = GasConfig.parse(top.sub("gas"))
    pump = PumpConfig.parse(top.sub("pump"))
    length = _require_positive(
        "fiber_length_m", top.take("fiber_length_m", 1.0)
    )
    grid_sec = top.sub("grid")
    grid = GridConfig.parse(grid_sec) if grid_sec else GridConfig()
    pm_sec = top.sub("phasematch")
    pm = PhasematchConfig.parse(pm_sec) if pm_sec else PhasematchConfig()
    out_sec = top.sub("output")
    output = OutputConfig.parse(out_sec) if out_sec else OutputConfig()
    sl_sec = top.sub("sweep_length")
    sweep_length = SweepLengthConfig.parse(sl_sec) if sl_sec else None
    sp_sec = top.sub("sweep_pressure")
    sweep_pressure = SweepPressureConfig.parse(sp_sec) if sp_sec else None
    dm_sec = top.sub("density_map")
    density_map = DensityMapConfig.parse(dm_sec) if dm_sec else None
    ss_sec = top.sub("set_sim")
    set_sim = SetSimConfig.parse(ss_sec) if ss_sec else None
    top.finish()
    return RunConfig(
        fiber=fiber,
        gas=gas,
        pump=pump,
        fiber_length_m=length,
        grid=grid,
        phasematch=pm,
        output=output,
        sweep_length=sweep_length,
        sweep_pressure=sweep_pressure,
        density_map=density_map,
        set_sim=set_sim,
    )


def _strip_nones(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip_nones(v) for k, v in obj.items() if v is not None}
    if isinstance(obj, (list, tuple)):
        return [_strip_nones(v) for v in obj]
    return obj


def config_to_dict(cfg: RunConfig) -> dict:
    """Plain mapping that parses back to an equal RunConfig."""
    return _strip_nones(asdict(cfg))


def loads_config(text: str, origin: str = "<config>") -> RunConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {origin} is not valid YAML: {exc}")
    return config_from_dict(raw)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}")
    return loads_config(text, origin=path)


def dump_config(cfg: RunConfig, path: str | None = None) -> str:
    text = yaml.safe_dump(
        config_to_dict(cfg), default_flow_style=False, sort_keys=True
    )
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
