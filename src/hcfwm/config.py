"""Run configuration: strict schema, YAML loading, and round-trip dumps.

One structured config drives every subcommand.  Parsing is strict:
unknown keys are rejected with their full dotted path, because a silent
unit typo (nm where µm was meant) is the dominant failure mode in this
domain.  Section contents default to the reference operating point
(t = 630 nm, R_eff = 22 µm, xenon at 3.4 bar, 1030 nm / 280 fs pump),
but the fiber, gas, and pump sections themselves must be present so an
empty file fails loudly instead of running on silent defaults.

Each key is declared once, as a dataclass field that carries its default
and its check, and one function, `_parse`, reads every section from those
fields.

Frequency-like config values follow the package convention: fields
suffixed _THz are angular frequencies in units of 10^12 rad/s.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable

import yaml

from . import export
from .errors import ValidationError, check_number, shown
from .fibermodel import MAX_MODE_N
from .gasmedia import _load_yaml
from .jsa import DEFAULT_GRID_N, DEFAULT_KAPPA_SPAN, MAX_GRID_N, MAX_PUMP_SIGMA
from .jsa import GaussianPump
from .phasematch import (
    DEFAULT_GRID_POINTS,
    MAX_GRID_POINTS,
    MAX_MAP_POINTS,
    MAX_PUMP_STEPS,
)

REQUIRED_SECTIONS = ("fiber", "gas", "pump")
KNOWN_FORMATS = ("csv", "json")
SANITY_MAX_BAR = 20.0  # upper end of the gas-model sanity range (0, 20] bar
# A start/stop/step_bar range longer than this is refused before it is
# built: tuning_ar has 21 points, and without a cap a stop_bar of 1e300 or
# a step_bar of 1e-9 would allocate without limit instead of failing.
MAX_PRESSURE_POINTS = 10_000
_RANGE_KEYS = ("start_bar", "stop_bar", "step_bar")


# A check takes (dotted path, raw value) and returns the parsed value or
# raises ValidationError naming the path.
_Check = Callable[[str, Any], Any]


def _number(path: str, value: Any, **bounds: Any) -> float:
    """A number or numeric string as float, through ``check_number``.

    PyYAML reads 50e-9 (no dot in the mantissa) as a string, so numeric
    strings stay accepted here, and only here.
    """
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    return float(check_number(f"config key '{path}'", value, **bounds))


def _positive(path: str, value: Any) -> float:
    return _number(path, value, lo=0, lo_open=True)


def _thz(path: str, value: Any) -> float:
    """A positive angular frequency in 10^12 rad/s, finite in rad/s too."""
    thz = _positive(path, value)
    if not math.isfinite(thz * 1e12):
        raise ValidationError(
            f"config key '{path}' must stay finite in rad/s (x 1e12), got {thz}"
        )
    return thz


def _nonnegative(path: str, value: Any) -> float:
    return _number(path, value, lo=0)


def _integer(minimum: int, maximum: int | None = None) -> _Check:
    """An integer, at least `minimum`, and at most `maximum` if given."""
    return lambda path, value: check_number(
        f"config key '{path}'", value, lo=minimum, hi=maximum, integer=True
    )


def _interval(lo: int, hi: int, ends: str) -> _Check:
    """A number in the interval lo..hi, `ends` being e.g. '[)' or '(]'."""
    return lambda path, value: _number(
        path, value, lo=lo, lo_open=ends[0] == "(", hi=hi, hi_open=ends[1] == ")"
    )


def _text(noun: str, show_value: bool = True) -> _Check:
    """A non-empty string without a NUL, which no file name can hold."""

    def check(path: str, value: Any) -> str:
        if isinstance(value, str) and "\0" in value:
            raise ValidationError(f"config key '{path}' must not hold a NUL character")
        if isinstance(value, str) and value:
            return value
        got = f", got {shown(value)}" if show_value else ""
        raise ValidationError(f"config key '{path}' must be {noun}{got}")

    return check


def _choice(*options: str) -> _Check:
    def check(path: str, value: Any) -> str:
        if value not in options:
            raise ValidationError(
                f"config key '{path}' must be "
                + " or ".join(repr(o) for o in options)
                + f", got {shown(value)}"
            )
        return value

    return check


def _positives(
    min_len: int = 1, noun: str = "", increasing: bool = False
) -> _Check:
    """A list of at least `min_len` positive numbers, as a tuple."""

    def check(path: str, value: Any) -> tuple[float, ...]:
        if not isinstance(value, (list, tuple)) or len(value) < min_len:
            need = (
                f"needs a list of >= {min_len} {noun}"
                if noun
                else "must be a non-empty list"
            )
            raise ValidationError(f"config key '{path}' {need}")
        vals = tuple(_positive(f"{path}[{i}]", v) for i, v in enumerate(value))
        if increasing and any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError(
                f"config key '{path}' must be strictly increasing"
            )
        return vals

    return check


def _formats(path: str, value: Any) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ValidationError(f"config key '{path}' must be a non-empty list")
    for fmt in value:
        if fmt not in KNOWN_FORMATS:
            raise ValidationError(
                f"config key '{path}' allows only {KNOWN_FORMATS}, got {shown(fmt)}"
            )
    return tuple(value)


def _optional(check: _Check) -> _Check:
    """`check`, but an explicit null stays None."""
    return lambda path, value: None if value is None else check(path, value)


def _exceeds(path: str, lo_key: str, lo: Any, hi_key: str, hi: Any) -> None:
    """Rule spanning two keys: the max must exceed the min if both are set."""
    if lo is not None and hi is not None and hi <= lo:
        raise ValidationError(
            f"config key '{path}.{hi_key}' must exceed '{lo_key}'"
        )


def _together(path: str, a_key: str, a: Any, b_key: str, b: Any) -> None:
    """Rule spanning two keys: both set or neither."""
    if (a is None) != (b is None):
        raise ValidationError(
            f"config keys '{path}.{a_key}' and '{path}.{b_key}' must be set "
            "together"
        )


def _below_sanity_max(key: str, bar: float) -> None:
    if bar > SANITY_MAX_BAR:
        raise ValidationError(
            f"config key '{key}' is outside the gas-model sanity range "
            f"(0, {SANITY_MAX_BAR:g}] bar: {bar}"
        )


# Schema: every key is declared once, with its default and its check.

def _key(default: Any, check: _Check) -> Any:
    return field(default=default, metadata={"check": check})


def _section(cls: type, optional: bool = False) -> Any:
    """A nested section; when absent it is None if optional, else cls()."""
    if optional:
        return field(default=None, metadata={"section": cls})
    return field(default_factory=cls, metadata={"section": cls})


def _parse(cls: type, raw: Any, path: str) -> Any:
    """Strict parse of one section mapping into `cls`, field by field.

    An absent key takes its field default.  A present section is parsed
    even when null, as an empty mapping.  The class may define
    `_before(raw, path)`, which rewrites the raw mapping before the fields
    are read, and `_after(cfg, path)` for rules that span keys.  Keys left
    over are rejected with their full dotted paths.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValidationError(
            f"config section '{path}' must be a mapping, got {shown(raw)}"
        )
    raw = dict(raw)
    prefix = f"{path}." if path else ""
    if hasattr(cls, "_before"):
        cls._before(raw, path)
    values = {}
    for f in fields(cls):
        if f.name not in raw:
            continue
        value = raw.pop(f.name)
        key = prefix + f.name
        if "section" in f.metadata:
            values[f.name] = _parse(f.metadata["section"], value, key)
        else:
            values[f.name] = f.metadata["check"](key, value)
    cfg = cls(**values)
    if hasattr(cls, "_after"):
        cls._after(cfg, path)
    if raw:
        # YAML keys may mix types (1 and 'x'), which do not compare
        ordered = sorted(raw, key=lambda k: (type(k).__name__, k))
        extras = ", ".join(f"'{prefix}{k}'" for k in ordered)
        raise ValidationError(f"unknown config key(s): {extras}")
    return cfg


@dataclass(frozen=True)
class FiberConfig:
    R_eff_um: float = _key(22.0, _positive)
    t_nm: float = _key(630.0, _positive)
    mode_m: int = _key(1, _integer(1))
    mode_n: int = _key(1, _integer(1, MAX_MODE_N))


@dataclass(frozen=True)
class GasConfig:
    species: str = _key("xenon", _text("a gas name"))
    pressure_bar: float = _key(3.4, _positive)
    temperature_K: float = _key(293.15, _positive)


@dataclass(frozen=True)
class ModulationConfig:
    depth: float = _key(0.0, _interval(0, 1, "[)"))
    period_THz: float = _key(1.0, _thz)


@dataclass(frozen=True)
class PumpConfig:
    lambda_nm: float = _key(1030.0, _positive)
    pulse_fwhm_fs: float | None = _key(280.0, _optional(_positive))
    sigma_THz: float | None = _key(None, _optional(_thz))
    modulation: ModulationConfig | None = _section(ModulationConfig, True)

    @staticmethod
    def _before(raw: dict, path: str) -> None:
        """Exactly one pump width; with neither, the FWHM default holds."""
        fwhm, sigma = raw.get("pulse_fwhm_fs"), raw.get("sigma_THz")
        if fwhm is not None and sigma is not None:
            raise ValidationError(
                f"config section '{path}' must set exactly one pump "
                "width ('pulse_fwhm_fs' or 'sigma_THz'); both are present"
            )
        if sigma is not None:
            raw["pulse_fwhm_fs"] = None
        elif fwhm is None:
            raw.pop("pulse_fwhm_fs", None)

    @staticmethod
    def _after(cfg: "PumpConfig", path: str) -> None:
        """The width must give a field sigma that GaussianPump accepts."""
        if not cfg.sigma_rad_s() <= MAX_PUMP_SIGMA:
            key = "pulse_fwhm_fs" if cfg.sigma_THz is None else "sigma_THz"
            raise ValidationError(
                f"config key '{path}.{key}' gives a pump sigma above "
                f"{MAX_PUMP_SIGMA:g} rad/s, got {getattr(cfg, key)}"
            )

    def sigma_rad_s(self) -> float:
        """The field sigma of the pump, from whichever width is set."""
        if self.sigma_THz is None:
            return GaussianPump.sigma_from_fwhm(self.pulse_fwhm_fs)
        return self.sigma_THz * 1e12


@dataclass(frozen=True)
class GridConfig:
    N: int = _key(DEFAULT_GRID_N, _integer(16, MAX_GRID_N))
    span: float = _key(DEFAULT_KAPPA_SPAN, _positive)
    mode: str = _key("linearized", _choice("linearized", "full"))


@dataclass(frozen=True)
class PhasematchConfig:
    grid_points: int = _key(DEFAULT_GRID_POINTS, _integer(16, MAX_GRID_POINTS))
    pump_peak_power_W: float = _key(0.0, _nonnegative)
    detuning_min_THz: float | None = _key(None, _optional(_thz))
    detuning_max_THz: float | None = _key(None, _optional(_thz))
    seed_idler_nm: float | None = _key(None, _optional(_positive))

    @staticmethod
    def _after(cfg: "PhasematchConfig", path: str) -> None:
        _together(path, "detuning_min_THz", cfg.detuning_min_THz,
                  "detuning_max_THz", cfg.detuning_max_THz)
        _exceeds(path, "detuning_min_THz", cfg.detuning_min_THz,
                 "detuning_max_THz", cfg.detuning_max_THz)

    def detuning_window(self) -> tuple[float, float] | None:
        """Window in rad/s for the root scan, or None for the band default;
        the two keys are set together (checked at load)."""
        if self.detuning_min_THz is None:
            return None
        return (self.detuning_min_THz * 1e12, self.detuning_max_THz * 1e12)


@dataclass(frozen=True)
class NoiseConfig:
    rel_sigma: float = _key(0.0, _nonnegative)
    dark_floor: float = _key(0.0, _nonnegative)
    seed: int = _key(0, _integer(0))


@dataclass(frozen=True)
class SetSimConfig:
    seed_min_nm: float = _key(1530.0, _positive)
    seed_max_nm: float = _key(1560.0, _positive)
    steps: int = _key(201, _integer(2, MAX_GRID_N))
    pump_power_W: float = _key(0.2, _positive)
    seed_power_W: float = _key(50e-9, _positive)
    duty_cycle: float = _key(1.0, _interval(0, 1, "(]"))
    noise: NoiseConfig = _section(NoiseConfig)
    power_check_seed_W: tuple[float, ...] | None = _key(
        None, _optional(_positives(5, "powers in W"))
    )
    power_check_pump_W: tuple[float, ...] | None = _key(
        None, _optional(_positives(5, "powers in W"))
    )

    @staticmethod
    def _after(cfg: "SetSimConfig", path: str) -> None:
        _exceeds(path, "seed_min_nm", cfg.seed_min_nm,
                 "seed_max_nm", cfg.seed_max_nm)
        _together(path, "power_check_seed_W", cfg.power_check_seed_W,
                  "power_check_pump_W", cfg.power_check_pump_W)


@dataclass(frozen=True)
class SweepLengthConfig:
    lengths_m: tuple[float, ...] = _key(
        (0.4, 0.6, 0.8, 1.0), _positives(increasing=True)
    )

    @staticmethod
    def _before(raw: dict, path: str) -> None:
        if raw.get("lengths_m") is None:
            raise ValidationError(
                f"config section '{path}' is missing key '{path}.lengths_m'"
            )


@dataclass(frozen=True)
class SweepPressureConfig:
    pressures_bar: tuple[float, ...] = _key((), _positives(increasing=True))

    @staticmethod
    def _before(raw: dict, path: str) -> None:
        """Either 'pressures_bar' or the start/stop/step_bar range form."""
        explicit = raw.pop("pressures_bar", None)
        ends = [raw.pop(k, None) for k in _RANGE_KEYS]
        ranged = any(v is not None for v in ends)
        if explicit is not None and ranged:
            raise ValidationError(
                f"config section '{path}' must set either "
                "'pressures_bar' or start_bar/stop_bar/step_bar, not both"
            )
        if ranged:
            if any(v is None for v in ends):
                raise ValidationError(
                    f"config section '{path}' needs all of start_bar, "
                    "stop_bar, step_bar"
                )
            start, stop, step = (
                _positive(f"{path}.{k}", v) for k, v in zip(_RANGE_KEYS, ends)
            )
            _exceeds(path, "start_bar", start, "stop_bar", stop)
            span = (stop - start) / step  # inf when step_bar underflows it
            count = round(span) + 1 if span < MAX_PRESSURE_POINTS else math.inf
            if count > MAX_PRESSURE_POINTS:
                # refused before the axis is built; an out-of-range stop_bar
                # is the likelier typo, so it is named first
                _below_sanity_max(f"{path}.stop_bar", stop)
                raise ValidationError(
                    f"config key '{path}.step_bar' gives more than "
                    f"{MAX_PRESSURE_POINTS} pressures from start_bar to "
                    "stop_bar"
                )
            explicit = tuple(round(start + i * step, 12) for i in range(count))
            if explicit[-1] > stop + 1e-9:
                explicit = explicit[:-1]
        elif explicit is None:
            raise ValidationError(
                f"config section '{path}' is missing a pressure axis "
                "('pressures_bar' or start_bar/stop_bar/step_bar)"
            )
        raw["pressures_bar"] = explicit

    @staticmethod
    def _after(cfg: "SweepPressureConfig", path: str) -> None:
        for i, p in enumerate(cfg.pressures_bar):
            _below_sanity_max(f"{path}.pressures_bar[{i}]", p)


@dataclass(frozen=True)
class DensityMapConfig:
    pump_min_nm: float = _key(700.0, _positive)
    pump_max_nm: float = _key(1250.0, _positive)
    pump_steps: int = _key(51, _integer(2, MAX_PUMP_STEPS))

    @staticmethod
    def _after(cfg: "DensityMapConfig", path: str) -> None:
        _exceeds(path, "pump_min_nm", cfg.pump_min_nm,
                 "pump_max_nm", cfg.pump_max_nm)


@dataclass(frozen=True)
class OutputConfig:
    dir: str = _key("runs", _text("a directory name", show_value=False))
    formats: tuple[str, ...] = _key(KNOWN_FORMATS, _formats)


@dataclass(frozen=True)
class RunConfig:
    fiber: FiberConfig = _section(FiberConfig)
    gas: GasConfig = _section(GasConfig)
    pump: PumpConfig = _section(PumpConfig)
    fiber_length_m: float = _key(1.0, _positive)
    grid: GridConfig = _section(GridConfig)
    phasematch: PhasematchConfig = _section(PhasematchConfig)
    output: OutputConfig = _section(OutputConfig)
    sweep_length: SweepLengthConfig | None = _section(SweepLengthConfig, True)
    sweep_pressure: SweepPressureConfig | None = _section(
        SweepPressureConfig, True
    )
    density_map: DensityMapConfig | None = _section(DensityMapConfig, True)
    set_sim: SetSimConfig | None = _section(SetSimConfig, True)

    @staticmethod
    def _before(raw: dict, path: str) -> None:
        missing = [s for s in REQUIRED_SECTIONS if s not in raw]
        if missing:
            raise ValidationError(
                "config is missing required section(s): "
                + ", ".join(f"'{s}'" for s in missing)
            )

    @staticmethod
    def _after(cfg: "RunConfig", path: str) -> None:
        if cfg.density_map is None:
            return
        steps, points = cfg.density_map.pump_steps, cfg.phasematch.grid_points
        if steps * points > MAX_MAP_POINTS:
            raise ValidationError(
                "config keys 'density_map.pump_steps' x 'phasematch.grid_points' "
                f"must be <= {MAX_MAP_POINTS}, got {steps} x {points}"
            )


def required_section(cfg: RunConfig, name: str, purpose: str) -> Any:
    """The optional section ``name`` of ``cfg``, which ``purpose`` needs."""
    section = getattr(cfg, name)
    if section is None:
        raise ValidationError(f"config section '{name}' is required for {purpose}")
    return section


def config_from_dict(raw: Any) -> RunConfig:
    """Strict parse of a plain mapping into a RunConfig."""
    if raw is None or raw == {}:
        raise ValidationError(
            "config file is empty; missing required sections: "
            + ", ".join(f"'{s}'" for s in REQUIRED_SECTIONS)
        )
    return _parse(RunConfig, raw, "")


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
        raw = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ValidationError(f"config {origin} is not valid YAML: {exc}")
    return config_from_dict(raw)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from None
    return loads_config(text, origin=path)


def _printable_ascii(obj: Any) -> bool:
    """True if every string in a config mapping is printable ASCII."""
    if isinstance(obj, dict):
        return all(_printable_ascii(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_printable_ascii(v) for v in obj)
    return not isinstance(obj, str) or (obj.isascii() and obj.isprintable())


def dump_config(cfg: RunConfig, path: str | None = None) -> str | None:
    """The config as the YAML text of ``yaml.safe_dump``: written to
    ``path`` when given, else returned.

    libyaml's ``CSafeDumper`` writes that text in a fraction of the time,
    except that it folds a long double-quoted scalar at other places than
    PyYAML's pure-Python emitter.  Only a string with a character to escape
    is double-quoted, so a config with any string that is not printable
    ASCII goes through the pure-Python emitter.
    """
    data = config_to_dict(cfg)
    dumper = yaml.SafeDumper
    if _printable_ascii(data):
        dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    text = yaml.dump(data, Dumper=dumper, default_flow_style=False, sort_keys=True)
    return export.save((text.encode(),), path)
