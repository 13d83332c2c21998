"""Refractive index and Kerr nonlinearity of filling gases and silica.

Dispersion data live in ``data/gases.yaml`` (override with the
``HCFWM_GAS_DATA`` environment variable); each species carries Sellmeier
coefficients valid at reference conditions ``(P0, T0)`` plus a validity
window.  Gas indices at other pressures and temperatures follow ideal-gas
density scaling of the susceptibility:

    n(P, T) = sqrt(1 + (n0^2 - 1) * (P / P0) * (T0 / T))

Because gas indices sit within a few 1e-4 of unity, everything downstream
works with the reduced index ``delta = n - 1`` evaluated without forming
``n`` first:

    s = (n0^2 - 1) * (P / P0) * (T0 / T)
    delta = s / (1 + sqrt(1 + s))

which is exact and loses no precision when ``s`` is tiny.

Units
-----
wavelength   vacuum nm at the API surface, um inside the Sellmeier sums
pressure     bar
temperature  K
n2           m^2/W (per-species tabulated as m^2/(W bar))
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np
import yaml

from .errors import RangeError, ValidationError, check_number

_REQUIRED_KEYS = {
    "B",
    "C_um2",
    "lambda_min_nm",
    "lambda_max_nm",
    "P0_bar",
    "T0_K",
    "n2_per_bar_m2W",
}

# silica is wall material, not a filling medium
_NOT_A_GAS = {"silica"}


@dataclass(frozen=True)
class SellmeierModel:
    """Sellmeier dispersion of one species at its reference conditions."""

    species: str
    B: tuple[float, ...]
    C_um2: tuple[float, ...]
    lambda_min_nm: float
    lambda_max_nm: float
    P0_bar: float
    T0_K: float
    n2_per_bar_m2W: float

    def __post_init__(self):
        if len(self.B) == 0 or len(self.B) != len(self.C_um2):
            raise ValidationError(
                f"{self.species}: B and C_um2 must be equal-length, non-empty"
            )
        for key in ("B", "C_um2"):
            for i, v in enumerate(getattr(self, key)):
                check_number(f"{self.species}: {key}[{i}]", v)
        for key in ("lambda_min_nm", "lambda_max_nm", "P0_bar", "T0_K"):
            check_number(
                f"{self.species}: {key}", getattr(self, key), lo=0, lo_open=True
            )
        check_number(f"{self.species}: n2_per_bar_m2W", self.n2_per_bar_m2W, lo=0)
        if not self.lambda_min_nm < self.lambda_max_nm:
            raise ValidationError(
                f"{self.species}: invalid validity window "
                f"({self.lambda_min_nm}, {self.lambda_max_nm}) nm"
            )

    def check_window(self, lambda_nm):
        lam = np.asarray(lambda_nm, dtype=float)
        if np.any(lam < self.lambda_min_nm) or np.any(lam > self.lambda_max_nm):
            bad = lam[(lam < self.lambda_min_nm) | (lam > self.lambda_max_nm)]
            raise RangeError(
                f"wavelength {float(np.min(bad)):.6g} nm outside the "
                f"{self.species} validity window "
                f"[{self.lambda_min_nm:g}, {self.lambda_max_nm:g}] nm"
            )

    def n_squared_minus_one(self, lambda_nm, check: bool = True):
        """Sellmeier sum n^2 - 1 at the reference conditions.

        Returned un-rooted so callers can density-scale before taking a
        numerically safe square root.
        """
        if check:
            self.check_window(lambda_nm)
        lam_um2 = (np.asarray(lambda_nm, dtype=float) / 1e3) ** 2
        s = np.zeros_like(lam_um2)
        for b, c in zip(self.B, self.C_um2):
            s += b * lam_um2 / (lam_um2 - c)
        return s


@dataclass(frozen=True)
class GasState:
    """A filling gas at given pressure and temperature."""

    model: SellmeierModel
    pressure_bar: float
    temperature_K: float = 293.15

    def __post_init__(self):
        if self.model.species in _NOT_A_GAS:
            raise ValidationError(
                f"{self.model.species} is a wall material, not a filling gas"
            )
        check_number("pressure", self.pressure_bar, lo=0)
        check_number("temperature", self.temperature_K, lo=0, lo_open=True)

    @property
    def species(self) -> str:
        return self.model.species

    @property
    def n2_m2W(self) -> float:
        """Kerr index at this pressure, linear-in-density scaling."""
        return self.model.n2_per_bar_m2W * self.pressure_bar


def _data_path() -> str | None:
    return os.environ.get("HCFWM_GAS_DATA")


def _load_yaml(text: str):
    """``yaml.safe_load(text)``, through libyaml's ``CSafeLoader`` where
    PyYAML was built with it: about 6x faster, and it returns equal objects.

    A parse error is raised by the pure-Python ``SafeLoader``, whose message
    quotes the source line and a caret under the fault; libyaml's does not.
    """
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError:
        return yaml.load(text, Loader=yaml.SafeLoader)


@lru_cache(maxsize=8)
def _load_table(path: str | None) -> dict[str, SellmeierModel]:
    if path is None:
        text = (
            resources.files("hcfwm").joinpath("data/gases.yaml").read_text()
        )
    else:
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(
                f"cannot read gas data file {path}: {exc.strerror}"
            ) from None
    try:
        raw = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ValidationError(
            f"gas data file {path or 'data/gases.yaml'} is not valid YAML: {exc}"
        ) from None
    if not isinstance(raw, dict) or not raw:
        raise ValidationError("gas data file must map species names to entries")
    table: dict[str, SellmeierModel] = {}
    for species, entry in raw.items():
        if not isinstance(entry, dict):
            raise ValidationError(f"gas data for {species!r} is not a mapping")
        missing = _REQUIRED_KEYS - set(entry)
        if missing:
            raise ValidationError(
                f"gas data for {species!r} is missing keys: {sorted(missing)}"
            )
        extra = set(entry) - _REQUIRED_KEYS
        if extra:
            raise ValidationError(
                f"gas data for {species!r} has unknown keys: {sorted(extra)}"
            )
        table[species] = SellmeierModel(
            species=species,
            **{key: _table_value(species, key, entry[key]) for key in _REQUIRED_KEYS},
        )
    return table


def _table_value(species, key, value):
    """A gas-table entry as a float (a tuple of floats for the Sellmeier
    lists); numeric strings are accepted, anything else is a
    ValidationError that names the species and the key."""
    where = f"gas data for {species!r}: {key}"
    if key in ("B", "C_um2"):
        if not isinstance(value, list):
            raise ValidationError(f"{where} must be a list of numbers, got {value!r}")
        return tuple(
            _table_value(species, f"{key}[{i}]", v) for i, v in enumerate(value)
        )
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{where} must be a number, got {value!r}") from None


def load_gas_data(path: str | None = None) -> dict[str, SellmeierModel]:
    """Load the species table from YAML.

    Resolution order: explicit ``path`` argument, then the ``HCFWM_GAS_DATA``
    environment variable, then the bundled data file.
    """
    return dict(_load_table(path if path is not None else _data_path()))


def get_model(species: str) -> SellmeierModel:
    table = load_gas_data()
    try:
        return table[species]
    except KeyError:
        raise ValidationError(
            f"unknown species {species!r}; available: {sorted(table)}"
        ) from None


def make_gas(
    species: str,
    pressure_bar: float,
    temperature_K: float = 293.15,
) -> GasState:
    """Convenience constructor: species name plus conditions."""
    return GasState(
        model=get_model(species),
        pressure_bar=pressure_bar,
        temperature_K=temperature_K,
    )


def delta_gas(gas: GasState, lambda_nm, check: bool = True):
    """Reduced index delta = n - 1 of the gas at its pressure and temperature.

    Scales the reference susceptibility by density and converts with
    ``delta = s / (1 + sqrt(1 + s))``, avoiding the cancellation of
    ``sqrt(1 + s) - 1`` for s ~ 1e-4.
    """
    s0 = gas.model.n_squared_minus_one(lambda_nm, check=check)
    s = s0 * (gas.pressure_bar / gas.model.P0_bar) * (
        gas.model.T0_K / gas.temperature_K
    )
    return s / (1.0 + np.sqrt(1.0 + s))
