"""Flat key = value run configuration with mandatory unit suffixes.

Dimensioned values must be written as '<number> <unit>' (e.g.
'E0 = 2.104 eV'); bare numbers are rejected for them because the input
space mixes eV, cm, g and K and a silent default unit is the main hazard.
Count-like keys (mode_index, N, n0) take bare numbers.  Unknown keys are
errors; each command reports its missing required keys by name.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from .units import (
    AREA_DENSITY,
    DIPOLE_MOMENT,
    Dimension,
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    TEMPERATURE,
    TIME,
    UNITS,
    VOLUME_DENSITY,
    qty,
)

__all__ = ["ConfigError", "RunConfig", "SweepSpec", "KEY_SPECS", "sweep_values"]


class ConfigError(ValueError):
    """Malformed, unknown, missing, or inconsistent configuration input."""


@dataclass(frozen=True)
class KeySpec:
    kind: str                      # "quantity" | "int" | "float" | "choice"
    dimension: Dimension | None = None
    sweep_unit: str | None = None  # canonical unit for sweep from/to values
    choices: tuple[str, ...] = ()


KEY_SPECS: dict[str, KeySpec] = {
    # medium
    "E0": KeySpec("quantity", ENERGY, "eV"),
    "d": KeySpec("quantity", DIPOLE_MOMENT, "D"),
    "n3": KeySpec("quantity", VOLUME_DENSITY, "cm^-3"),
    "tau_coh": KeySpec("quantity", TIME, "s"),
    # cavity / coupling
    "L_cav": KeySpec("quantity", LENGTH, "cm"),
    "mode_index": KeySpec("int"),
    "d_beam": KeySpec("quantity", LENGTH, "cm"),
    "g": KeySpec("quantity", ENERGY, "eV"),
    "Delta": KeySpec("quantity", ENERGY, "eV"),
    # gas
    "T": KeySpec("quantity", TEMPERATURE, "K"),
    "n2": KeySpec("quantity", AREA_DENSITY, "cm^-2"),
    "n_s": KeySpec("quantity", AREA_DENSITY, "cm^-2"),
    "m_eff": KeySpec("quantity", MASS, "g"),
    # trap
    "omega_eff": KeySpec("quantity", FREQUENCY, "s^-1"),
    "omega_at": KeySpec("quantity", FREQUENCY, "s^-1"),
    "U0": KeySpec("quantity", ENERGY, "eV"),
    "r0": KeySpec("quantity", LENGTH, "cm"),
    "E_char": KeySpec("quantity", ENERGY, "eV"),
    "N": KeySpec("float"),
    "n0": KeySpec("float"),
    # output
    "format": KeySpec("choice", choices=("csv", "json")),
    "units": KeySpec("choice", choices=("cgs", "si")),
}


def _parse_number(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key '{key}': cannot parse number from {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}': expected a finite number, got {text!r}")
    return value


def _parse_entry(key: str, raw: str) -> object:
    spec = KEY_SPECS[key]
    raw = raw.strip()
    if spec.kind == "choice":
        if raw not in spec.choices:
            raise ConfigError(f"key '{key}': expected one of {spec.choices}, got {raw!r}")
        return raw
    if spec.kind == "int":
        value = _parse_number(raw, key)
        if value != int(value):
            raise ConfigError(f"key '{key}': expected an integer, got {raw!r}")
        return int(value)
    if spec.kind == "float":
        return _parse_number(raw, key)
    # dimensioned quantity: "<number> <unit>"
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(
            f"key '{key}': expected '<number> <unit>' (bare numbers are rejected "
            f"for dimensioned keys), got {raw!r}"
        )
    value = _parse_number(parts[0], key)
    unit = parts[1]
    if unit not in UNITS:
        raise ConfigError(f"key '{key}': unknown unit {unit!r}")
    q = qty(value, unit)
    if q.dimension != spec.dimension:
        raise ConfigError(
            f"key '{key}': unit {unit!r} has dimension "
            f"[{q.dimension.unit_string()}], expected [{spec.dimension.unit_string()}]"
        )
    if not math.isfinite(q.cgs):
        raise ConfigError(f"key '{key}': {raw!r} overflows to {q.cgs} in cgs units")
    return q


def check_keys(keys) -> None:
    """The check across keys that every config passes: L_cav and Delta are
    two ways to fix the same detuning."""
    if "L_cav" in keys and "Delta" in keys:
        raise ConfigError("give either 'L_cav' or 'Delta', not both")


@dataclass
class RunConfig:
    """Parsed configuration; values keyed exactly as in the file."""

    values: dict[str, object] = field(default_factory=dict)
    source_text: str = ""

    @classmethod
    def parse(cls, text: str) -> "RunConfig":
        values: dict[str, object] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key not in KEY_SPECS:
                raise ConfigError(f"line {lineno}: unknown key '{key}'")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key '{key}'")
            values[key] = _parse_entry(key, raw)
        check_keys(values)
        return cls(values=values, source_text=text)

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def require(self, key: str):
        if key not in self.values:
            raise ConfigError(f"missing required key '{key}'")
        return self.values[key]

    def require_any(self, *keys: str):
        for key in keys:
            if key in self.values:
                return key, self.values[key]
        raise ConfigError(f"missing required key: one of {', '.join(repr(k) for k in keys)}")

    def with_value(self, key: str, value: object) -> "RunConfig":
        new = dict(self.values)
        new[key] = value
        return RunConfig(values=new, source_text=self.source_text)

    def digest(self) -> str:
        """Stable short hash of the raw config text."""
        return hashlib.sha256(self.source_text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class SweepSpec:
    """One swept config leaf: from/to in the leaf's canonical unit."""

    param: str
    start: float
    stop: float
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.param not in KEY_SPECS:
            raise ConfigError(f"unknown sweep parameter '{self.param}'")
        if KEY_SPECS[self.param].kind == "choice":
            raise ConfigError(f"cannot sweep non-numeric key '{self.param}'")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(f"sweep endpoints must be finite, got {self.start} and {self.stop}")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if self.start == self.stop:
            raise ConfigError("sweep endpoints must differ")
        if self.scale not in ("linear", "log"):
            raise ConfigError(f"sweep scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.start * self.stop <= 0:
            raise ConfigError("log sweep requires same-sign nonzero endpoints")

    @property
    def unit(self) -> str | None:
        return KEY_SPECS[self.param].sweep_unit


def sweep_values(spec: SweepSpec) -> list[float]:
    """Grid in the leaf's unit; linear grids hit symmetric midpoints exactly."""
    n = spec.steps
    if spec.scale == "linear":
        span = spec.stop - spec.start
        return [spec.start + span * i / (n - 1) for i in range(n)]
    la, lb = math.log(abs(spec.start)), math.log(abs(spec.stop))
    sign = 1.0 if spec.start > 0 else -1.0
    return [sign * math.exp(la + (lb - la) * i / (n - 1)) for i in range(n)]


def config_cgs(spec: SweepSpec, value: float) -> float | int:
    """A swept numeric value as the cgs magnitude the leaf's config value holds.

    Quantities scale by their sweep unit's factor, which is the float
    qty(value, unit).cgs gives; int leaves come back as int.
    """
    key_spec = KEY_SPECS[spec.param]
    if key_spec.kind == "quantity":
        magnitude = float(value) * UNITS[key_spec.sweep_unit][0]
    else:
        magnitude = value
    if not math.isfinite(magnitude):
        raise ConfigError(
            f"sweep over '{spec.param}' produced {value}, which is not finite in cgs units"
        )
    if key_spec.kind == "int":
        if value != int(value):
            raise ConfigError(f"sweep over '{spec.param}' produced non-integer {value}")
        return int(value)
    return magnitude
