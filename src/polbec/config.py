"""Flat key = value run configuration with mandatory unit suffixes.

Dimensioned values must be written as '<number> <unit>' (e.g.
'E0 = 2.104 eV'); bare numbers are rejected for them because the input
space mixes eV, cm, g and K and a silent default unit is the main hazard.
Count-like keys (mode_index, N, n0) take bare numbers.  Unknown keys are
errors; each command reports its missing required keys by name.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import CGS_UNITS

# CPython's own sha256 module loads in a fraction of the time hashlib takes
# to load OpenSSL's; it is named _sha2 from 3.12 and _sha256 before
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

__all__ = ["ConfigError", "RunConfig", "SweepSpec", "KEY_SPECS", "sweep_values"]


class ConfigError(ValueError):
    """Malformed, unknown, missing, or inconsistent configuration input."""


class KeySpec(NamedTuple):
    kind: str                      # "quantity" | "int" | "float" | "choice"
    sweep_unit: str | None = None  # a quantity's canonical unit: sweep from/to values are in
                                   # it, and its dimension in core.CGS_UNITS is the key's
    choices: tuple[str, ...] = ()


KEY_SPECS: dict[str, KeySpec] = {
    # medium
    "E0": KeySpec("quantity", "eV"),
    "d": KeySpec("quantity", "D"),
    "n3": KeySpec("quantity", "cm^-3"),
    "tau_coh": KeySpec("quantity", "s"),
    # cavity / coupling
    "L_cav": KeySpec("quantity", "cm"),
    "mode_index": KeySpec("int"),
    "d_beam": KeySpec("quantity", "cm"),
    "g": KeySpec("quantity", "eV"),
    "Delta": KeySpec("quantity", "eV"),
    # gas
    "T": KeySpec("quantity", "K"),
    "n2": KeySpec("quantity", "cm^-2"),
    "n_s": KeySpec("quantity", "cm^-2"),
    "m_eff": KeySpec("quantity", "g"),
    # trap
    "omega_eff": KeySpec("quantity", "s^-1"),
    "omega_at": KeySpec("quantity", "s^-1"),
    "U0": KeySpec("quantity", "eV"),
    "r0": KeySpec("quantity", "cm"),
    "E_char": KeySpec("quantity", "eV"),
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
    if unit not in CGS_UNITS:
        raise ConfigError(f"key '{key}': unknown unit {unit!r}")
    factor, dimension = CGS_UNITS[unit]
    expected = CGS_UNITS[spec.sweep_unit][1]
    if dimension != expected:
        raise ConfigError(
            f"key '{key}': unit {unit!r} has dimension [{dimension}], expected [{expected}]"
        )
    magnitude = value * factor
    if not math.isfinite(magnitude):
        raise ConfigError(f"key '{key}': {raw!r} overflows to {magnitude} in cgs units")
    return magnitude


def check_keys(keys) -> None:
    """The check across keys that every config passes: L_cav and Delta are
    two ways to fix the same detuning."""
    if "L_cav" in keys and "Delta" in keys:
        raise ConfigError("give either 'L_cav' or 'Delta', not both")


class RunConfig:
    """Parsed configuration, keyed exactly as in the file; a dimensioned
    value is held as its cgs magnitude, the unit's dimension checked."""

    def __init__(self, values: dict[str, object] | None = None, source_text: str = ""):
        self.values = {} if values is None else values
        self.source_text = source_text

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
        return sha256(self.source_text.encode("utf-8")).hexdigest()[:12]


class SweepSpec:
    """One swept config leaf: from/to in the leaf's canonical unit."""

    def __init__(self, param: str, start: float, stop: float, steps: int,
                 scale: str = "linear"):
        self.param = param
        self.start = start
        self.stop = stop
        self.steps = steps
        self.scale = scale
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
    n, last, start = spec.steps, spec.steps - 1, spec.start
    if spec.scale == "linear":
        span = spec.stop - start
        return [start + span * i / last for i in range(n)]
    la, lb = math.log(abs(start)), math.log(abs(spec.stop))
    sign, span, exp = 1.0 if start > 0 else -1.0, lb - la, math.exp
    return [sign * exp(la + span * i / last) for i in range(n)]


def config_cgs(spec: SweepSpec, values: list[float]) -> list:
    """Swept numeric values as the cgs magnitudes the leaf's config value holds.

    Quantities scale by their sweep unit's factor, as parsing scales a
    value by its unit's; int leaves come back as int.  A leaf whose sweep
    unit is the cgs unit (a factor of 1.0) gets values itself back, so the
    sweep column and the leaf's column are one list.  The column is checked
    in one pass; on a failure the values are checked one at a time, so that
    the first failing one names itself.
    """
    key_spec = KEY_SPECS[spec.param]
    factor = CGS_UNITS[key_spec.sweep_unit][0] if key_spec.kind == "quantity" else 1.0
    column = values if factor == 1.0 else list(map(factor.__mul__, values))
    if all(map(math.isfinite, column)):
        if key_spec.kind != "int":
            return column
        ints = list(map(int, column))
        if ints == column:
            return ints
    for value, magnitude in zip(values, column):
        if not math.isfinite(magnitude):
            raise ConfigError(
                f"sweep over '{spec.param}' produced {value}, which is not finite in cgs units"
            )
        if key_spec.kind == "int" and value != int(value):
            raise ConfigError(f"sweep over '{spec.param}' produced non-integer {value}")
