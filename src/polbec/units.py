"""Unit-safe physical quantities in CGS-Gaussian base units.

Every number that crosses a module boundary in this package is a
:class:`Quantity`: a float magnitude plus a :class:`Dimension` over the
mechanical base set {length, mass, time, temperature}.  Charge is handled
in the Gaussian convention and folded into the mechanical base set
(1 esu = g^1/2 cm^3/2 s^-1), which is why dimension exponents are exact
`Fraction`s rather than ints.

The internal base system is CGS-Gaussian (cm, g, s, K); SI is a
presentation layer reached through :func:`convert`.  Dimension checking
happens at runtime on every arithmetic operation, so a mistranscribed
formula fails loudly in the test suite instead of producing a silently
wrong number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

__all__ = [
    "Dimension",
    "DimensionError",
    "Quantity",
    "qty",
    "constant",
    "convert",
    "DIMENSIONLESS",
    "LENGTH",
    "MASS",
    "TIME",
    "TEMPERATURE",
    "ENERGY",
    "FREQUENCY",
    "VELOCITY",
    "WAVENUMBER",
    "VOLUME_DENSITY",
    "AREA_DENSITY",
    "DIPOLE_MOMENT",
    "CURVATURE",
    "UNITS",
    "HBAR_CGS",
    "H_CGS",
    "C_CGS",
    "KB_CGS",
    "EV_ERG",
    "MEV_ERG",
    "DEBYE_ESU_CM",
]


class DimensionError(ValueError):
    """Raised when an operation mixes incompatible physical dimensions."""


ExponentLike = Union[int, Fraction]


def _frac(x: ExponentLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"dimension exponents must be int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class Dimension:
    """Exponents over the CGS-Gaussian base set (length, mass, time, temperature)."""

    length: Fraction = Fraction(0)
    mass: Fraction = Fraction(0)
    time: Fraction = Fraction(0)
    temperature: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        for name in ("length", "mass", "time", "temperature"):
            object.__setattr__(self, name, _frac(getattr(self, name)))

    def __mul__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length + other.length,
            self.mass + other.mass,
            self.time + other.time,
            self.temperature + other.temperature,
        )

    def __truediv__(self, other: "Dimension") -> "Dimension":
        return Dimension(
            self.length - other.length,
            self.mass - other.mass,
            self.time - other.time,
            self.temperature - other.temperature,
        )

    def __pow__(self, exponent: ExponentLike) -> "Dimension":
        e = _frac(exponent)
        return Dimension(
            self.length * e, self.mass * e, self.time * e, self.temperature * e
        )

    @property
    def is_dimensionless(self) -> bool:
        return not (self.length or self.mass or self.time or self.temperature)

    def unit_string(self, system: str = "cgs") -> str:
        """Human-readable base-unit string, e.g. 'g^1/2 cm^5/2 s^-1'."""
        symbols = {
            "cgs": ("cm", "g", "s", "K"),
            "si": ("m", "kg", "s", "K"),
        }[system]
        parts = []
        for sym, e in zip(symbols, (self.length, self.mass, self.time, self.temperature)):
            if e == 0:
                continue
            parts.append(sym if e == 1 else f"{sym}^{e}")
        return " ".join(parts) if parts else "1"


DIMENSIONLESS = Dimension()
LENGTH = Dimension(length=Fraction(1))
MASS = Dimension(mass=Fraction(1))
TIME = Dimension(time=Fraction(1))
TEMPERATURE = Dimension(temperature=Fraction(1))
ENERGY = MASS * LENGTH**2 / TIME**2
FREQUENCY = DIMENSIONLESS / TIME
VELOCITY = LENGTH / TIME
WAVENUMBER = DIMENSIONLESS / LENGTH
VOLUME_DENSITY = DIMENSIONLESS / LENGTH**3
AREA_DENSITY = DIMENSIONLESS / LENGTH**2
CURVATURE = DIMENSIONLESS / LENGTH**2
# Gaussian charge: esu = g^1/2 cm^3/2 s^-1; dipole moment = esu*cm
DIPOLE_MOMENT = MASS ** Fraction(1, 2) * LENGTH ** Fraction(5, 2) / TIME

_SYSTEMS = ("cgs", "si")

# 1 cgs base unit expressed in the si base unit: cm->m is 1e-2, g->kg is 1e-3.
_CGS_TO_SI_DECADES = {"length": -2, "mass": -3, "time": 0, "temperature": 0}


def _cgs_to_si_factor(dim: Dimension) -> float:
    """Power-product factor taking a cgs-base magnitude to si-base.

    Computed as a single power of ten so that convert() round-trips by
    multiplying and then dividing by the exact same float.
    """
    decades = (
        dim.length * _CGS_TO_SI_DECADES["length"]
        + dim.mass * _CGS_TO_SI_DECADES["mass"]
    )
    if decades == 0:
        return 1.0
    if decades.denominator == 1:
        return 10.0 ** int(decades)
    return 10.0 ** float(decades)


def _pow_mag(m: float, e: Fraction) -> float:
    if e == Fraction(1, 2):
        return math.sqrt(m)
    if e.denominator == 1:
        return m ** int(e)
    return m ** float(e)


class Quantity:
    """A float magnitude tagged with a Dimension and a unit system.

    Arithmetic enforces dimensional consistency: addition, subtraction and
    comparison require identical dimensions (a DimensionError otherwise,
    never a silent coercion); multiplication and division combine exponents
    exactly.  Mixed-system operands are reconciled to the left operand's
    system before combining.
    """

    __slots__ = ("magnitude", "dimension", "system")

    def __init__(self, magnitude: float, dimension: Dimension, system: str = "cgs"):
        if system not in _SYSTEMS:
            raise ValueError(f"unknown unit system {system!r}; expected one of {_SYSTEMS}")
        object.__setattr__(self, "magnitude", float(magnitude))
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "system", system)

    def __setattr__(self, name, value):  # immutable value type
        raise AttributeError("Quantity is immutable")

    # -- system handling ------------------------------------------------

    def to(self, system: str) -> "Quantity":
        return convert(self, system)

    @property
    def cgs(self) -> float:
        """Magnitude in cgs base units regardless of stored system."""
        if self.system == "cgs":
            return self.magnitude
        return self.magnitude / _cgs_to_si_factor(self.dimension)

    def in_unit(self, unit: str) -> float:
        """Magnitude expressed in a named unit from the registry."""
        factor, dim = UNITS[unit]
        if dim != self.dimension:
            raise DimensionError(
                f"cannot express dimension [{self.dimension.unit_string()}] in '{unit}'"
            )
        return self.cgs / factor

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other: "Quantity") -> "Quantity":
        return other if other.system == self.system else convert(other, self.system)

    def _require_same_dim(self, other: "Quantity", op: str) -> None:
        if self.dimension != other.dimension:
            raise DimensionError(
                f"cannot {op} [{self.dimension.unit_string()}] "
                f"and [{other.dimension.unit_string()}]"
            )

    def __add__(self, other):
        if not isinstance(other, Quantity):
            return NotImplemented
        self._require_same_dim(other, "add")
        return Quantity(self.magnitude + self._coerce(other).magnitude, self.dimension, self.system)

    def __sub__(self, other):
        if not isinstance(other, Quantity):
            return NotImplemented
        self._require_same_dim(other, "subtract")
        return Quantity(self.magnitude - self._coerce(other).magnitude, self.dimension, self.system)

    def __neg__(self):
        return Quantity(-self.magnitude, self.dimension, self.system)

    def __abs__(self):
        return Quantity(abs(self.magnitude), self.dimension, self.system)

    def __mul__(self, other):
        if isinstance(other, Quantity):
            o = self._coerce(other)
            return Quantity(self.magnitude * o.magnitude, self.dimension * o.dimension, self.system)
        if isinstance(other, (int, float)):
            return Quantity(self.magnitude * other, self.dimension, self.system)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Quantity):
            o = self._coerce(other)
            return Quantity(self.magnitude / o.magnitude, self.dimension / o.dimension, self.system)
        if isinstance(other, (int, float)):
            return Quantity(self.magnitude / other, self.dimension, self.system)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Quantity(other / self.magnitude, DIMENSIONLESS / self.dimension, self.system)
        return NotImplemented

    def __pow__(self, exponent: ExponentLike):
        e = _frac(exponent)
        return Quantity(_pow_mag(self.magnitude, e), self.dimension**e, self.system)

    def sqrt(self) -> "Quantity":
        return self ** Fraction(1, 2)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Quantity):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and self.magnitude == self._coerce(other).magnitude
        )

    __hash__ = None  # custom equality; quantities are not dict keys

    def _cmp_mag(self, other, op: str) -> float:
        if not isinstance(other, Quantity):
            raise DimensionError(f"cannot {op} Quantity and {type(other).__name__}")
        self._require_same_dim(other, op)
        return self._coerce(other).magnitude

    def __lt__(self, other):
        return self.magnitude < self._cmp_mag(other, "compare")

    def __le__(self, other):
        return self.magnitude <= self._cmp_mag(other, "compare")

    def __gt__(self, other):
        return self.magnitude > self._cmp_mag(other, "compare")

    def __ge__(self, other):
        return self.magnitude >= self._cmp_mag(other, "compare")

    def __float__(self):
        if not self.dimension.is_dimensionless:
            raise DimensionError(
                f"only dimensionless quantities cast to float, "
                f"got [{self.dimension.unit_string()}]"
            )
        return self.magnitude

    def __repr__(self):
        return f"Quantity({self.magnitude:.12g} {self.dimension.unit_string(self.system)} [{self.system}])"


def convert(q: Quantity, target: str) -> Quantity:
    """Re-express a quantity in the target system ('cgs' or 'si').

    The magnitude is rescaled by an exact power-product of base conversion
    factors; the dimension is unchanged.  cgs->si multiplies and si->cgs
    divides by the same factor, so a round trip is lossless to within 1 ulp.
    """
    if target not in _SYSTEMS:
        raise ValueError(f"unknown unit system {target!r}; expected one of {_SYSTEMS}")
    if target == q.system:
        return q
    factor = _cgs_to_si_factor(q.dimension)
    if target == "si":
        return Quantity(q.magnitude * factor, q.dimension, "si")
    return Quantity(q.magnitude / factor, q.dimension, "cgs")


# ---------------------------------------------------------------------------
# Constants (CODATA 2018, expressed in cgs base units)
# ---------------------------------------------------------------------------

H_CGS = 6.62607015e-27      # erg s (exact by definition)
# hbar derived from h so identities like n2 * lambda_T(T_d)^2 = 1 hold to
# machine precision; equals the quoted 1.054571817e-27 at its 10 digits
HBAR_CGS = H_CGS / (2.0 * math.pi)
C_CGS = 2.99792458e10       # cm/s (exact)
KB_CGS = 1.380649e-16       # erg/K (exact)
EV_ERG = 1.602176634e-12    # erg (exact)
MEV_ERG = EV_ERG * 1e-3
DEBYE_ESU_CM = 1e-18        # esu cm

_CONSTANTS = {
    "hbar": (HBAR_CGS, ENERGY * TIME),
    "h": (H_CGS, ENERGY * TIME),
    "c": (C_CGS, VELOCITY),
    "k_boltzmann": (KB_CGS, ENERGY / TEMPERATURE),
}


def constant(name: str) -> Quantity:
    """A fundamental constant as a cgs-base Quantity.

    Known names: hbar, h, c, k_boltzmann.
    """
    try:
        value, dim = _CONSTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown constant {name!r}; expected one of {sorted(_CONSTANTS)}"
        ) from None
    return Quantity(value, dim)


# ---------------------------------------------------------------------------
# Named units (factor to cgs base, dimension)
# ---------------------------------------------------------------------------

UNITS: dict[str, tuple[float, Dimension]] = {
    # energy
    "erg": (1.0, ENERGY),
    "eV": (EV_ERG, ENERGY),
    "meV": (MEV_ERG, ENERGY),
    "J": (1e7, ENERGY),
    # length
    "cm": (1.0, LENGTH),
    "m": (1e2, LENGTH),
    "um": (1e-4, LENGTH),
    "nm": (1e-7, LENGTH),
    # mass
    "g": (1.0, MASS),
    "kg": (1e3, MASS),
    # time
    "s": (1.0, TIME),
    "ns": (1e-9, TIME),
    "us": (1e-6, TIME),
    "ps": (1e-12, TIME),
    "fs": (1e-15, TIME),
    # temperature
    "K": (1.0, TEMPERATURE),
    # rates and wavenumbers
    "s^-1": (1.0, FREQUENCY),
    "rad/s": (1.0, FREQUENCY),
    "cm^-1": (1.0, WAVENUMBER),
    "m^-1": (1e-2, WAVENUMBER),
    # densities
    "cm^-3": (1.0, VOLUME_DENSITY),
    "m^-3": (1e-6, VOLUME_DENSITY),
    "cm^-2": (1.0, AREA_DENSITY),
    "m^-2": (1e-4, AREA_DENSITY),
    # velocity
    "cm/s": (1.0, VELOCITY),
    "m/s": (1e2, VELOCITY),
    # Gaussian dipole moment
    "esu*cm": (1.0, DIPOLE_MOMENT),
    "D": (DEBYE_ESU_CM, DIPOLE_MOMENT),
}


def qty(value: float, unit: str) -> Quantity:
    """Construct a cgs-base Quantity from a magnitude and a named unit."""
    try:
        factor, dim = UNITS[unit]
    except KeyError:
        raise ValueError(f"unknown unit {unit!r}") from None
    return Quantity(float(value) * factor, dim)


def magnitude_in_cgs(q: Quantity, dim: Dimension, name: str) -> float:
    """Dimension-checked extraction of a cgs magnitude for numeric cores."""
    if not isinstance(q, Quantity):
        raise DimensionError(f"{name} must be a Quantity, got {type(q).__name__}")
    if q.dimension != dim:
        raise DimensionError(
            f"{name} must have dimension [{dim.unit_string()}], "
            f"got [{q.dimension.unit_string()}]"
        )
    return q.cgs


def range_error(formula: str, **named: str) -> OverflowError:
    """The error for a formula whose result leaves the float range; named
    maps each argument behind it to its printed value."""
    return OverflowError(f"{formula} leaves the float range for "
                         + ", ".join(f"'{name}' = {value}" for name, value in named.items()))
