"""Transverse polariton-gas thermodynamics.

Effective masses of both branches, the quadratic transverse dispersion and
its group velocity, and the 2D Bose-gas threshold ladder: thermal
wavelength, degeneracy temperature, chemical potential, the
Kosterlitz-Thouless temperature, and the trapped-gas condensation
temperature with its condensate fraction.

Conventions fixed here (and echoed as notes in every report):

* lambda_T = h / sqrt(2 pi m kB T).  This is the only prefactor consistent
  with both the 1.84e-4 cm reference value at (5e-33 g, 300 K) and the
  identity n2 * lambda_T(T_d)^2 = 1 required by the chemical-potential
  closed form.
* mu = kB T ln(1 - exp(-T_d/T)) with T_d/T = n2 lambda_T^2, evaluated with
  cancellation-safe primitives at both temperature extremes.
* The trapped-gas ladder uses the printed constant 1.645 (zeta(2) to four
  figures) consistently in both the particle-number and the density form,
  so the two forms invert each other exactly.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

from .coupling import CouplingParams
from .units import (
    AREA_DENSITY,
    C_CGS,
    ENERGY,
    FREQUENCY,
    H_CGS,
    HBAR_CGS,
    KB_CGS,
    LENGTH,
    MASS,
    Quantity,
    TEMPERATURE,
    VELOCITY,
    VOLUME_DENSITY,
    WAVENUMBER,
    magnitude_in_cgs,
    range_error,
)

__all__ = [
    "PolaritonMasses",
    "GasState",
    "TrapSpec",
    "CondensationReport",
    "ThresholdLadder",
    "TRAP_BEC_ZETA",
    "effective_masses",
    "transverse_energy",
    "group_velocity",
    "thermal_wavelength",
    "degeneracy_temperature",
    "chemical_potential",
    "kt_temperature",
    "trapped_bec_temperature",
    "trapped_bec_temperature_from_N",
    "trapped_number",
    "condensate_fraction",
    "condensation_report",
    "condensation_ladder",
    "effective_masses_cgs",
    "kt_temperature_K",
    "lambda_T_cm",
    "degeneracy_temperature_K",
    "trapped_bec_temperature_K",
    "transverse_energy_erg",
    "mu_over_kbt",
]

# zeta(2) = pi^2/6 to the four printed figures; used identically in both
# forms of the trapped-gas critical temperature so they invert exactly.
TRAP_BEC_ZETA = 1.645

# denominators 1 -/+ Delta/sqrt(Delta^2+4g^2) below this are reported as
# saturated rather than letting the branch mass blow up to inf
_MASS_SATURATION_EPS = 1e-12

_LOG2 = math.log(2.0)

# |mu| below ~1e-13 kB T (T_d/T > 30): flagged as effectively zero
_MU_ZERO_X = 30.0


def _opt_cgs(q: Quantity | None) -> float | None:
    """The cgs magnitude of an optional Quantity that is checked already."""
    return None if q is None else q.cgs


@dataclass(frozen=True)
class PolaritonMasses:
    """Curvature masses of the transverse dispersion for both branches."""

    m_ph: Quantity       # effective photon mass hbar k_perp / c
    m_upper: Quantity
    m_lower: Quantity
    detuning: Quantity
    upper_saturated: bool = False
    lower_saturated: bool = False


@dataclass(frozen=True)
class GasState:
    """2D gas snapshot: temperature, effective mass, and at least one of
    the areal density n2 or the source 3D density n3."""

    temperature: Quantity
    m_eff: Quantity
    n2: Quantity | None = None
    n3: Quantity | None = None

    def __post_init__(self) -> None:
        t_k = magnitude_in_cgs(self.temperature, TEMPERATURE, "temperature")
        if t_k == math.inf:
            raise ValueError("temperature must be finite")
        _check_gas(
            t_k,
            magnitude_in_cgs(self.m_eff, MASS, "m_eff"),
            None if self.n2 is None else magnitude_in_cgs(self.n2, AREA_DENSITY, "n2"),
            None if self.n3 is None else magnitude_in_cgs(self.n3, VOLUME_DENSITY, "n3"),
        )


@dataclass(frozen=True)
class TrapSpec:
    """Harmonic trap U(r) = m_eff Omega_eff^2 r^2 / 2.

    U0 and r0 are an optional redundant parametrization U(r0) = U0; their
    consistency with omega_eff is checked where the mass is known.
    """

    omega_eff: Quantity
    u0: Quantity | None = None
    r0: Quantity | None = None

    def __post_init__(self) -> None:
        _check_trap(magnitude_in_cgs(self.omega_eff, FREQUENCY, "omega_eff"))
        if self.u0 is not None:
            magnitude_in_cgs(self.u0, ENERGY, "u0")
        if self.r0 is not None:
            magnitude_in_cgs(self.r0, LENGTH, "r0")

    def check_consistency(self, m_eff: Quantity, rel_tol: float = 1e-6) -> None:
        """Verify U(r0) = U0 against m_eff Omega^2 r0^2 / 2 when both given."""
        _check_trap_consistency(
            m_eff.cgs, self.omega_eff.cgs, _opt_cgs(self.u0), _opt_cgs(self.r0), rel_tol)


@dataclass(frozen=True)
class CondensationReport:
    """The full condensation-threshold ladder for one parameter set."""

    temperature: Quantity
    m_eff: Quantity
    n2: Quantity
    lambda_t: Quantity
    r_int: Quantity
    t_degeneracy: Quantity
    t_kt: Quantity
    mu: Quantity
    n3: Quantity | None = None
    omega_eff: Quantity | None = None
    t_c: Quantity | None = None
    n_trapped: float | None = None
    condensate_frac: float | None = None
    degenerate: bool = False
    kt_superfluid: bool = False
    overlap: bool = False
    n2_estimated: bool = False
    mu_effectively_zero: bool = False
    notes: tuple[str, ...] = field(default=())


class ThresholdLadder(NamedTuple):
    """The threshold ladder as cgs floats: K, g, cm^-2, cm^-3, cm, erg, s^-1.

    Field for field the magnitudes of CondensationReport, None where the
    report has None.  A field that depends on a list argument of
    condensation_ladder (a column) is the list of its values.
    """

    temperature: float
    m_eff: float
    n2: float
    n3: float | None
    lambda_t: float
    r_int: float
    t_degeneracy: float
    t_kt: float
    mu: float
    omega_eff: float | None
    t_c: float | None
    n_trapped: float | None
    condensate_frac: float | None
    degenerate: bool
    kt_superfluid: bool
    overlap: bool
    n2_estimated: bool
    mu_effectively_zero: bool
    notes: tuple[str, ...]


# ---------------------------------------------------------------------------
# numeric cores (cgs floats)
#
# Each Quantity operation below checks dimensions and then calls one of
# these; a caller that has already fixed every dimension (the CLI, once per
# config) calls them directly.  Value checks live here, and so does the check
# that a result stays in the float range, each naming its arguments; both
# paths raise the same errors.  condensation_ladder also takes one argument
# as a column (a list) and computes each intermediate once, as a column only
# where it depends on that argument.  Everything is scalar math/Python float arithmetic, value by
# value in a column: numpy's transcendental functions differ from math's in
# the last ulp.
# ---------------------------------------------------------------------------

def _check_gas(t_k: float, m_g: float, n2: float | None, n3: float | None) -> None:
    """Value checks of GasState.

    An infinite T passes here: condensation_ladder rejects it with 'T'
    named (lambda_T or mu leaves the float range), and GasState before it.
    """
    if not t_k > 0:
        raise ValueError("temperature must be positive")
    if not 0 < m_g < math.inf:
        raise ValueError("m_eff must be finite" if m_g > 0 else "m_eff must be positive")
    if n2 is None and n3 is None:
        raise ValueError("GasState needs n2 or n3")
    if n2 is not None and not n2 > 0:
        raise ValueError("n2 must be positive")
    if n3 is not None and not 0 < n3 < math.inf:
        raise ValueError("n3 must be finite" if n3 > 0 else "n3 must be positive")


def _check_trap(omega: float) -> None:
    """Value check of TrapSpec."""
    if omega < 0:
        raise ValueError("omega_eff must be non-negative")


def _check_trap_consistency(
    m_g: float, omega: float, u0: float | None, r0: float | None, rel_tol: float = 1e-6
) -> None:
    """U(r0) = U0 against m_eff Omega^2 r0^2 / 2 (erg) when both are given."""
    if u0 is None or r0 is None:
        return
    try:
        expected = 0.5 * m_g * omega**2 * r0**2
    except OverflowError:
        raise OverflowError(
            f"trap consistency: m_eff*Omega_eff^2*r0^2/2 overflows for "
            f"'omega_eff' = {omega:g} s^-1, 'r0' = {r0:g} cm"
        ) from None
    if abs(u0 - expected) > rel_tol * max(abs(u0), abs(expected)):
        raise ValueError(
            f"inconsistent trap: U0 = {u0:.6g} erg but "
            f"m_eff*Omega_eff^2*r0^2/2 = {expected:.6g} erg"
        )


def lambda_T_cm(m_g: float, t_k: float) -> float:
    """Thermal de Broglie wavelength h / sqrt(2 pi m kB T) in cm.

    An infinite T gives the limit 0; a finite m and T whose 2 pi m kB T
    leaves the float range raise ZeroDivisionError, with both named.  A
    ladder column calls this once per value, so the checks cost one test
    unless one fails.
    """
    product = 2.0 * math.pi * m_g * KB_CGS * t_k
    if not (0.0 < product < math.inf and m_g > 0):
        if not (m_g > 0 and t_k > 0):
            raise ValueError("mass and temperature must be positive")
        if t_k != math.inf:
            raise ZeroDivisionError(f"lambda_T: 2 pi m kB T leaves the float range for "
                                    f"'m' = {m_g:g} g, 'temperature' = {t_k:g} K")
    return H_CGS / math.sqrt(product)


def degeneracy_temperature_K(n2_cm2: float, m_g: float) -> float:
    """T_d = 2 pi hbar^2 n2 / (m kB); satisfies n2 lambda_T(T_d)^2 = 1."""
    if not (n2_cm2 > 0 and m_g > 0):
        raise ValueError("n2 and mass must be positive")
    m_kb = m_g * KB_CGS
    if m_kb == 0.0:
        raise ZeroDivisionError(f"T_d: m kB underflows to 0 for 'm' = {m_g:g} g")
    t_d = 2.0 * math.pi * HBAR_CGS**2 * n2_cm2 / m_kb
    if t_d == math.inf:
        raise range_error("T_d = 2 pi hbar^2 n2 / (m kB)", n2=f"{n2_cm2:g} cm^-2", m=f"{m_g:g} g")
    return t_d


def trapped_bec_temperature_K(n2_cm2: float, m_g: float) -> float:
    """Trapped-gas T_c in the density form, T_d / 1.645."""
    return degeneracy_temperature_K(n2_cm2, m_g) / TRAP_BEC_ZETA


def mu_over_kbt(x: float) -> float:
    """ln(1 - exp(-x)) for x = T_d/T > 0 without catastrophic cancellation."""
    if x > _LOG2:
        return math.log1p(-math.exp(-x))
    return math.log(-math.expm1(-x))


def kt_temperature_K(n_s_cm2: float, m_g: float) -> float:
    """T_KT = pi hbar^2 n_s / (2 m kB)."""
    if not (n_s_cm2 > 0 and m_g > 0):
        raise ValueError("n_s and mass must be positive")
    two_m_kb = 2.0 * m_g * KB_CGS
    if two_m_kb == 0.0:
        raise ZeroDivisionError(f"T_KT: 2 m kB underflows to 0 for 'm' = {m_g:g} g")
    t_kt = math.pi * HBAR_CGS**2 * n_s_cm2 / two_m_kb
    if t_kt == math.inf:
        raise range_error("T_KT = pi hbar^2 n_s / (2 m kB)", n_s=f"{n_s_cm2:g} cm^-2",
                          m=f"{m_g:g} g")
    return t_kt


def _trapped_bec_temperature_from_N_K(n_particles: float, omega: float) -> float:
    """T_c = (hbar Omega_eff / kB) sqrt(N / 1.645); zero without a trap."""
    if not n_particles > 0:
        raise ValueError("particle number must be positive")
    _check_trap(omega)
    t_c = HBAR_CGS * omega / KB_CGS * math.sqrt(n_particles / TRAP_BEC_ZETA)
    if not t_c < math.inf:
        raise range_error("T_c = (hbar Omega_eff / kB) sqrt(N / 1.645)",
                          n_particles=f"{n_particles:g}", omega_eff=f"{omega:g} s^-1")
    return t_c


def _trapped_number_cgs(n2_cm2: float, t_k: float, omega: float, m_g: float) -> float:
    """N2 = 2 pi n2 kB T / (m Omega_eff^2), which must be finite.

    A ladder column calls this once per value, so the checks run on the
    result and look at the arguments only once one fails.
    """
    try:
        n_trapped = 2.0 * math.pi * n2_cm2 * KB_CGS * t_k / (m_g * omega * omega)
    except ZeroDivisionError:
        n_trapped = None
    if n_trapped is not None and 0.0 <= n_trapped < math.inf and n2_cm2 > 0 < m_g and omega > 0:
        return n_trapped
    if omega == 0.0:
        raise ZeroDivisionError("trapped_number diverges without a trap (omega_eff = 0)")
    if not (n2_cm2 > 0 and t_k >= 0 and omega > 0 and m_g > 0):
        raise ValueError("n2, omega_eff and mass must be positive, temperature non-negative")
    if n_trapped is None:
        raise ZeroDivisionError(f"N2: m Omega_eff^2 underflows to 0 for 'm' = {m_g:g} g, "
                                f"'omega_eff' = {omega:g} s^-1")
    raise range_error("N2 = 2 pi n2 kB T / (m Omega_eff^2)", n2=f"{n2_cm2:g} cm^-2",
                      temperature=f"{t_k:g} K", omega_eff=f"{omega:g} s^-1", m=f"{m_g:g} g")


def _condensate_fraction_cgs(t_k: float, t_c_k: float) -> float:
    """N0/N = max(0, 1 - (T/T_c)^2)."""
    if t_k < 0:
        raise ValueError("temperature must be non-negative")
    if not t_c_k > 0:
        raise ValueError("t_c must be positive")
    try:
        ratio_sq = (t_k / t_c_k) ** 2
    except OverflowError:
        raise OverflowError(
            f"condensate fraction: (T/T_c)^2 overflows for 'T' = {t_k:g} K, T_c = {t_c_k:g} K"
        ) from None
    return max(0.0, 1.0 - ratio_sq)


def effective_masses_cgs(delta: float, g: float, k_perp: float) -> tuple[float, float, float, bool, bool]:
    """(m_ph, m_upper, m_lower, upper_saturated, lower_saturated) in g."""
    m_ph = HBAR_CGS * k_perp / C_CGS
    if m_ph == 0:
        raise ArithmeticError(f"m_ph: hbar k_perp / c underflows to 0 for 'k_perp' = "
                              f"{k_perp:g} cm^-1")
    ratio = delta / math.hypot(delta, 2.0 * g)
    den_upper = 1.0 - ratio
    den_lower = 1.0 + ratio
    upper_saturated = den_upper < _MASS_SATURATION_EPS
    lower_saturated = den_lower < _MASS_SATURATION_EPS
    if upper_saturated:
        den_upper = _MASS_SATURATION_EPS
    if lower_saturated:
        den_lower = _MASS_SATURATION_EPS
    return m_ph, 2.0 * m_ph / den_upper, 2.0 * m_ph / den_lower, upper_saturated, lower_saturated


def transverse_energy_erg(k_par: float, m_g: float) -> float:
    """Quadratic transverse dispersion hbar^2 k_par^2 / (2 m) in erg."""
    if not m_g > 0:
        raise ValueError("mass must be positive")
    energy = HBAR_CGS * HBAR_CGS * k_par * k_par / (2.0 * m_g)
    if not math.isfinite(energy):
        raise range_error("hbar^2 k_par^2 / (2 m)", k_par=f"{k_par:g} cm^-1", m=f"{m_g:g} g")
    return energy


def _group_velocity_cm_s(k_par: float, m_g: float) -> float:
    """v = hbar k_par / m in cm/s."""
    if not m_g > 0:
        raise ValueError("mass must be positive")
    velocity = HBAR_CGS * k_par / m_g
    if not math.isfinite(velocity):
        raise range_error("hbar k_par / m", k_par=f"{k_par:g} cm^-1", m=f"{m_g:g} g")
    return velocity


class _ColumnError(ArithmeticError):
    """A value of a column failed; condensation_ladder replays the column's
    values one at a time, so that the first failing one raises its own error."""


def _each(f, *args):
    """f(*args), or with a list (a column) among args the list of f over its
    values, the other args repeated; a failing value raises _ColumnError."""
    if list not in map(type, args):
        return f(*args)
    try:
        return list(map(f, *[a if type(a) is list else repeat(a) for a in args]))
    except (ValueError, ArithmeticError):
        raise _ColumnError from None


# a cgs magnitude, or a column of them
_Cgs = float | list[float]


def condensation_ladder(t_k: _Cgs, m_g: _Cgs, n2: _Cgs | None = None, n3: _Cgs | None = None,
                        omega_eff: _Cgs | None = None, u0: _Cgs | None = None,
                        r0: _Cgs | None = None, n_s: _Cgs | None = None) -> ThresholdLadder:
    """The threshold ladder of condensation_report from cgs magnitudes.

    omega_eff None means no trap (u0 and r0 are then ignored); the checks of
    GasState and TrapSpec run first, in that order.  Any argument may be a
    list, a column of values, with the others scalars: each field that
    depends on it is then the column of the scalar call's values, and the
    call fails as the scalar call of its first failing value does.
    """
    args = (t_k, m_g, n2, n3, omega_eff, u0, r0, n_s)
    try:
        return _ladder(*args)
    except _ColumnError:
        for row in zip(*[a if type(a) is list else repeat(a) for a in args]):
            _ladder(*row)
        raise


def _ladder(t_k, m_g, n2, n3, omega_eff, u0, r0, n_s) -> ThresholdLadder:
    _each(_check_gas, t_k, m_g, n2, n3)
    if omega_eff is not None:
        _each(_check_trap, omega_eff)
    notes = ("lambda_T = h / sqrt(2 pi m kB T)", "mu = kB T ln(1 - exp(-T_d/T))")
    n2_estimated = n2 is None
    if n2_estimated:
        notes += ("n2 estimated as lambda_T(T) * n3",)

    def density() -> str:  # the key behind n2, in the messages below
        return f"'n3' = {n3:g} cm^-3" if n2_estimated else f"'n2' = {n2:g} cm^-2"

    # A finite positive input can still take an intermediate out of the float
    # range.  The cores raise then; the try blocks cost nothing until they
    # catch, and re-raise naming the config keys behind the value.
    lam = 0.0  # kept if lambda_T_cm raises; also its value at T = inf
    try:
        lam = _each(lambda_T_cm, m_g, t_k)
        if n2_estimated:
            n2 = _each(operator.mul, lam, n3)
        # n2 > 0 from here on, unless the estimate underflows to 0
        r_int = _each(lambda n: 1.0 / math.sqrt(n), n2)
        t_d = _each(degeneracy_temperature_K, n2, m_g)
    except ZeroDivisionError:
        if not lam:
            message = (f"lambda_T: 2 pi m kB T leaves the float range for "
                       f"'T' = {t_k:g} K, 'm_eff' = {m_g:g} g")
        elif not n2:
            message = f"n2 = lambda_T * n3 underflows to 0 for 'n3' = {n3:g} cm^-3"
        else:
            message = f"T_d: m kB underflows to 0 for 'm_eff' = {m_g:g} g"
        raise ZeroDivisionError(message) from None
    except OverflowError:
        raise OverflowError(
            f"T_d = 2 pi hbar^2 n2 / (m kB) overflows for {density()}, 'm_eff' = {m_g:g} g"
        ) from None
    try:  # T_KT <= T_d at n_s = n2, so only an n_s of its own overflows
        t_kt = _each(kt_temperature_K, n2 if n_s is None else n_s, m_g)
    except OverflowError:
        raise OverflowError(f"T_KT = pi hbar^2 n_s / (2 m kB) overflows for "
                            f"'n_s' = {n_s:g} cm^-2, 'm_eff' = {m_g:g} g") from None
    x = _each(operator.truediv, t_d, t_k)
    try:
        mu = _each(lambda t, r: KB_CGS * t * mu_over_kbt(r), t_k, x)
    except ValueError:  # log(0): T_d/T = n2 lambda_T^2 underflows to 0
        raise ValueError(
            f"mu: T_d/T underflows to 0 for 'T' = {t_k:g} K, {density()}, 'm_eff' = {m_g:g} g"
        ) from None
    mu_zero = _each(operator.gt, x, _MU_ZERO_X)

    t_c = n_trapped = frac = None
    if omega_eff is not None:
        _each(_check_trap_consistency, m_g, omega_eff, u0, r0)
        # omega_eff = 0 confines nothing: T_c = 0, no N2 and no condensate
        t_c = _each(lambda w, n, m: 0.0 if w == 0.0 else trapped_bec_temperature_K(n, m),
                    omega_eff, n2, m_g)
        try:
            n_trapped = _each(lambda n, t, w, m: None if w == 0.0 else
                              _trapped_number_cgs(n, t, w, m), n2, t_k, omega_eff, m_g)
        except ZeroDivisionError:
            raise ZeroDivisionError(
                f"N2: m Omega_eff^2 underflows to 0 for 'm_eff' = {m_g:g} g, "
                f"'omega_eff' = {omega_eff:g} s^-1"
            ) from None
        except OverflowError:
            raise OverflowError(
                f"N2 = 2 pi n2 kB T / (m Omega_eff^2) overflows for {density()}, "
                f"'T' = {t_k:g} K, 'm_eff' = {m_g:g} g, 'omega_eff' = {omega_eff:g} s^-1"
            ) from None
        frac = _each(lambda t, w, c: 0.0 if w == 0.0 else _condensate_fraction_cgs(t, c),
                     t_k, omega_eff, t_c)

    return ThresholdLadder(
        t_k, m_g, n2, n3, lam, r_int, t_d, t_kt, mu, omega_eff, t_c, n_trapped, frac,
        degenerate=_each(operator.le, t_k, t_d),
        kt_superfluid=_each(operator.le, t_k, t_kt),
        overlap=_each(operator.ge, lam, r_int),
        n2_estimated=n2_estimated,
        mu_effectively_zero=mu_zero,
        notes=_each(lambda z, w: notes + ("|mu| below 1e-13 kB T; effectively 0-",) * z
                    + ("omega_eff = 0: no trap confinement, T_c = 0",) * (w == 0.0),
                    mu_zero, omega_eff),
    )


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def effective_masses(coupling: CouplingParams) -> PolaritonMasses:
    """Branch masses m_{1,2} = 2 m_ph / (1 -/+ Delta / sqrt(Delta^2 + 4 g^2)).

    The upper branch takes '-', the lower '+'.  At Delta = 0 both equal
    2 m_ph.  When a denominator falls below 1e-12 (|Delta| >> g with the
    diverging sign) the mass is clamped there and flagged as saturated
    instead of returning infinity.
    """
    m_ph, m_upper, m_lower, *saturated = effective_masses_cgs(
        coupling.delta.cgs, coupling.g.cgs, coupling.k_perp.cgs)
    return PolaritonMasses(Quantity(m_ph, MASS), Quantity(m_upper, MASS),
                           Quantity(m_lower, MASS), coupling.delta, *saturated)


def transverse_energy(k_par: Quantity, m: Quantity) -> Quantity:
    """Quadratic transverse dispersion hbar^2 k_par^2 / (2 m)."""
    return Quantity(transverse_energy_erg(magnitude_in_cgs(k_par, WAVENUMBER, "k_par"),
                                          magnitude_in_cgs(m, MASS, "m")), ENERGY)


def group_velocity(k_par: Quantity, m: Quantity) -> Quantity:
    """v = d E_tr / d(hbar k) = hbar k / m; equals k c / (2 k_perp) at Delta = 0."""
    return Quantity(_group_velocity_cm_s(magnitude_in_cgs(k_par, WAVENUMBER, "k_par"),
                                         magnitude_in_cgs(m, MASS, "m")), VELOCITY)


def thermal_wavelength(m: Quantity, temperature: Quantity) -> Quantity:
    """Thermal de Broglie wavelength lambda_T = h / sqrt(2 pi m kB T)."""
    return Quantity(lambda_T_cm(magnitude_in_cgs(m, MASS, "m"),
                                magnitude_in_cgs(temperature, TEMPERATURE, "temperature")),
                    LENGTH)


def degeneracy_temperature(n2: Quantity, m: Quantity) -> Quantity:
    """Degeneracy temperature T_d = 2 pi hbar^2 n2 / (m kB)."""
    return Quantity(degeneracy_temperature_K(magnitude_in_cgs(n2, AREA_DENSITY, "n2"),
                                             magnitude_in_cgs(m, MASS, "m")), TEMPERATURE)


def chemical_potential(state: GasState) -> Quantity:
    """mu = kB T ln(1 - exp(-T_d/T)), always negative, -> 0- as T -> 0.

    The mu column of condensation_ladder; without n2 it is estimated as
    lambda_T(T) * n3 there.
    """
    return Quantity(condensation_ladder(state.temperature.cgs, state.m_eff.cgs,
                                        _opt_cgs(state.n2), _opt_cgs(state.n3)).mu, ENERGY)


def kt_temperature(n_s: Quantity, m: Quantity) -> Quantity:
    """Kosterlitz-Thouless temperature pi hbar^2 n_s / (2 m kB) = T_d/4 at n_s = n2."""
    return Quantity(kt_temperature_K(magnitude_in_cgs(n_s, AREA_DENSITY, "n_s"),
                                     magnitude_in_cgs(m, MASS, "m")), TEMPERATURE)


def trapped_bec_temperature(n2: Quantity, m: Quantity) -> Quantity:
    """Trapped-gas condensation temperature, density form:
    T_c = 2 pi hbar^2 n2 / (1.645 m kB).

    n2 is the mean areal density over the thermal area, N / (pi R_T^2) with
    R_T^2 = 2 kB T / (m Omega_eff^2), the relation `trapped_number` uses;
    it is not the peak density, which for the 2D ideal gas diverges at T_c.
    """
    return Quantity(trapped_bec_temperature_K(magnitude_in_cgs(n2, AREA_DENSITY, "n2"),
                                              magnitude_in_cgs(m, MASS, "m")), TEMPERATURE)


def trapped_bec_temperature_from_N(n_particles: float, omega_eff: Quantity) -> Quantity:
    """Trapped-gas condensation temperature, particle-number form:
    T_c = (hbar Omega_eff / kB) sqrt(N / 1.645); zero without a trap."""
    return Quantity(_trapped_bec_temperature_from_N_K(
        n_particles, magnitude_in_cgs(omega_eff, FREQUENCY, "omega_eff")), TEMPERATURE)


def trapped_number(n2: Quantity, temperature: Quantity, omega_eff: Quantity, m: Quantity) -> float:
    """Particles held by the harmonic trap: N2 = 2 pi n2 kB T / (m Omega_eff^2)."""
    return _trapped_number_cgs(
        magnitude_in_cgs(n2, AREA_DENSITY, "n2"),
        magnitude_in_cgs(temperature, TEMPERATURE, "temperature"),
        magnitude_in_cgs(omega_eff, FREQUENCY, "omega_eff"),
        magnitude_in_cgs(m, MASS, "m"),
    )


def condensate_fraction(temperature: Quantity, t_c: Quantity) -> float:
    """Ground-state share N0/N = max(0, 1 - (T/T_c)^2); clamps above T_c."""
    return _condensate_fraction_cgs(
        magnitude_in_cgs(temperature, TEMPERATURE, "temperature"),
        magnitude_in_cgs(t_c, TEMPERATURE, "t_c"),
    )


def condensation_report(
    state: GasState,
    trap: TrapSpec | None = None,
    n_s: Quantity | None = None,
) -> CondensationReport:
    """Assemble the full threshold ladder for one gas state.

    When n2 is absent it is estimated as lambda_T(T) * n3 and flagged as
    such.  n_s defaults to n2, making T_KT = T_d/4 exactly.  Trap columns
    are only populated when a trap is given; a trap with omega_eff = 0
    yields T_c = 0 (no condensation), which is distinct from "no trap".
    """
    lad = condensation_ladder(
        state.temperature.cgs, state.m_eff.cgs, _opt_cgs(state.n2), _opt_cgs(state.n3),
        *(_opt_cgs(getattr(trap, name, None)) for name in ("omega_eff", "u0", "r0")),
        None if n_s is None else magnitude_in_cgs(n_s, AREA_DENSITY, "n_s"),
    )
    quantities = {"lambda_t": LENGTH, "r_int": LENGTH, "t_degeneracy": TEMPERATURE,
                  "t_kt": TEMPERATURE, "mu": ENERGY}
    return CondensationReport(**{
        **lad._asdict(),
        **{name: Quantity(getattr(lad, name), dim) for name, dim in quantities.items()},
        "temperature": state.temperature,
        "m_eff": state.m_eff,
        "n2": Quantity(lad.n2, AREA_DENSITY) if lad.n2_estimated else state.n2,
        "n3": state.n3,
        "omega_eff": None if trap is None else trap.omega_eff,
        "t_c": None if lad.t_c is None else Quantity(lad.t_c, TEMPERATURE),
    })
