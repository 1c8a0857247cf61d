"""The cgs float cores behind every scalar command and Quantity operation.

Constants, the named units, the 2D gas threshold ladder, the branch
masses, the strong-coupling test, the resonator coupling and the trap
inverse, all on plain floats in cgs-Gaussian base units (cm, g, s, K).
Each Quantity operation in units, thermo, coupling and trap checks the
dimensions of its arguments and then calls one of these; the CLI, whose
config parser fixes every dimension once, calls them directly.  This module
imports nothing but the standard library's math, operator, enum, itertools
and typing, so every command starts on it without numpy and without the
Quantity layer.  The polariton branches, their Hopfield fractions and the
well are polbec.branches, which only the curve commands load.

Value checks live here, and so does the check that a result stays in the
float range, each naming its arguments; both paths raise the same errors.
Everything is math and Python float arithmetic: numpy's transcendental
functions differ from math's in the last ulp.
"""

from __future__ import annotations

import enum
import math
import operator
from itertools import repeat
from typing import NamedTuple

__all__ = [
    # constants and units
    "HBAR_CGS", "H_CGS", "C_CGS", "KB_CGS", "EV_ERG", "MEV_ERG", "DEBYE_ESU_CM", "CGS_UNITS",
    "range_error",
    # gas thermodynamics
    "TRAP_BEC_ZETA", "ThresholdLadder", "condensation_ladder", "ladder_notes",
    "effective_masses_cgs", "kt_temperature_K", "lambda_T_cm", "degeneracy_temperature_K",
    "trapped_bec_temperature_K", "transverse_energy_erg", "mu_over_kbt",
    # coupling
    "DEFAULT_STRONG_THRESHOLD", "CouplingRegime", "check_cavity", "geometry_coupling_cgs",
    "resonant_coupling_cgs", "strong_coupling_cgs",
    # trap
    "ENERGY_SCALE_NOTE", "design_trap_cgs",
]

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

# ---------------------------------------------------------------------------
# Named units: factor to cgs base, and the dimension as its cgs base-unit
# string, spelled as units.Dimension.unit_string() spells it.  units.UNITS
# pairs each factor with its Dimension; the config parser compares the
# strings, and prints them in its wrong-dimension message.
# ---------------------------------------------------------------------------

ENERGY_DIM = "cm^2 g s^-2"
LENGTH_DIM = "cm"
MASS_DIM = "g"
TIME_DIM = "s"
TEMPERATURE_DIM = "K"
FREQUENCY_DIM = "s^-1"
WAVENUMBER_DIM = "cm^-1"
VOLUME_DENSITY_DIM = "cm^-3"
AREA_DENSITY_DIM = "cm^-2"
VELOCITY_DIM = "cm s^-1"
# Gaussian charge: esu = g^1/2 cm^3/2 s^-1; dipole moment = esu*cm
DIPOLE_MOMENT_DIM = "cm^5/2 g^1/2 s^-1"

CGS_UNITS: dict[str, tuple[float, str]] = {
    # energy
    "erg": (1.0, ENERGY_DIM),
    "eV": (EV_ERG, ENERGY_DIM),
    "meV": (MEV_ERG, ENERGY_DIM),
    "J": (1e7, ENERGY_DIM),
    # length
    "cm": (1.0, LENGTH_DIM),
    "m": (1e2, LENGTH_DIM),
    "um": (1e-4, LENGTH_DIM),
    "nm": (1e-7, LENGTH_DIM),
    # mass
    "g": (1.0, MASS_DIM),
    "kg": (1e3, MASS_DIM),
    # time
    "s": (1.0, TIME_DIM),
    "ns": (1e-9, TIME_DIM),
    "us": (1e-6, TIME_DIM),
    "ps": (1e-12, TIME_DIM),
    "fs": (1e-15, TIME_DIM),
    # temperature
    "K": (1.0, TEMPERATURE_DIM),
    # rates and wavenumbers
    "s^-1": (1.0, FREQUENCY_DIM),
    "rad/s": (1.0, FREQUENCY_DIM),
    "cm^-1": (1.0, WAVENUMBER_DIM),
    "m^-1": (1e-2, WAVENUMBER_DIM),
    # densities
    "cm^-3": (1.0, VOLUME_DENSITY_DIM),
    "m^-3": (1e-6, VOLUME_DENSITY_DIM),
    "cm^-2": (1.0, AREA_DENSITY_DIM),
    "m^-2": (1e-4, AREA_DENSITY_DIM),
    # velocity
    "cm/s": (1.0, VELOCITY_DIM),
    "m/s": (1e2, VELOCITY_DIM),
    # Gaussian dipole moment
    "esu*cm": (1.0, DIPOLE_MOMENT_DIM),
    "D": (DEBYE_ESU_CM, DIPOLE_MOMENT_DIM),
}


def range_error(formula: str, **named: str) -> OverflowError:
    """The error for a formula whose result leaves the float range; named
    maps each argument behind it to its printed value."""
    return OverflowError(f"{formula} leaves the float range for "
                         + ", ".join(f"'{name}' = {value}" for name, value in named.items()))


# ---------------------------------------------------------------------------
# Gas thermodynamics: branch masses, transverse dispersion and the threshold
# ladder (conventions in the thermo module's docstring).
#
# condensation_ladder also takes one argument as a column (a list), checks
# the other arguments once, and computes each intermediate once, as a column
# only where it depends on that argument, value by value.
# ---------------------------------------------------------------------------

# zeta(2) = pi^2/6 to the four printed figures; used identically in both
# forms of the trapped-gas critical temperature so they invert exactly.
TRAP_BEC_ZETA = 1.645

# denominators 1 -/+ Delta/sqrt(Delta^2+4g^2) below this are reported as
# saturated rather than letting the branch mass blow up to inf
_MASS_SATURATION_EPS = 1e-12

_LOG2 = math.log(2.0)

# |mu| below ~1e-13 kB T (T_d/T > 30): flagged as effectively zero
_MU_ZERO_X = 30.0


class ThresholdLadder(NamedTuple):
    """The threshold ladder as cgs floats: K, g, cm^-2, cm^-3, cm, s^-1, but
    mu in meV, the unit the thresholds table prints, so that it stays a normal
    double where its value in erg would be subnormal.

    Field for field the magnitudes of thermo.CondensationReport (whose mu is
    in erg), None where the report has None; the report's notes are
    ladder_notes of a one-row ladder.  A field that depends on a list
    argument of condensation_ladder (a column) is the list of its values.
    The first 16 fields are the columns of the CLI's thresholds table, in
    its order.
    """

    temperature: float
    m_eff: float
    n3: float | None
    n2: float
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


def ladder_notes(ladder: ThresholdLadder) -> tuple[str, ...]:
    """The conventions and regime notes of a one-row ladder, in the order the
    thresholds table prints them and thermo.CondensationReport holds them."""
    return (("lambda_T = h / sqrt(2 pi m kB T)", "mu = kB T ln(1 - exp(-T_d/T))")
            + ("n2 estimated as lambda_T(T) * n3",) * ladder.n2_estimated
            + ("|mu| below 1e-13 kB T; effectively 0-",) * ladder.mu_effectively_zero
            + ("omega_eff = 0: no trap confinement, T_c = 0",) * (ladder.omega_eff == 0.0))


def _check_gas(t_k: _Cgs, m_g: _Cgs, n2: _Cgs | None, n3: _Cgs | None) -> None:
    """Value checks of GasState, argument by argument: a scalar once, and a
    column (from condensation_ladder) value by value, through _each.

    An infinite T passes here: condensation_ladder rejects it with 'T'
    named (lambda_T or mu leaves the float range), and GasState before it.
    """
    _each(_check_value, t_k, "temperature")
    _each(_check_value, m_g, "m_eff", True)
    if n2 is None and n3 is None:
        raise ValueError("GasState needs n2 or n3")
    if n2 is not None:
        _each(_check_value, n2, "n2")
    if n3 is not None:
        _each(_check_value, n3, "n3", True)


def _check_value(value: float, name: str, finite: bool = False) -> None:
    """One argument's check in _check_gas: positive, and finite if asked."""
    if not (0 < value < math.inf if finite else value > 0):
        raise ValueError(f"{name} must be finite" if value > 0 else f"{name} must be positive")


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


def _mu_meV(t_k: float, x: float) -> float:
    """mu = kB T ln(1 - exp(-x)) in meV, for x = T_d/T."""
    return (KB_CGS * t_k / MEV_ERG) * mu_over_kbt(x)


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
    frac = 1.0 - ratio_sq
    return frac if frac > 0.0 else 0.0  # max(0.0, frac), without a call per ladder row


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
    """A value of a column failed; it has no message (see condensation_ladder)."""


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
    """The threshold ladder of thermo.condensation_report from cgs magnitudes.

    omega_eff None means no trap (u0 and r0 are then ignored); the checks of
    GasState and TrapSpec run first, in that order.  Any argument may be a
    list, a column of values, with the others scalars: each field that
    depends on it is then the column of the scalar call's values.  A column
    value that fails raises _ColumnError, an ArithmeticError with no
    message.  A caller that reports the first failing value's own error (the
    CLI's sweep) finds it by the scalar calls, value by value.
    """
    _check_gas(t_k, m_g, n2, n3)
    if omega_eff is not None:
        _each(_check_trap, omega_eff)
    n2_estimated = n2 is None

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
        mu = _each(_mu_meV, t_k, x)
    except ValueError:  # log(0): T_d/T = n2 lambda_T^2 underflows to 0
        raise ValueError(
            f"mu: T_d/T underflows to 0 for 'T' = {t_k:g} K, {density()}, 'm_eff' = {m_g:g} g"
        ) from None

    t_c = n_trapped = frac = None
    if omega_eff is not None:
        _each(_check_trap_consistency, m_g, omega_eff, u0, r0)
        # omega_eff = 0 confines nothing: T_c = 0, no N2 and no condensate
        t_c = _trapped(omega_eff, 0.0, operator.truediv, t_d, TRAP_BEC_ZETA)
        try:
            n_trapped = _trapped(omega_eff, None, _trapped_number_cgs, n2, t_k, omega_eff, m_g)
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
        frac = _trapped(omega_eff, 0.0, _condensate_fraction_cgs, t_k, t_c)

    return ThresholdLadder(
        t_k, m_g, n3, n2, lam, r_int, t_d, t_kt, mu, omega_eff, t_c, n_trapped, frac,
        degenerate=_each(operator.le, t_k, t_d),
        kt_superfluid=_each(operator.le, t_k, t_kt),
        overlap=_each(operator.ge, lam, r_int),
        n2_estimated=n2_estimated,
        mu_effectively_zero=_each(operator.gt, x, _MU_ZERO_X),
    )


def _trapped(omega_eff: _Cgs, off, f, *args):
    """_each(f, *args), but off where omega_eff = 0, which confines nothing;
    decided once unless omega_eff is a column."""
    if type(omega_eff) is list:
        return _each(lambda w, *row: off if w == 0.0 else f(*row), omega_eff, *args)
    return off if omega_eff == 0.0 else _each(f, *args)


# ---------------------------------------------------------------------------
# Strong coupling and the resonator coupling (Gaussian units; see the
# coupling module's docstring)
# ---------------------------------------------------------------------------

# "much greater" margin for the strong-coupling inequality; not quantified
# by the model, so it is a configuration knob.
DEFAULT_STRONG_THRESHOLD = 10.0


class CouplingRegime(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


def _require_positive(value: float, name: str) -> None:
    if not value > 0:
        raise ValueError(f"{name} must be strictly positive, got {value}")


def _require_mode_index(mode_index) -> None:
    if not (isinstance(mode_index, int) and mode_index >= 1):
        raise ValueError(f"mode_index must be an integer >= 1, got {mode_index!r}")


def check_cavity(length: float, mode_index: int, beam_diameter: float) -> None:
    """Value checks of CavityParams on cgs magnitudes."""
    _require_positive(length, "length")
    _require_positive(beam_diameter, "beam_diameter")
    _require_mode_index(mode_index)


def _check_coupling(g: float, k_perp: float) -> None:
    """Value checks of CouplingParams on cgs magnitudes."""
    _require_positive(g, "g")
    _require_positive(k_perp, "k_perp")


def _check_medium(e0: float, d: float, n3: float, tau: float) -> None:
    """Value checks of MediumParams on cgs magnitudes."""
    _require_positive(e0, "transition_energy")
    _require_positive(d, "dipole_moment")
    _require_positive(n3, "density")
    _require_positive(tau, "coherence_time")


def _cooperative_frequency_cgs(e0: float, d: float, n3: float) -> float:
    """omega_c = sqrt(2 pi d^2 omega0 n3 / hbar) in s^-1, omega0 = E0 / hbar,
    for the checked magnitudes of a medium."""
    omega0 = e0 / HBAR_CGS
    omega_c = math.sqrt(2.0 * math.pi * d * d * omega0 * n3 / HBAR_CGS)
    if not 0.0 < omega_c < math.inf:
        raise range_error("omega_c = sqrt(2 pi d^2 omega0 n3 / hbar)", d=f"{d / DEBYE_ESU_CM:g} D",
                          n3=f"{n3:g} cm^-3", E0=f"{e0 / EV_ERG:g} eV")
    return omega_c


def strong_coupling_cgs(
    e0: float, d: float, n3: float, tau: float, threshold: float = DEFAULT_STRONG_THRESHOLD
) -> tuple[float, float, float, CouplingRegime]:
    """(omega_c, decoherence rate 1/(2 tau_coh), ratio, regime) in cgs, with
    the checks of MediumParams; strong iff ratio = omega_c * 2 tau_coh > threshold,
    which must be positive and finite."""
    _check_medium(e0, d, n3, tau)
    if not 0.0 < threshold < math.inf:
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    omega_c = _cooperative_frequency_cgs(e0, d, n3)
    rate = 0.5 / tau
    if rate == math.inf:
        raise range_error("decoherence rate 1/(2 tau_coh)", tau_coh=f"{tau:g} s")
    ratio = omega_c * 2.0 * tau
    if not 0.0 < ratio < math.inf:
        raise range_error("ratio = omega_c * 2 tau_coh", d=f"{d / DEBYE_ESU_CM:g} D",
                          n3=f"{n3:g} cm^-3", E0=f"{e0 / EV_ERG:g} eV", tau_coh=f"{tau:g} s")
    regime = CouplingRegime.STRONG if ratio > threshold else CouplingRegime.WEAK
    return omega_c, rate, ratio, regime


def geometry_coupling_cgs(e0: float, l_cav: float, mode_index: int, g: float) -> tuple[float, float]:
    """(k_perp, Delta) in cgs from the bare resonator geometry, with the
    checks of CouplingParams: k_perp = pi*m/L_cav, Delta = E0 - hbar*c*k_perp."""
    _require_mode_index(mode_index)
    _require_positive(e0, "transition_energy")
    k_perp = math.pi * mode_index / l_cav
    delta = e0 - HBAR_CGS * C_CGS * k_perp
    _check_coupling(g, k_perp)
    if k_perp == math.inf:
        raise range_error("k_perp = pi m / L_cav", L_cav=f"{l_cav:g} cm", mode_index=mode_index)
    return k_perp, delta


def _resonant_length_cgs(e0: float, mode_index: int) -> float:
    """L = pi*m*hbar*c/E0 in cm for a checked E0."""
    _require_mode_index(mode_index)
    length = math.pi * mode_index * HBAR_CGS * C_CGS / e0
    if length == math.inf:
        raise range_error("L = pi m hbar c / E0", E0=f"{e0 / EV_ERG:g} eV", mode_index=mode_index)
    return length


def resonant_coupling_cgs(e0: float, g: float, delta: float) -> float:
    """k_perp = (E0 - Delta)/(hbar c) in cgs for a prescribed detuning, with
    the checks of CouplingParams."""
    e_mode = e0 - delta
    if e_mode <= 0:
        raise ValueError("detuning leaves no positive mode energy")
    k_perp = e_mode / (HBAR_CGS * C_CGS)
    _check_coupling(g, k_perp)
    if k_perp == math.inf:
        raise range_error("k_perp = (E0 - Delta) / (hbar c)", E0=f"{e0 / EV_ERG:g} eV",
                          Delta=f"{delta / EV_ERG:g} eV")
    return k_perp


# ---------------------------------------------------------------------------
# Trap design: the lens for a trap frequency and its inverse (the energy
# scale E_char is explained in the trap module's docstring)
# ---------------------------------------------------------------------------

ENERGY_SCALE_NOTE = (
    "optical potential normalization: n' = m_eff * omega_eff^2 / E_char, "
    "E_char defaulting to the transition energy of the trapped photon"
)

# keep the harmonic approximation honest: half the index-zero-crossing radius
_DEFAULT_R_MAX_FRAC = 0.5


def _check_lens(n0: float, n_prime: float, r_max: float) -> None:
    """Value checks of LensProfile on cgs magnitudes."""
    if not n0 > 0:
        raise ValueError(f"n0 must be positive, got {n0}")
    if n_prime < 0:
        raise ValueError(f"n_prime must be non-negative, got {n_prime}")
    if n_prime > 0 and r_max * math.sqrt(n_prime) >= 1.0:
        raise ValueError(
            "r_max reaches the index zero crossing: need r_max < 1/sqrt(n')"
        )


def _check_mass_and_scale(m: float, e_char: float) -> None:
    if not m > 0:
        raise ValueError("m_eff must be positive")
    if not e_char > 0:
        raise ValueError("energy_scale must be positive")


def _lens_cgs(omega: float, m: float, e_char: float, r_max_frac: float) -> tuple[float, float]:
    """(n', r_max) in cgs: n' = m_eff Omega^2 / E_char, r_max = r_max_frac / sqrt(n')."""
    if omega < 0:
        raise ValueError("omega_eff must be non-negative")
    _check_mass_and_scale(m, e_char)
    n_prime = m * omega * omega / e_char
    if not (0.0 < n_prime < math.inf or omega == 0.0):
        raise range_error("n' = m_eff Omega_eff^2 / E_char", omega_eff=f"{omega:g} s^-1",
                          m_eff=f"{m:g} g", energy_scale=f"{e_char:g} erg")
    r_max = math.inf if n_prime == 0.0 else r_max_frac / math.sqrt(n_prime)
    return n_prime, r_max


def _omega_for_lens_cgs(n_prime: float, m: float, e_char: float) -> float:
    """Omega_eff = sqrt(n' E_char / m_eff) in s^-1."""
    _check_mass_and_scale(m, e_char)
    omega = math.sqrt(n_prime * e_char / m)
    if not (0.0 < omega < math.inf or n_prime == 0.0):
        raise range_error("Omega_eff = sqrt(n' E_char / m_eff)", n_prime=f"{n_prime:g} cm^-2",
                          m_eff=f"{m:g} g", energy_scale=f"{e_char:g} erg")
    return omega


def design_trap_cgs(
    t_c: float, n_particles: float, m: float, e_char: float, n0: float = 1.0,
    beam_diameter: float | None = None,
) -> tuple[float, float, float, bool | None]:
    """(Omega_eff, n', r_max, beam_fits_profile) in cgs for trap.design_trap,
    with the checks of LensProfile."""
    if not t_c > 0:
        raise ValueError(f"target_tc must be positive, got {t_c}")
    if not n_particles > 0:
        raise ValueError(f"n_particles must be positive, got {n_particles}")
    omega = KB_CGS * t_c * math.sqrt(TRAP_BEC_ZETA / n_particles) / HBAR_CGS
    if not 0.0 < omega < math.inf:
        raise range_error("Omega_eff = kB T_c sqrt(1.645 / N) / hbar", target_tc=f"{t_c:g} K",
                          n_particles=f"{n_particles:g}")
    n_prime, r_max = _lens_cgs(omega, m, e_char, _DEFAULT_R_MAX_FRAC)
    _check_lens(n0, n_prime, r_max)
    fits = None if beam_diameter is None else 2.0 * r_max >= beam_diameter
    return omega, n_prime, r_max, fits
