"""The standard-library cgs float cores that every start of the CLI compiles.

Constants, the named units, the 2D gas threshold ladder, the branch
masses and the resonator coupling, all on plain floats in cgs-Gaussian
base units (cm, g, s, K).  This module holds only what polbec.cli and the
command modules it imports reach: the CLI, whose config parser fixes every
dimension once, calls these cores directly, and the Quantity operation of
units, thermo or coupling that computes the same thing checks the
dimensions of its arguments and then calls the same core.  An operation
that no command runs holds its own checks and formula, on the column form
of the ladder stage where there is one.  This module imports nothing but
the standard library's math, operator, itertools and typing, so every
command starts on it without numpy and without the Quantity layer.  The
cores that one command alone runs live beside that command and load with
it: the polariton branches, their Hopfield fractions and the well in
polbec.branches (dispersion, hopfield), the strong-coupling test in
polbec.regime (check-coupling) and the trap design in polbec.lens (trap).

Value checks live here, and so does the check that a result stays in the
float range, each naming its arguments; where the CLI and an operation
share a core, both paths raise the same errors.  Everything is math and
Python float arithmetic: numpy's transcendental functions differ from
math's in the last ulp.
"""

from __future__ import annotations

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
    "effective_masses_cgs", "kt_temperature_K", "transverse_energy_erg",
    # coupling
    "check_cavity", "geometry_coupling_cgs", "resonant_coupling_cgs",
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
# Each formula of the ladder has one home, a column form: a comprehension
# over columns of its arguments, formula in its body, checking nothing.  A
# formula may be split into a fixed factor and a per-row part, each a form
# here, in the order of the one expression, so each double stays the same.
# condensation_ladder runs each stage once through _stage and checks its
# results in bulk; the Quantity operations of thermo that no command runs
# call the same forms on columns of one.
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

# the relative gap allowed between U0 and m_eff Omega_eff^2 r0^2 / 2: 7-digit U0s pass
_TRAP_REL_TOL = 1e-6

# a cgs magnitude, or a column of them
_Cgs = float | list[float]


class ThresholdLadder(NamedTuple):
    """The threshold ladder as cgs floats: K, g, cm^-2, cm^-3, cm, s^-1, but
    mu in meV, the unit the thresholds table prints, so that it stays a normal
    double where its value in erg would be subnormal.

    Field for field the magnitudes of thermo.CondensationReport (whose mu is
    in erg), None where the report has None; ladder_notes gives the notes
    of the report and of the thresholds table, from a one-row or a column
    ladder.  A field that depends on a list argument of condensation_ladder
    (a column) is the list of its values.
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
    """The conventions and regime notes of a ladder, in the order the thresholds
    table prints them and thermo.CondensationReport holds them; a note of a
    column ladder holds if it holds for any value."""
    mu_zero, omega = _cells(ladder.mu_effectively_zero), _cells(ladder.omega_eff)
    return (("lambda_T = h / sqrt(2 pi m kB T)", "mu = kB T ln(1 - exp(-T_d/T))")
            + ("n2 estimated as lambda_T(T) * n3",) * ladder.n2_estimated
            + ("|mu| below 1e-13 kB T; effectively 0-",) * (True in mu_zero)
            + ("omega_eff = 0: no trap confinement, T_c = 0",) * (0.0 in omega))


class _ColumnError(ArithmeticError):
    """A value of a column failed; it has no message (see condensation_ladder)."""


def _cells(value: _Cgs) -> list | tuple:
    """The values of an argument or a stage: a column, or a tuple of one."""
    return value if type(value) is list else (value,)


def _stage(form, *args):
    """The column form over args: its list of values where an arg is a
    column (a list), the other args repeated, else its one value."""
    if list in map(type, args):
        return form(*[a if type(a) is list else repeat(a) for a in args])
    return form(*[(a,) for a in args])[0]


def _check_gas(t_k: _Cgs, m_g: _Cgs, n2: _Cgs | None, n3: _Cgs | None) -> None:
    """Value checks of GasState, argument by argument; a column (from
    condensation_ladder) raises _ColumnError if any of its values fails.

    An infinite T passes here: condensation_ladder rejects it with 'T'
    named (lambda_T or mu leaves the float range), and GasState before it.
    """
    _check_value(t_k, "temperature")
    _check_value(m_g, "m_eff", True)
    if n2 is None and n3 is None:
        raise ValueError("GasState needs n2 or n3")
    if n2 is not None:
        _check_value(n2, "n2")
    if n3 is not None:
        _check_value(n3, "n3", True)


def _check_value(value: _Cgs, name: str, finite: bool = False) -> None:
    """One argument's check in _check_gas: positive, and finite if asked."""
    values = _cells(value)
    positive = all(map(operator.lt, repeat(0.0), values))  # and False for NaN
    if not (positive and (not finite or all(map(math.isfinite, values)))):
        raise _ColumnError if type(value) is list else ValueError(
            f"{name} must be finite" if value > 0 else f"{name} must be positive")


def _check_trap(omega: _Cgs) -> None:
    """Value check of TrapSpec, 0 <= omega_eff < inf; a column raises _ColumnError."""
    values = _cells(omega)
    if not all(map(operator.le, repeat(0.0), values)):  # and False for NaN
        raise _ColumnError if type(omega) is list else ValueError("omega_eff must be non-negative")
    if math.inf in values:  # a trap that holds no particle
        raise _ColumnError if type(omega) is list else ValueError("omega_eff must be finite")


def _check_trap_consistency(m_g: _Cgs, omega: _Cgs, u0: _Cgs | None, r0: _Cgs | None) -> None:
    """U(r0) = U0 against m_eff Omega_eff^2 r0^2 / 2 (erg) when both are given;
    with a column among the arguments a failure raises _ColumnError."""
    if u0 is None or r0 is None:
        return
    column = list in map(type, (m_g, omega, u0, r0))
    try:
        expected = _stage(lambda ms, ws, rs: [0.5 * m * w**2 * r**2
                                              for m, w, r in zip(ms, ws, rs)], m_g, omega, r0)
        finite = all(map(math.isfinite, _cells(expected)))
    except OverflowError:  # w**2 or r**2 past the largest float
        finite = False
    if not finite:
        raise _ColumnError if column else OverflowError(
            f"trap consistency: m_eff*Omega_eff^2*r0^2/2 overflows for "
            f"'omega_eff' = {omega:g} s^-1, 'r0' = {r0:g} cm")
    # written as not <= so that a NaN U0 counts as inconsistent
    far = _stage(lambda us, es: [not abs(u - e) <= _TRAP_REL_TOL * max(abs(u), abs(e))
                                 for u, e in zip(us, es)], u0, expected)
    if True in _cells(far):
        raise _ColumnError if column else ValueError(
            f"inconsistent trap: U0 = {u0:.6g} erg but "
            f"m_eff*Omega_eff^2*r0^2/2 = {expected:.6g} erg")


def _kb_column(x):
    """2 pi x kB, the fixed factor of lambda_T (x = m) and of N2 (x = n2)."""
    return [2.0 * math.pi * v * KB_CGS for v in x]


def _lambda_T_column(a, t):
    """h / sqrt(2 pi m kB T) in cm from a = 2 pi m kB; 0 where a T overflows."""
    return [H_CGS / math.sqrt(a_k * t_k) for a_k, t_k in zip(a, t)]


def _t_d_column(n2, m):
    """T_d = 2 pi hbar^2 n2 / (m kB) in K."""
    return [2.0 * math.pi * HBAR_CGS**2 * n / (m_g * KB_CGS) for n, m_g in zip(n2, m)]


def _mu_column(t, x):
    """mu = kB T ln(1 - exp(-x)) in meV, x = T_d/T > 0, without cancellation."""
    return [KB_CGS * t_k / MEV_ERG * (math.log1p(-math.exp(-v)) if v > _LOG2
                                      else math.log(-math.expm1(-v)))
            for t_k, v in zip(t, x)]


def _t_kt_column(n_s, m):
    """T_KT = pi hbar^2 n_s / (2 m kB) in K."""
    return [math.pi * HBAR_CGS**2 * n / (2.0 * m_g * KB_CGS) for n, m_g in zip(n_s, m)]


def kt_temperature_K(n_s_cm2: float, m_g: float) -> float:
    """T_KT = pi hbar^2 n_s / (2 m kB)."""
    if not (n_s_cm2 > 0 and m_g > 0):
        raise ValueError("n_s and mass must be positive")
    try:
        t_kt = _stage(_t_kt_column, n_s_cm2, m_g)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"T_KT: 2 m kB underflows to 0 for 'm' = {m_g:g} g") from None
    if t_kt == math.inf:
        raise range_error("T_KT = pi hbar^2 n_s / (2 m kB)", n_s=f"{n_s_cm2:g} cm^-2",
                          m=f"{m_g:g} g")
    if t_kt == 0.0:  # pi hbar^2 n_s underflows
        raise ArithmeticError(f"T_KT = pi hbar^2 n_s / (2 m kB) underflows to 0 for "
                              f"'n_s' = {n_s_cm2:g} cm^-2, 'm' = {m_g:g} g")
    return t_kt


def _m_omega2_column(m, omega):
    """m Omega_eff^2, the fixed factor of N2; None where Omega_eff = 0 (no trap)."""
    return [None if w == 0.0 else m_g * w * w for m_g, w in zip(m, omega)]


def _trapped_number_column(b, t, c):
    """N2 = 2 pi n2 kB T / (m Omega_eff^2) from b = 2 pi n2 kB, c = m Omega_eff^2."""
    return [None if c_k is None else b_k * t_k / c_k for b_k, t_k, c_k in zip(b, t, c)]


def _condensate_fraction_column(t, t_c):
    """N0/N = max(0, 1 - (T/T_c)^2); 0 where T_c = 0 (no trap confinement)."""
    return [0.0 if c == 0.0 else f if (f := 1.0 - (t_k / c) ** 2) > 0.0 else 0.0
            for t_k, c in zip(t, t_c)]


def _le_column(a, b):
    """a <= b over two columns."""
    return [x <= y for x, y in zip(a, b)]


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


def condensation_ladder(t_k: _Cgs, m_g: _Cgs, n2: _Cgs | None = None, n3: _Cgs | None = None,
                        omega_eff: _Cgs | None = None, u0: _Cgs | None = None,
                        r0: _Cgs | None = None, n_s: _Cgs | None = None) -> ThresholdLadder:
    """The threshold ladder of thermo.condensation_report from cgs magnitudes.

    omega_eff None means no trap (u0 and r0 are then ignored); the checks of
    GasState and TrapSpec run first, in that order.  Any argument may be a
    list, a column of values, with the others scalars: each field that
    depends on it is then the column of the scalar call's values, and each
    other field is computed once.  With a column, a failure raises
    _ColumnError, an ArithmeticError with no message; the CLI's sweep finds
    the first failing value's own error by the scalar calls, value by value.
    """
    _check_gas(t_k, m_g, n2, n3)
    if omega_eff is not None:
        _check_trap(omega_eff)
    column = list in map(type, (t_k, m_g, n2, n3, omega_eff, u0, r0, n_s))
    n2_estimated = n2 is None

    def density() -> str:  # the key behind n2, in the messages below
        return f"'n3' = {n3:g} cm^-3" if n2_estimated else f"'n2' = {n2:g} cm^-2"

    # A finite positive input can still take an intermediate out of the float
    # range; the check after each stage then raises, naming the config keys.
    try:
        lam = _stage(_lambda_T_column, _stage(_kb_column, m_g), t_k)
    except ZeroDivisionError:  # 2 pi m kB T underflows to 0
        lam = 0.0
    # lambda_T = 0: 2 pi m kB T overflows, or T = inf (with n2 it fails at mu)
    if 0.0 in _cells(lam) and (column or n2_estimated or t_k != math.inf):
        raise _ColumnError if column else ZeroDivisionError(
            f"lambda_T: 2 pi m kB T leaves the float range for "
            f"'T' = {t_k:g} K, 'm_eff' = {m_g:g} g")
    if n2_estimated:
        n2 = _stage(lambda lam, n3: [a * b for a, b in zip(lam, n3)], lam, n3)
        if 0.0 in _cells(n2):
            raise _ColumnError if column else ZeroDivisionError(
                f"n2 = lambda_T * n3 underflows to 0 for 'n3' = {n3:g} cm^-3")
    # n2 > 0 from here on
    r_int = _stage(lambda n2: [1.0 / math.sqrt(n) for n in n2], n2)
    try:
        t_d = _stage(_t_d_column, n2, m_g)
    except ZeroDivisionError:
        raise _ColumnError if column else ZeroDivisionError(
            f"T_d: m kB underflows to 0 for 'm_eff' = {m_g:g} g") from None
    if math.inf in _cells(t_d):
        raise _ColumnError if column else OverflowError(
            f"T_d = 2 pi hbar^2 n2 / (m kB) overflows for {density()}, 'm_eff' = {m_g:g} g")
    if n_s is not None and not all(map(operator.lt, repeat(0.0), _cells(n_s))):
        raise _ColumnError if column else ValueError("n_s and mass must be positive")
    t_kt = _stage(_t_kt_column, n2 if n_s is None else n_s, m_g)
    if math.inf in _cells(t_kt):  # T_KT <= T_d at n_s = n2, so only an n_s of its own
        raise _ColumnError if column else OverflowError(
            f"T_KT = pi hbar^2 n_s / (2 m kB) overflows for "
            f"'n_s' = {n_s:g} cm^-2, 'm_eff' = {m_g:g} g")
    # T_KT = 0: pi hbar^2 n_s underflows (at n_s = n2 with T_d = 0, it fails at mu)
    if 0.0 in _cells(t_kt) and (column or n_s is not None or t_d != 0.0):
        raise _ColumnError if column else ArithmeticError(
            "T_KT = pi hbar^2 n_s / (2 m kB) underflows to 0 for "
            + (density() if n_s is None else f"'n_s' = {n_s:g} cm^-2") + f", 'm_eff' = {m_g:g} g")
    x = _stage(lambda t_d, t: [a / b for a, b in zip(t_d, t)], t_d, t_k)
    if 0.0 in _cells(x):  # log(0) in mu: T_d/T = n2 lambda_T^2 underflows to 0
        raise _ColumnError if column else ValueError(
            f"mu: T_d/T underflows to 0 for 'T' = {t_k:g} K, {density()}, 'm_eff' = {m_g:g} g")
    mu = _stage(_mu_column, t_k, x)

    t_c = n_trapped = frac = None
    if omega_eff is not None:
        _check_trap_consistency(m_g, omega_eff, u0, r0)
        # omega_eff = 0 confines nothing: T_c = 0, no N2 and no condensate
        t_c = _stage(lambda t_d, omega: [0.0 if w == 0.0 else d / TRAP_BEC_ZETA
                                         for d, w in zip(t_d, omega)], t_d, omega_eff)
        try:
            n_trapped = _stage(_trapped_number_column, _stage(_kb_column, n2), t_k,
                               _stage(_m_omega2_column, m_g, omega_eff))
        except ZeroDivisionError:
            raise _ColumnError if column else ZeroDivisionError(
                f"N2: m Omega_eff^2 underflows to 0 for 'm_eff' = {m_g:g} g, "
                f"'omega_eff' = {omega_eff:g} s^-1") from None
        # inf or NaN (inf / inf) where N2 overflows; filter drops None and 0
        if not all(map(math.isfinite, filter(None, _cells(n_trapped)))):
            raise _ColumnError if column else OverflowError(
                f"N2 = 2 pi n2 kB T / (m Omega_eff^2) overflows for {density()}, "
                f"'T' = {t_k:g} K, 'm_eff' = {m_g:g} g, 'omega_eff' = {omega_eff:g} s^-1")
        try:
            frac = _stage(_condensate_fraction_column, t_k, t_c)
        except OverflowError:
            raise _ColumnError if column else OverflowError(
                f"condensate fraction: (T/T_c)^2 overflows for 'T' = {t_k:g} K, T_c = {t_c:g} K "
                f"from {density()}, 'm_eff' = {m_g:g} g") from None

    return ThresholdLadder(
        t_k, m_g, n3, n2, lam, r_int, t_d, t_kt, mu, omega_eff, t_c, n_trapped, frac,
        degenerate=_stage(_le_column, t_k, t_d),
        kt_superfluid=_stage(_le_column, t_k, t_kt),
        overlap=_stage(_le_column, r_int, lam),
        n2_estimated=n2_estimated,
        mu_effectively_zero=_stage(lambda x: [v > _MU_ZERO_X for v in x], x),
    )


# ---------------------------------------------------------------------------
# The resonator coupling (Gaussian units; see the coupling module's
# docstring)
# ---------------------------------------------------------------------------

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
