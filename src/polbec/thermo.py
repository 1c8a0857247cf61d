"""Transverse polariton-gas thermodynamics.

Effective masses of both branches, the quadratic transverse dispersion and
its group velocity, and the 2D Bose-gas threshold ladder: thermal
wavelength, degeneracy temperature, chemical potential, the
Kosterlitz-Thouless temperature, and the trapped-gas condensation
temperature with its condensate fraction, as dimension-checked Quantity
operations and their result dataclasses.  An operation that the CLI also
runs (the masses, the transverse energy, T_KT and the ladder behind
chemical_potential and condensation_report) converts its arguments and
calls the cgs float core in polbec.core, so both raise the same errors.
The others convert their arguments, then check and compute on their own,
through the ladder's column form of their formula where it has one.

Conventions fixed by these formulas (and echoed as notes in every report):

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
from dataclasses import dataclass, field

from . import _SUBMODULE_NAMES
from .core import (
    HBAR_CGS,
    KB_CGS,
    MEV_ERG,
    TRAP_BEC_ZETA,
    _check_gas,
    _check_trap,
    _check_trap_consistency,
    _condensate_fraction_column,
    _kb_column,
    _lambda_T_column,
    _m_omega2_column,
    _stage,
    _t_d_column,
    _trapped_number_column,
    condensation_ladder,
    effective_masses_cgs,
    kt_temperature_K,
    ladder_notes,
    range_error,
    transverse_energy_erg,
)
from .coupling import CouplingParams
from .units import (
    AREA_DENSITY,
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    Quantity,
    TEMPERATURE,
    VELOCITY,
    VOLUME_DENSITY,
    WAVENUMBER,
    magnitude_in_cgs,
)

__all__ = list(_SUBMODULE_NAMES["thermo"])


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

    def check_consistency(self, m_eff: Quantity) -> None:
        """Verify U(r0) = U0 against m_eff Omega^2 r0^2 / 2 when both given."""
        _check_trap_consistency(magnitude_in_cgs(m_eff, MASS, "m_eff"), self.omega_eff.cgs,
                                _opt_cgs(self.u0), _opt_cgs(self.r0))


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
    k = magnitude_in_cgs(k_par, WAVENUMBER, "k_par")
    m_g = magnitude_in_cgs(m, MASS, "m")
    if not m_g > 0:
        raise ValueError("mass must be positive")
    velocity = HBAR_CGS * k / m_g
    if not math.isfinite(velocity):
        raise range_error("hbar k_par / m", k_par=f"{k:g} cm^-1", m=f"{m_g:g} g")
    return Quantity(velocity, VELOCITY)


def thermal_wavelength(m: Quantity, temperature: Quantity) -> Quantity:
    """Thermal de Broglie wavelength lambda_T = h / sqrt(2 pi m kB T).

    An infinite T gives the limit 0; an m and T whose 2 pi m kB T leaves
    the float range raise ZeroDivisionError, with both named.
    """
    m_g = magnitude_in_cgs(m, MASS, "m")
    t_k = magnitude_in_cgs(temperature, TEMPERATURE, "temperature")
    if not (m_g > 0 and t_k > 0):
        raise ValueError("mass and temperature must be positive")
    try:
        lam = _stage(_lambda_T_column, _stage(_kb_column, m_g), t_k)
    except ZeroDivisionError:
        lam = 0.0
    # 0 where the product overflows, NaN where m kB underflows to 0 and T = inf
    if not (lam > 0.0 or lam == 0.0 and t_k == math.inf):
        raise ZeroDivisionError(f"lambda_T: 2 pi m kB T leaves the float range for "
                                f"'m' = {m_g:g} g, 'temperature' = {t_k:g} K")
    return Quantity(lam, LENGTH)


def degeneracy_temperature(n2: Quantity, m: Quantity) -> Quantity:
    """Degeneracy temperature T_d = 2 pi hbar^2 n2 / (m kB); satisfies
    n2 lambda_T(T_d)^2 = 1."""
    n2_cm2 = magnitude_in_cgs(n2, AREA_DENSITY, "n2")
    m_g = magnitude_in_cgs(m, MASS, "m")
    if not (n2_cm2 > 0 and m_g > 0):
        raise ValueError("n2 and mass must be positive")
    try:
        t_d = _stage(_t_d_column, n2_cm2, m_g)
    except ZeroDivisionError:
        raise ZeroDivisionError(f"T_d: m kB underflows to 0 for 'm' = {m_g:g} g") from None
    if not t_d < math.inf:  # inf, or NaN for an infinite n2 over an infinite m
        raise range_error("T_d = 2 pi hbar^2 n2 / (m kB)", n2=f"{n2_cm2:g} cm^-2", m=f"{m_g:g} g")
    if t_d == 0.0:  # 2 pi hbar^2 n2 underflows
        raise ArithmeticError(f"T_d = 2 pi hbar^2 n2 / (m kB) underflows to 0 for "
                              f"'n2' = {n2_cm2:g} cm^-2, 'm' = {m_g:g} g")
    return Quantity(t_d, TEMPERATURE)


def chemical_potential(state: GasState) -> Quantity:
    """mu = kB T ln(1 - exp(-T_d/T)), always negative, -> 0- as T -> 0.

    The mu column of condensation_ladder, which is in meV; without n2 it is
    estimated as lambda_T(T) * n3 there.
    """
    return Quantity(condensation_ladder(state.temperature.cgs, state.m_eff.cgs,
                                        _opt_cgs(state.n2), _opt_cgs(state.n3)).mu * MEV_ERG,
                    ENERGY)


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
    return Quantity(degeneracy_temperature(n2, m).cgs / TRAP_BEC_ZETA, TEMPERATURE)


def trapped_bec_temperature_from_N(n_particles: float, omega_eff: Quantity) -> Quantity:
    """Trapped-gas condensation temperature, particle-number form:
    T_c = (hbar Omega_eff / kB) sqrt(N / 1.645); zero without a trap."""
    omega = magnitude_in_cgs(omega_eff, FREQUENCY, "omega_eff")
    if not n_particles > 0:
        raise ValueError("particle number must be positive")
    _check_trap(omega)
    t_c = HBAR_CGS * omega / KB_CGS * math.sqrt(n_particles / TRAP_BEC_ZETA)
    if not t_c < math.inf:
        raise range_error("T_c = (hbar Omega_eff / kB) sqrt(N / 1.645)",
                          n_particles=f"{n_particles:g}", omega_eff=f"{omega:g} s^-1")
    return Quantity(t_c, TEMPERATURE)


def trapped_number(n2: Quantity, temperature: Quantity, omega_eff: Quantity, m: Quantity) -> float:
    """Particles held by the harmonic trap: N2 = 2 pi n2 kB T / (m Omega_eff^2),
    which must be finite."""
    n2_cm2 = magnitude_in_cgs(n2, AREA_DENSITY, "n2")
    t_k = magnitude_in_cgs(temperature, TEMPERATURE, "temperature")
    omega = magnitude_in_cgs(omega_eff, FREQUENCY, "omega_eff")
    m_g = magnitude_in_cgs(m, MASS, "m")
    if omega == 0.0:
        raise ZeroDivisionError("trapped_number diverges without a trap (omega_eff = 0)")
    if not (n2_cm2 > 0 and t_k >= 0 and omega > 0 and m_g > 0):
        raise ValueError("n2, omega_eff and mass must be positive, temperature non-negative")
    _check_trap(omega)  # an infinite omega_eff holds no particle
    try:
        n_trapped = _stage(_trapped_number_column, _stage(_kb_column, n2_cm2), t_k,
                           _stage(_m_omega2_column, m_g, omega))
    except ZeroDivisionError:
        raise ZeroDivisionError(f"N2: m Omega_eff^2 underflows to 0 for 'm' = {m_g:g} g, "
                                f"'omega_eff' = {omega:g} s^-1") from None
    if not n_trapped < math.inf:
        raise range_error("N2 = 2 pi n2 kB T / (m Omega_eff^2)", n2=f"{n2_cm2:g} cm^-2",
                          temperature=f"{t_k:g} K", omega_eff=f"{omega:g} s^-1", m=f"{m_g:g} g")
    return n_trapped


def condensate_fraction(temperature: Quantity, t_c: Quantity) -> float:
    """Ground-state share N0/N = max(0, 1 - (T/T_c)^2); clamps above T_c."""
    t_k = magnitude_in_cgs(temperature, TEMPERATURE, "temperature")
    t_c_k = magnitude_in_cgs(t_c, TEMPERATURE, "t_c")
    if not t_k >= 0:  # written so that a NaN fails too
        raise ValueError("temperature must be non-negative")
    if not t_c_k > 0:
        raise ValueError("t_c must be positive")
    try:
        return _stage(_condensate_fraction_column, t_k, t_c_k)
    except OverflowError:
        raise OverflowError(f"condensate fraction: (T/T_c)^2 overflows for 'T' = {t_k:g} K, "
                            f"T_c = {t_c_k:g} K") from None


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
                  "t_kt": TEMPERATURE}
    return CondensationReport(**{
        **lad._asdict(),
        **{name: Quantity(getattr(lad, name), dim) for name, dim in quantities.items()},
        "mu": Quantity(lad.mu * MEV_ERG, ENERGY),
        "temperature": state.temperature,
        "m_eff": state.m_eff,
        "n2": Quantity(lad.n2, AREA_DENSITY) if lad.n2_estimated else state.n2,
        "n3": state.n3,
        "omega_eff": None if trap is None else trap.omega_eff,
        "t_c": None if lad.t_c is None else Quantity(lad.t_c, TEMPERATURE),
        "notes": ladder_notes(lad),
    })
