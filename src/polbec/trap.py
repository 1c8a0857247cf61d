"""Atomic-optical trap design: gradient-index photon confinement matched to
a magnetic atom trap.

A transverse index profile n^2(r) = n0^2 (1 - n' r^2) focuses the photon
component with the dimensionless potential U_opt(r) = n' r^2 / 2.  Mapping
that onto the harmonic trap U(r) = m_eff Omega_eff^2 r^2 / 2 requires an
explicit energy scale E_char (the bare relation n' = m_eff Omega_eff^2 is
dimensionally short by one energy): here

    n' = m_eff Omega_eff^2 / E_char,

with E_char defaulting to the transition energy, since the trapped object
is the paraxial photon of energy ~E0.  That assumption is printed into
every trap design.  The magnetic-trap frequency Omega_at for the atomic
component is carried as user input and echoed, never derived; no
constraint equation ties it to Omega_eff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .thermo import TRAP_BEC_ZETA
from .units import (
    CURVATURE,
    ENERGY,
    FREQUENCY,
    HBAR_CGS,
    KB_CGS,
    LENGTH,
    MASS,
    Quantity,
    TEMPERATURE,
    magnitude_in_cgs,
    range_error,
)

__all__ = [
    "LensProfile",
    "TrapDesign",
    "lens_for_omega",
    "omega_for_lens",
    "design_trap",
    "design_trap_cgs",
    "ENERGY_SCALE_NOTE",
]

ENERGY_SCALE_NOTE = (
    "optical potential normalization: n' = m_eff * omega_eff^2 / E_char, "
    "E_char defaulting to the transition energy of the trapped photon"
)

# keep the harmonic approximation honest: half the index-zero-crossing radius
_DEFAULT_R_MAX_FRAC = 0.5


@dataclass(frozen=True)
class LensProfile:
    """Gradient-index profile n^2(r) = n0^2 (1 - n' r^2), valid for r <= r_max."""

    n0: float
    n_prime: Quantity    # cm^-2
    r_max: Quantity      # cm

    def __post_init__(self) -> None:
        _check_lens(
            self.n0,
            magnitude_in_cgs(self.n_prime, CURVATURE, "n_prime"),
            magnitude_in_cgs(self.r_max, LENGTH, "r_max"),
        )

    def index_squared(self, r: Quantity) -> float:
        """n^2(r) at transverse radius r."""
        r_cm = magnitude_in_cgs(r, LENGTH, "r")
        return self.n0**2 * (1.0 - self.n_prime.cgs * r_cm * r_cm)

    def optical_potential(self, r: Quantity) -> float:
        """Dimensionless U_opt(r) = (n0^2 - n^2(r)) / (2 n0^2) = n' r^2 / 2."""
        r_cm = magnitude_in_cgs(r, LENGTH, "r")
        return 0.5 * self.n_prime.cgs * r_cm * r_cm


@dataclass(frozen=True)
class TrapDesign:
    """A lens profile with the trap frequencies and energy scale that produced it."""

    lens: LensProfile
    omega_eff: Quantity
    energy_scale: Quantity            # E_char
    omega_at: Quantity | None = None  # magnetic trap frequency (echoed input)
    assumption_note: str = ENERGY_SCALE_NOTE
    beam_fits_profile: bool | None = None  # 2*r_max >= beam diameter, when given

    def __post_init__(self) -> None:
        if not magnitude_in_cgs(self.omega_eff, FREQUENCY, "omega_eff") > 0:
            raise ValueError("omega_eff must be positive")


# ---------------------------------------------------------------------------
# numeric cores (cgs floats), which the operations below wrap and the CLI
# calls directly; value and range checks live here, naming the arguments
# ---------------------------------------------------------------------------

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


def _lens_cgs(omega: float, m: float, e_char: float, r_max_frac: float) -> tuple[float, float]:
    """(n', r_max) in cgs: n' = m_eff Omega^2 / E_char, r_max = r_max_frac / sqrt(n')."""
    if omega < 0 or not m > 0 or not e_char > 0:
        raise ValueError("omega_eff must be >= 0; m_eff and energy_scale positive")
    n_prime = m * omega * omega / e_char
    if not (0.0 < n_prime < math.inf or omega == 0.0):
        raise range_error("n' = m_eff Omega_eff^2 / E_char", omega_eff=f"{omega:g} s^-1",
                          m_eff=f"{m:g} g", energy_scale=f"{e_char:g} erg")
    r_max = math.inf if n_prime == 0.0 else r_max_frac / math.sqrt(n_prime)
    return n_prime, r_max


def _omega_for_lens_cgs(n_prime: float, m: float, e_char: float) -> float:
    """Omega_eff = sqrt(n' E_char / m_eff) in s^-1."""
    if not m > 0 or not e_char > 0:
        raise ValueError("m_eff and energy_scale must be positive")
    omega = math.sqrt(n_prime * e_char / m)
    if not (0.0 < omega < math.inf or n_prime == 0.0):
        raise range_error("Omega_eff = sqrt(n' E_char / m_eff)", n_prime=f"{n_prime:g} cm^-2",
                          m_eff=f"{m:g} g", energy_scale=f"{e_char:g} erg")
    return omega


def design_trap_cgs(
    t_c: float, n_particles: float, m: float, e_char: float, n0: float = 1.0,
    beam_diameter: float | None = None,
) -> tuple[float, float, float, bool | None]:
    """(Omega_eff, n', r_max, beam_fits_profile) in cgs for design_trap, with
    the checks of LensProfile."""
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


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def lens_for_omega(
    omega_eff: Quantity,
    m_eff: Quantity,
    energy_scale: Quantity,
    n0: float,
    r_max_frac: float = _DEFAULT_R_MAX_FRAC,
) -> LensProfile:
    """Gradient parameter realising a trap frequency: n' = m_eff Omega^2 / E_char.

    Omega_eff = 0 gives the flat (untrapped) profile.  r_max defaults to
    half the profile's zero-crossing radius 1/sqrt(n').
    """
    n_prime, r_max = _lens_cgs(
        magnitude_in_cgs(omega_eff, FREQUENCY, "omega_eff"),
        magnitude_in_cgs(m_eff, MASS, "m_eff"),
        magnitude_in_cgs(energy_scale, ENERGY, "energy_scale"),
        r_max_frac,
    )
    return LensProfile(n0, Quantity(n_prime, CURVATURE), Quantity(r_max, LENGTH))


def omega_for_lens(lens: LensProfile, m_eff: Quantity, energy_scale: Quantity) -> Quantity:
    """Exact inverse of lens_for_omega: Omega_eff = sqrt(n' E_char / m_eff)."""
    return Quantity(_omega_for_lens_cgs(
        lens.n_prime.cgs,
        magnitude_in_cgs(m_eff, MASS, "m_eff"),
        magnitude_in_cgs(energy_scale, ENERGY, "energy_scale"),
    ), FREQUENCY)


def design_trap(
    target_tc: Quantity,
    n_particles: float,
    m_eff: Quantity,
    energy_scale: Quantity,
    omega_at: Quantity | None = None,
    n0: float = 1.0,
    beam_diameter: Quantity | None = None,
) -> TrapDesign:
    """Trap design hitting a target condensation temperature for N particles.

    Inverts the particle-number form of the critical temperature,
    Omega_eff = kB T_c sqrt(1.645 / N) / hbar, then builds the index
    profile for that frequency.  When a beam diameter is given, the design
    records whether the harmonic region 2*r_max covers the beam.
    """
    omega, n_prime, r_max, fits = design_trap_cgs(
        magnitude_in_cgs(target_tc, TEMPERATURE, "target_tc"),
        n_particles,
        magnitude_in_cgs(m_eff, MASS, "m_eff"),
        magnitude_in_cgs(energy_scale, ENERGY, "energy_scale"),
        n0,
        None if beam_diameter is None else magnitude_in_cgs(beam_diameter, LENGTH, "beam_diameter"),
    )
    lens = LensProfile(n0, Quantity(n_prime, CURVATURE), Quantity(r_max, LENGTH))
    return TrapDesign(lens, Quantity(omega, FREQUENCY), energy_scale, omega_at,
                      beam_fits_profile=fits)
