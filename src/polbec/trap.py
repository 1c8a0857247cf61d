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
component is carried as user input, checked to be a non-negative
frequency and echoed, never derived; no constraint equation ties it to
Omega_eff.

The design, the lens and their checks are cgs float cores in polbec.lens,
which the CLI's trap command calls too; this module wraps them in the dimension-checked
Quantity operations and the lens and design dataclasses, so both raise the
same errors.  omega_for_lens, which no command runs, computes on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _SUBMODULE_NAMES
from .core import range_error
from .lens import (
    ENERGY_SCALE_NOTE,
    _DEFAULT_R_MAX_FRAC,
    _check_lens,
    _check_mass_and_scale,
    _lens_cgs,
    design_trap_cgs,
)
from .units import (
    CURVATURE,
    ENERGY,
    FREQUENCY,
    LENGTH,
    MASS,
    Quantity,
    TEMPERATURE,
    magnitude_in_cgs,
)

__all__ = list(_SUBMODULE_NAMES["trap"])


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
        if self.omega_at is not None:
            omega_at = magnitude_in_cgs(self.omega_at, FREQUENCY, "omega_at")
            if not omega_at >= 0:  # and False for NaN
                raise ValueError(f"omega_at must be non-negative, got {omega_at}")


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
    n_prime = lens.n_prime.cgs
    m = magnitude_in_cgs(m_eff, MASS, "m_eff")
    e_char = magnitude_in_cgs(energy_scale, ENERGY, "energy_scale")
    _check_mass_and_scale(m, e_char)
    omega = math.sqrt(n_prime * e_char / m)
    # 0 only for the flat lens; NaN (0 * inf) for it with an infinite E_char
    if not (0.0 < omega < math.inf or omega == 0.0 == n_prime):
        raise range_error("Omega_eff = sqrt(n' E_char / m_eff)", n_prime=f"{n_prime:g} cm^-2",
                          m_eff=f"{m:g} g", energy_scale=f"{e_char:g} erg")
    return Quantity(omega, FREQUENCY)


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
