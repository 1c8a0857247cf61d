"""Strong-coupling regime test and field-matter coupling parameters.

The cooperative frequency omega_c = sqrt(2 pi d^2 omega0 n / hbar) is
evaluated in Gaussian units (dipole moment in esu*cm); the 2*pi prefactor
form of that expression is only dimensionally consistent in the Gaussian
convention, so SI inputs are converted at the Quantity layer before the
formula is touched.

The coupling energy g between field and a single atom is a direct user
input; no microscopic formula tying it to (d, n, omega0) is adopted here.

The formulas and value checks are cgs float cores that the CLI calls too:
the resonator coupling in polbec.core, the strong-coupling test in
polbec.regime, which of the commands only check-coupling loads.  This
module wraps them in the dimension-checked Quantity operations and their
parameter dataclasses, so both raise the same errors.
resonant_cavity_length, which no command runs, computes on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _SUBMODULE_NAMES
from .core import (
    C_CGS,
    EV_ERG,
    HBAR_CGS,
    _check_coupling,
    _require_mode_index,
    check_cavity,
    geometry_coupling_cgs,
    range_error,
    resonant_coupling_cgs,
)
from .regime import (
    DEFAULT_STRONG_THRESHOLD,
    CouplingRegime,
    _check_medium,
    _cooperative_frequency_cgs,
    strong_coupling_cgs,
)
from .units import (
    DIPOLE_MOMENT,
    ENERGY,
    FREQUENCY,
    LENGTH,
    Quantity,
    TIME,
    VOLUME_DENSITY,
    WAVENUMBER,
    magnitude_in_cgs,
)

__all__ = list(_SUBMODULE_NAMES["coupling"])


@dataclass(frozen=True)
class MediumParams:
    """Two-level atomic medium: transition energy E0, Gaussian dipole moment,
    3D number density, and coherence time."""

    transition_energy: Quantity   # E0, energy
    dipole_moment: Quantity       # d, esu*cm
    density: Quantity             # n3, cm^-3
    coherence_time: Quantity      # tau_coh, s

    def __post_init__(self) -> None:
        _check_medium(
            magnitude_in_cgs(self.transition_energy, ENERGY, "transition_energy"),
            magnitude_in_cgs(self.dipole_moment, DIPOLE_MOMENT, "dipole_moment"),
            magnitude_in_cgs(self.density, VOLUME_DENSITY, "density"),
            magnitude_in_cgs(self.coherence_time, TIME, "coherence_time"),
        )

    @property
    def transition_frequency(self) -> Quantity:
        """omega0 = E0 / hbar."""
        return Quantity(self.transition_energy.cgs / HBAR_CGS, FREQUENCY)


@dataclass(frozen=True)
class CavityParams:
    """Resonator geometry: effective length, longitudinal mode index, beam diameter."""

    length: Quantity           # L_cav
    mode_index: int            # m >= 1
    beam_diameter: Quantity    # d_beam

    def __post_init__(self) -> None:
        check_cavity(
            magnitude_in_cgs(self.length, LENGTH, "length"),
            self.mode_index,
            magnitude_in_cgs(self.beam_diameter, LENGTH, "beam_diameter"),
        )


@dataclass(frozen=True)
class CouplingParams:
    """Coupling energy g, quantised axial wavenumber k_perp, and detuning
    Delta = E0 - hbar*c*k_perp of the selected mode from the transition."""

    g: Quantity          # energy, > 0
    k_perp: Quantity     # cm^-1
    delta: Quantity      # energy, signed

    def __post_init__(self) -> None:
        _check_coupling(
            magnitude_in_cgs(self.g, ENERGY, "g"),
            magnitude_in_cgs(self.k_perp, WAVENUMBER, "k_perp"),
        )
        magnitude_in_cgs(self.delta, ENERGY, "delta")


@dataclass(frozen=True)
class StrongCouplingCheck:
    """Outcome of the strong-coupling inequality omega_c >> 1/(2 tau_coh)."""

    omega_c: Quantity            # cooperative frequency
    decoherence_rate: Quantity   # 1/(2 tau_coh)
    ratio: float                 # omega_c * 2 tau_coh
    threshold: float
    regime: CouplingRegime


def cooperative_frequency(medium: MediumParams) -> Quantity:
    """Cooperative frequency omega_c = sqrt(2 pi d^2 omega0 n / hbar).

    Scales as sqrt(n) and linearly in d.
    """
    return Quantity(_cooperative_frequency_cgs(
        medium.transition_energy.cgs, medium.dipole_moment.cgs, medium.density.cgs), FREQUENCY)


def is_strong_coupling(
    medium: MediumParams, threshold: float = DEFAULT_STRONG_THRESHOLD
) -> StrongCouplingCheck:
    """Classify the coupling regime.

    ratio = omega_c * 2 tau_coh; strong iff ratio > threshold, which must be
    positive and finite.
    """
    omega_c, rate, ratio, regime = strong_coupling_cgs(
        medium.transition_energy.cgs, medium.dipole_moment.cgs, medium.density.cgs,
        medium.coherence_time.cgs, threshold,
    )
    return StrongCouplingCheck(
        Quantity(omega_c, FREQUENCY), Quantity(rate, FREQUENCY), ratio, threshold, regime
    )


def coupling_from_geometry(
    transition_energy: Quantity, length: Quantity, mode_index: int, g: Quantity
) -> CouplingParams:
    """CouplingParams from the bare resonator geometry.

    k_perp = pi*m/L_cav, Delta = E0 - hbar*c*k_perp.
    """
    k_perp, delta = geometry_coupling_cgs(
        magnitude_in_cgs(transition_energy, ENERGY, "transition_energy"),
        magnitude_in_cgs(length, LENGTH, "length"),
        mode_index,
        magnitude_in_cgs(g, ENERGY, "g"),
    )
    return CouplingParams(g, Quantity(k_perp, WAVENUMBER), Quantity(delta, ENERGY))


def make_coupling(medium: MediumParams, cavity: CavityParams, g: Quantity) -> CouplingParams:
    """Coupling parameters for a given medium/cavity pair."""
    return coupling_from_geometry(medium.transition_energy, cavity.length, cavity.mode_index, g)


def resonant_cavity_length(medium: MediumParams, mode_index: int) -> Quantity:
    """Cavity length L = pi*m*hbar*c/E0 putting the selected mode on resonance
    (Delta = 0); equals half the transition wavelength times the mode index."""
    e0 = medium.transition_energy.cgs
    _require_mode_index(mode_index)
    length = math.pi * mode_index * HBAR_CGS * C_CGS / e0
    if length == math.inf:
        raise range_error("L = pi m hbar c / E0", E0=f"{e0 / EV_ERG:g} eV", mode_index=mode_index)
    return Quantity(length, LENGTH)


def resonant_coupling(transition_energy: Quantity, g: Quantity, detuning: Quantity | None = None) -> CouplingParams:
    """CouplingParams with an explicitly prescribed detuning.

    The detuning is stored exactly as given (Delta = 0 stays exactly zero)
    and k_perp = (E0 - Delta)/(hbar c) is derived, i.e. the resonator is
    assumed tuned to realise the requested Delta.
    """
    e0 = magnitude_in_cgs(transition_energy, ENERGY, "transition_energy")
    delta = 0.0 if detuning is None else magnitude_in_cgs(detuning, ENERGY, "detuning")
    k_perp = resonant_coupling_cgs(e0, magnitude_in_cgs(g, ENERGY, "g"), delta)
    return CouplingParams(g, Quantity(k_perp, WAVENUMBER), Quantity(delta, ENERGY))
