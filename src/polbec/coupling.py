"""Strong-coupling regime test and field-matter coupling parameters.

The cooperative frequency omega_c = sqrt(2 pi d^2 omega0 n / hbar) is
evaluated in Gaussian units (dipole moment in esu*cm); the 2*pi prefactor
form of that expression is only dimensionally consistent in the Gaussian
convention, so SI inputs are converted at the Quantity layer before the
formula is touched.

The coupling energy g between field and a single atom is a direct user
input; no microscopic formula tying it to (d, n, omega0) is adopted here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .units import (
    C_CGS,
    DEBYE_ESU_CM,
    DIPOLE_MOMENT,
    ENERGY,
    EV_ERG,
    FREQUENCY,
    HBAR_CGS,
    LENGTH,
    Quantity,
    TIME,
    VOLUME_DENSITY,
    WAVENUMBER,
    magnitude_in_cgs,
    range_error,
)

__all__ = [
    "MediumParams",
    "CavityParams",
    "CouplingParams",
    "CouplingRegime",
    "StrongCouplingCheck",
    "cooperative_frequency",
    "is_strong_coupling",
    "coupling_from_geometry",
    "make_coupling",
    "resonant_cavity_length",
    "resonant_coupling",
    "check_cavity",
    "geometry_coupling_cgs",
    "resonant_coupling_cgs",
    "strong_coupling_cgs",
    "DEFAULT_STRONG_THRESHOLD",
]

# "much greater" margin for the strong-coupling inequality; not quantified
# by the model, so it is a configuration knob.
DEFAULT_STRONG_THRESHOLD = 10.0


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


class CouplingRegime(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class StrongCouplingCheck:
    """Outcome of the strong-coupling inequality omega_c >> 1/(2 tau_coh)."""

    omega_c: Quantity            # cooperative frequency
    decoherence_rate: Quantity   # 1/(2 tau_coh)
    ratio: float                 # omega_c * 2 tau_coh
    threshold: float
    regime: CouplingRegime


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
    the checks of MediumParams; strong iff ratio = omega_c * 2 tau_coh > threshold."""
    _check_medium(e0, d, n3, tau)
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

    ratio = omega_c * 2 tau_coh; strong iff ratio > threshold.
    """
    omega_c, rate, ratio, regime = strong_coupling_cgs(
        medium.transition_energy.cgs, medium.dipole_moment.cgs, medium.density.cgs,
        medium.coherence_time.cgs, threshold,
    )
    return StrongCouplingCheck(
        Quantity(omega_c, FREQUENCY), Quantity(rate, FREQUENCY), ratio, threshold, regime
    )


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


def _resonant_length_cgs(e0: float, mode_index: int) -> float:
    """L = pi*m*hbar*c/E0 in cm for a checked E0."""
    _require_mode_index(mode_index)
    length = math.pi * mode_index * HBAR_CGS * C_CGS / e0
    if length == math.inf:
        raise range_error("L = pi m hbar c / E0", E0=f"{e0 / EV_ERG:g} eV", mode_index=mode_index)
    return length


def resonant_cavity_length(medium: MediumParams, mode_index: int) -> Quantity:
    """Cavity length L = pi*m*hbar*c/E0 putting the selected mode on resonance
    (Delta = 0); equals half the transition wavelength times the mode index."""
    return Quantity(_resonant_length_cgs(medium.transition_energy.cgs, mode_index), LENGTH)


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
