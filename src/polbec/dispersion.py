"""Polariton branch energies, Hopfield composition, and lower-branch well geometry.

The single-mode problem is the real symmetric 2x2 matrix

    [[E_ph, g],
     [g,  E_at]]

whose eigenvalues are the upper/lower branch energies

    E_{1,2} = (E_at + E_ph)/2 +/- sqrt(delta^2 + 4 g^2)/2,   delta = E_at - E_ph,

and whose normalized eigenvector weights are the Hopfield fractions
mu^2 (photon share of the upper branch) and nu^2 = 1 - mu^2.  The closed
forms are evaluated in a cancellation-free arrangement so both fractions
keep full relative accuracy at any detuning sign.  The tests check them
against an eigen-oracle (tests/eigen_oracle.py) that solves the same matrix
through an independent quadratic-formula / eigenvector route and shares no
arithmetic with the closed forms.

Photons in the resonator carry E_ph(k) = hbar*c*sqrt(k_perp^2 + k_par^2);
the paraxial form truncates this at hbar*c*(k_perp + k_par^2/(2 k_perp)),
valid for k_par << k_perp.

The closed forms, the grid sampling and the well root are cgs float cores
in polbec.branches, which the CLI calls too; this module wraps them in the
dimension-checked Quantity operations and their result dataclasses.  The
two operations that no command runs, photon_energy_paraxial with its
bound warning and diagonalize_mode, call the closed forms themselves.  It
loads no numpy itself: the cores import it when a curve is sampled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _SUBMODULE_NAMES
from .branches import (
    DEFAULT_PARAXIAL_BOUND,
    NoWellError,
    ParaxialBoundWarning,
    _check_grid,
    _check_increasing,
    branch_energies,
    hopfield_fractions,
    photon_freespace_erg,
    photon_paraxial_erg,
    sample_dispersion_cgs,
    well_geometry_cgs,
)
from .coupling import CavityParams, CouplingParams
from .units import ENERGY, Quantity, WAVENUMBER, magnitude_in_cgs

if TYPE_CHECKING:
    import numpy as np

__all__ = list(_SUBMODULE_NAMES["dispersion"])


@dataclass(frozen=True)
class ModeProblem:
    """Single-mode diagonalization input: atomic energy, photon energy, coupling."""

    transition_energy: Quantity   # E_at
    photon_energy: Quantity       # E_ph at the k of interest
    g: Quantity

    def __post_init__(self) -> None:
        energies = {name: magnitude_in_cgs(getattr(self, name), ENERGY, name)
                    for name in ("transition_energy", "photon_energy", "g")}
        for name, value in energies.items():
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")

    @property
    def delta(self) -> Quantity:
        """Phase mismatch delta = E_at - E_ph."""
        return self.transition_energy - self.photon_energy


@dataclass(frozen=True)
class BranchPoint:
    """Branch energies and Hopfield fractions, optionally at a given k_par."""

    k_par: Quantity | None
    e_upper: Quantity
    e_lower: Quantity
    mu_sq: float   # photon fraction of the upper branch
    nu_sq: float   # atomic fraction of the upper branch (= photon fraction of the lower)

    def __post_init__(self) -> None:
        if self.e_upper.cgs < self.e_lower.cgs:
            raise ValueError("branch ordering violated: e_upper < e_lower")
        for name, w in (("mu_sq", self.mu_sq), ("nu_sq", self.nu_sq)):
            if not 0.0 <= w <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {w}")
        if abs(self.mu_sq + self.nu_sq - 1.0) > 1e-12:
            raise ValueError(
                f"Hopfield normalization violated: mu_sq + nu_sq = {self.mu_sq + self.nu_sq}"
            )


@dataclass(frozen=True)
class GridSpec:
    """Uniform k_par grid over [0, k_max_frac * k_perp]."""

    n_samples: int = 101
    k_max_frac: float = DEFAULT_PARAXIAL_BOUND

    def __post_init__(self) -> None:
        _check_grid(self.n_samples, self.k_max_frac)


@dataclass(frozen=True)
class DispersionCurve:
    """Sampled polariton branches (cgs arrays) plus the defining parameters.

    Arrays are ordered by strictly increasing k_par.  Photon reference
    columns carry both the paraxial form and the exact free-space relation
    E = hbar*c*|k| with |k| = sqrt(k_perp^2 + k_par^2).
    """

    k_par: np.ndarray           # cm^-1
    e_upper: np.ndarray         # erg
    e_lower: np.ndarray         # erg
    mu_sq: np.ndarray
    nu_sq: np.ndarray
    e_ph_paraxial: np.ndarray   # erg
    e_ph_freespace: np.ndarray  # erg
    coupling: CouplingParams
    transition_energy: Quantity
    grid: GridSpec

    def __post_init__(self) -> None:
        _check_increasing(self.k_par)

    def __len__(self) -> int:
        return len(self.k_par)

    @property
    def points(self) -> tuple[BranchPoint, ...]:
        return tuple(
            BranchPoint(
                k_par=Quantity(float(k), WAVENUMBER),
                e_upper=Quantity(float(e1), ENERGY),
                e_lower=Quantity(float(e2), ENERGY),
                mu_sq=float(m2),
                nu_sq=float(n2),
            )
            for k, e1, e2, m2, n2 in zip(
                self.k_par, self.e_upper, self.e_lower, self.mu_sq, self.nu_sq
            )
        )


@dataclass(frozen=True)
class WellGeometry:
    """Lower-branch well: inflection half-width in k, energy depth at the
    paraxial window edge, and the angular scales."""

    inflection_k: Quantity            # cm^-1, root of d2 E_lower / d k_par^2
    depth: Quantity                   # E_lower(window edge) - E_lower(0)
    angular_halfwidth: float          # inflection_k / k_perp, rad
    diffraction_limit: float | None   # phi = d_beam / L_cav, rad
    diffraction_ok: bool | None       # angular_halfwidth > phi

    def __post_init__(self) -> None:
        if not self.inflection_k.cgs > 0:
            raise ValueError("inflection_k must be positive")
        if not self.depth.cgs > 0:
            raise ValueError("well depth must be positive")


def photon_energy_paraxial(
    k_par: Quantity,
    coupling: CouplingParams,
    paraxial_bound: float = DEFAULT_PARAXIAL_BOUND,
) -> Quantity:
    """Resonator photon energy in the paraxial (quadratic) approximation.

    Emits a ParaxialBoundWarning, not an error, when |k_par| exceeds
    paraxial_bound * k_perp.
    """
    k = magnitude_in_cgs(k_par, WAVENUMBER, "k_par")
    k_perp = coupling.k_perp.cgs
    if abs(k) > paraxial_bound * k_perp:
        warnings.warn(
            f"|k_par| = {abs(k):.3e} cm^-1 exceeds the paraxial bound "
            f"{paraxial_bound:g} * k_perp = {paraxial_bound * k_perp:.3e} cm^-1",
            ParaxialBoundWarning,
            stacklevel=2,  # the caller of photon_energy_paraxial
        )
    return Quantity(float(photon_paraxial_erg(k, k_perp)), ENERGY)


def photon_energy_freespace(k_par: Quantity, coupling: CouplingParams) -> Quantity:
    """Exact photon energy hbar*c*sqrt(k_perp^2 + k_par^2)."""
    k = magnitude_in_cgs(k_par, WAVENUMBER, "k_par")
    return Quantity(float(photon_freespace_erg(k, coupling.k_perp.cgs)), ENERGY)


def diagonalize_mode(prob: ModeProblem) -> BranchPoint:
    """Branch energies and Hopfield fractions for one mode problem (closed form)."""
    e_at, e_ph, g = prob.transition_energy.cgs, prob.photon_energy.cgs, prob.g.cgs
    e1, e2 = branch_energies(e_at, e_ph, g)
    mu2, nu2 = hopfield_fractions(e_at - e_ph, g)
    return BranchPoint(k_par=None, e_upper=Quantity(float(e1), ENERGY),
                       e_lower=Quantity(float(e2), ENERGY), mu_sq=float(mu2), nu_sq=float(nu2))


def sample_dispersion(
    coupling: CouplingParams,
    transition_energy: Quantity,
    grid: GridSpec = GridSpec(),
    workers: int = 1,
) -> DispersionCurve:
    """Sample both branches over a uniform k_par grid (sample_dispersion_cgs).

    ``workers`` is accepted for compatibility and ignored: evaluation is
    serial, so the arrays are identical for any value.
    """
    e_at = magnitude_in_cgs(transition_energy, ENERGY, "transition_energy")
    k_perp = coupling.k_perp.cgs
    k, *branches = sample_dispersion_cgs(e_at, coupling.g.cgs, k_perp, grid.n_samples,
                                         grid.k_max_frac)
    return DispersionCurve(
        k, *branches, photon_freespace_erg(k, k_perp),
        coupling=coupling,
        transition_energy=Quantity(e_at, ENERGY),
        grid=grid,
    )


def well_geometry(
    coupling: CouplingParams,
    transition_energy: Quantity,
    cavity: CavityParams | None = None,
    paraxial_bound: float = DEFAULT_PARAXIAL_BOUND,
) -> WellGeometry:
    """Locate the lower-branch well inflection and depth.

    The half-width is the exact root of E_lower'' = 0.  With
    u = hbar*c*k_par^2/(2 k_perp), v = u/g, w = Delta/g - v and
    s = sqrt(w^2 + 4) it solves s^2 (s + w) = 8 v.  The left side minus the
    right falls strictly with v, positive at 0 and negative at
    2|Delta/g| + 4, so that bracket is bisected down to adjacent floats
    (s + w is taken as 4/(s - w) for w < 0, free of cancellation).  Then
    k* = k_perp * sqrt(2 u / (hbar*c*k_perp)).  The depth is measured
    against E_lower at the paraxial window edge, because the quadratic
    photon dispersion itself is only valid inside that window.

    Raises NoWellError when k* is at or beyond paraxial_bound * k_perp
    (weak coupling or a detuning too large for a well-formed minimum), or
    when the depth is not positive in double precision (g below the
    rounding of E0).
    """
    inflection, depth, halfwidth, phi, ok = well_geometry_cgs(
        magnitude_in_cgs(transition_energy, ENERGY, "transition_energy"),
        coupling.g.cgs, coupling.k_perp.cgs, coupling.delta.cgs, paraxial_bound,
        None if cavity is None else cavity.length.cgs,
        None if cavity is None else cavity.beam_diameter.cgs,
    )
    return WellGeometry(Quantity(inflection, WAVENUMBER), Quantity(depth, ENERGY), halfwidth,
                        phi, ok)
