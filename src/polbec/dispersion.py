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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coupling import CavityParams, CouplingParams
from .units import (
    C_CGS,
    ENERGY,
    EV_ERG,
    HBAR_CGS,
    Quantity,
    WAVENUMBER,
    magnitude_in_cgs,
)

__all__ = [
    "ModeProblem",
    "BranchPoint",
    "GridSpec",
    "DispersionCurve",
    "WellGeometry",
    "NoWellError",
    "ParaxialBoundWarning",
    "branch_energies",
    "hopfield_fractions",
    "photon_energy_paraxial",
    "photon_energy_freespace",
    "diagonalize_mode",
    "sample_dispersion",
    "well_geometry",
    "DEFAULT_PARAXIAL_BOUND",
]

# k_par <= 0.2 k_perp keeps the quadratic truncation error below (0.2)^4/8 ~ 2e-4.
DEFAULT_PARAXIAL_BOUND = 0.2


class NoWellError(RuntimeError):
    """The lower branch has no inflection inside the search window
    (weak coupling or detuning too large for a well)."""


class ParaxialBoundWarning(UserWarning):
    """k_par beyond the declared paraxial validity bound."""


@dataclass(frozen=True)
class ModeProblem:
    """Single-mode diagonalization input: atomic energy, photon energy, coupling."""

    transition_energy: Quantity   # E_at
    photon_energy: Quantity       # E_ph at the k of interest
    g: Quantity

    def __post_init__(self) -> None:
        e_at = magnitude_in_cgs(self.transition_energy, ENERGY, "transition_energy")
        e_ph = magnitude_in_cgs(self.photon_energy, ENERGY, "photon_energy")
        g = magnitude_in_cgs(self.g, ENERGY, "g")
        if not e_at > 0:
            raise ValueError(f"transition_energy must be positive, got {e_at}")
        if not e_ph > 0:
            raise ValueError(f"photon_energy must be positive, got {e_ph}")
        if not g > 0:
            raise ValueError(f"g must be positive, got {g}")

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
        if self.n_samples < 2:
            raise ValueError(f"grid needs at least 2 samples, got {self.n_samples}")
        if not self.k_max_frac > 0:
            raise ValueError(f"k_max_frac must be positive, got {self.k_max_frac}")


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
        if not np.all(np.diff(self.k_par) > 0):
            raise ValueError("k_par grid must be strictly increasing")

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


# ---------------------------------------------------------------------------
# numeric cores (plain floats / numpy arrays, cgs magnitudes)
# ---------------------------------------------------------------------------

def branch_energies(e_at, e_ph, g):
    """Upper/lower branch energies of the 2x2 mode problem (closed form)."""
    s = np.hypot(e_at - e_ph, 2.0 * g)
    e1 = 0.5 * (e_at + e_ph + s)
    e2 = 0.5 * (e_at + e_ph - s)
    return e1, e2


def hopfield_fractions(delta, g):
    """Hopfield fractions (mu^2, nu^2) of the upper branch vs. mismatch delta.

    Evaluated on the cancellation-free side of each expression:
    mu^2 = (s - delta)/(2 s) = 4 g^2 / (2 s (s + delta)), s = sqrt(delta^2 + 4 g^2),
    so both fractions stay fully accurate for |delta| >> g of either sign.
    """
    delta = np.asarray(delta, dtype=float)
    g = np.asarray(g, dtype=float)
    s = np.hypot(delta, 2.0 * g)
    four_g2 = 4.0 * g * g
    nonneg = delta >= 0.0
    mu2 = np.where(nonneg, four_g2 / (2.0 * s * (s + delta)), (s - delta) / (2.0 * s))
    nu2 = np.where(nonneg, (s + delta) / (2.0 * s), four_g2 / (2.0 * s * (s - delta)))
    return mu2, nu2


def photon_paraxial_erg(k_par, k_perp):
    """hbar*c*(k_perp + k_par^2/(2 k_perp)), quadratic truncation."""
    return HBAR_CGS * C_CGS * (k_perp + k_par * k_par / (2.0 * k_perp))


def photon_freespace_erg(k_par, k_perp):
    """Exact relation hbar*c*sqrt(k_perp^2 + k_par^2)."""
    return HBAR_CGS * C_CGS * np.hypot(k_perp, k_par)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

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
            stacklevel=2,
        )
    return Quantity(float(photon_paraxial_erg(k, k_perp)), ENERGY)


def photon_energy_freespace(k_par: Quantity, coupling: CouplingParams) -> Quantity:
    """Exact photon energy hbar*c*sqrt(k_perp^2 + k_par^2)."""
    k = magnitude_in_cgs(k_par, WAVENUMBER, "k_par")
    return Quantity(float(photon_freespace_erg(k, coupling.k_perp.cgs)), ENERGY)


def diagonalize_mode(prob: ModeProblem) -> BranchPoint:
    """Branch energies and Hopfield fractions for one mode problem (closed form)."""
    e_at = prob.transition_energy.cgs
    e_ph = prob.photon_energy.cgs
    g = prob.g.cgs
    e1, e2 = branch_energies(e_at, e_ph, g)
    mu2, nu2 = hopfield_fractions(e_at - e_ph, g)
    return BranchPoint(
        k_par=None,
        e_upper=Quantity(float(e1), ENERGY),
        e_lower=Quantity(float(e2), ENERGY),
        mu_sq=float(mu2),
        nu_sq=float(nu2),
    )


def sample_dispersion(
    coupling: CouplingParams,
    transition_energy: Quantity,
    grid: GridSpec = GridSpec(),
    workers: int = 1,
) -> DispersionCurve:
    """Sample both branches over a uniform k_par grid.

    The grid is evaluated in one elementwise numpy pass.  ``workers`` is
    accepted for compatibility and ignored: evaluation is serial, so the
    arrays are identical for any value.
    """
    e_at = magnitude_in_cgs(transition_energy, ENERGY, "transition_energy")
    k_perp = coupling.k_perp.cgs
    g = coupling.g.cgs
    if grid.k_max_frac > DEFAULT_PARAXIAL_BOUND:
        warnings.warn(
            f"grid edge {grid.k_max_frac:g} * k_perp exceeds the paraxial bound "
            f"{DEFAULT_PARAXIAL_BOUND:g} * k_perp",
            ParaxialBoundWarning,
            stacklevel=2,
        )
    k = np.linspace(0.0, grid.k_max_frac * k_perp, grid.n_samples)
    e_ph = photon_paraxial_erg(k, k_perp)
    e1, e2 = branch_energies(e_at, e_ph, g)
    # 4 g^2 overflows once g passes ~7e153 erg and leaves NaN fractions; the
    # check below reports that with g named, in place of numpy's warnings.
    # Far out of the window s + delta cancels to 0 in the branch np.where
    # discards, so that division is silenced too.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mu2, nu2 = hopfield_fractions(e_at - e_ph, g)
    e_free = photon_freespace_erg(k, k_perp)

    # vectorized sanity on the bosonic-weight normalization, NaN-aware
    norm_err = np.max(np.abs(mu2 + nu2 - 1.0))
    if not norm_err <= 1e-12:
        detail = "not finite" if np.isnan(norm_err) else f"off by {norm_err:.3e}"
        raise ValueError(
            f"Hopfield normalization mu_sq + nu_sq = 1 fails ({detail}) "
            f"at 'g' = {g / EV_ERG:.6g} eV"
        )
    return DispersionCurve(
        k_par=k,
        e_upper=e1,
        e_lower=e2,
        mu_sq=mu2,
        nu_sq=nu2,
        e_ph_paraxial=e_ph,
        e_ph_freespace=e_free,
        coupling=coupling,
        transition_energy=Quantity(e_at, ENERGY),
        grid=grid,
    )


def _lower_branch_erg(k, e_at, k_perp, g):
    e_ph = photon_paraxial_erg(k, k_perp)
    return 0.5 * (e_at + e_ph - np.hypot(e_at - e_ph, 2.0 * g))


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
    e_at = magnitude_in_cgs(transition_energy, ENERGY, "transition_energy")
    k_perp = coupling.k_perp.cgs
    g = coupling.g.cgs
    k_edge = paraxial_bound * k_perp

    r = coupling.delta.cgs / g
    lo, hi = 0.0, 2.0 * abs(r) + 4.0
    v = 0.5 * hi
    while lo < v < hi:
        w = r - v
        s2 = w * w + 4.0
        s = math.sqrt(s2)
        if s2 * (s + w if w >= 0.0 else 4.0 / (s - w)) > 8.0 * v:
            lo = v
        else:
            hi = v
        v = 0.5 * (lo + hi)
    inflection = k_perp * math.sqrt(2.0 * v * g / (HBAR_CGS * C_CGS * k_perp))

    depth = _lower_branch_erg(k_edge, e_at, k_perp, g) - _lower_branch_erg(0.0, e_at, k_perp, g)
    if not (inflection < k_edge and depth > 0.0):
        raise NoWellError(
            "no inflection of the lower branch inside the paraxial window "
            "(weak coupling or |Delta| too large)"
        )
    phi = None
    ok = None
    if cavity is not None:
        phi = cavity.beam_diameter.cgs / cavity.length.cgs
        ok = inflection / k_perp > phi
    return WellGeometry(
        inflection_k=Quantity(inflection, WAVENUMBER),
        depth=Quantity(float(depth), ENERGY),
        angular_halfwidth=inflection / k_perp,
        diffraction_limit=phi,
        diffraction_ok=ok,
    )
