"""The polariton branches, their Hopfield fractions and the lower-branch well.

cgs float cores of the mode problem set out in the dispersion module's
docstring: the closed-form branch energies and Hopfield fractions, the
photon energies, the sampled k_par grid with its checks, and the well root.
They take floats or numpy arrays; each that needs numpy imports it when
called.  As polbec.core, this module holds only what polbec.cli reaches.
Only the curve commands (dispersion, hopfield and their sweeps) and
polbec.dispersion load it, so a scalar command neither loads nor compiles
it.
"""

from __future__ import annotations

import math
import sys
import warnings

from .core import C_CGS, EV_ERG, HBAR_CGS

__all__ = [
    "DEFAULT_PARAXIAL_BOUND", "GridSizeError", "NoWellError", "ParaxialBoundWarning",
    "branch_energies", "hopfield_fractions", "photon_paraxial_erg", "photon_freespace_erg",
    "sample_dispersion_cgs", "well_geometry_cgs",
]

# k_par <= 0.2 k_perp keeps the quadratic truncation error below (0.2)^4/8 ~ 2e-4.
DEFAULT_PARAXIAL_BOUND = 0.2


class GridSizeError(ValueError):
    """A k_par grid of more samples than memory holds; the message names the
    count as `name`, which a front end sets to its own option."""

    def __init__(self, n_samples: int, name: str = "n_samples"):
        super().__init__(f"{name} {n_samples}: the k_par grid does not fit in memory")


class NoWellError(RuntimeError):
    """The lower branch has no inflection inside the search window
    (weak coupling or detuning too large for a well)."""


class ParaxialBoundWarning(UserWarning):
    """k_par beyond the declared paraxial validity bound."""


def _check_grid(n_samples: int, k_max_frac: float) -> None:
    """Value checks of GridSpec."""
    if n_samples < 2:
        raise ValueError(f"grid needs at least 2 samples, got {n_samples}")
    if not k_max_frac > 0:
        raise ValueError(f"k_max_frac must be positive, got {k_max_frac}")


def _check_window(e_at: float, g: float, k_perp: float, k_max_frac: float) -> None:
    """The grid edge k_max_frac * k_perp, the paraxial photon energy there and
    twice the upper branch there (the sum branch_energies forms) stay in the
    float range; both energies grow with k_par, so then they do on the grid."""
    e_ph = photon_paraxial_erg(k_max_frac * k_perp, k_perp)
    if not math.isfinite(e_at + e_ph + math.hypot(e_at - e_ph, 2.0 * g)):
        raise OverflowError(
            f"kmax = {k_max_frac:g} puts the grid edge kmax * k_perp out of range: "
            f"the photon energy there overflows"
        )


def _check_increasing(k_par) -> None:
    """Value check of DispersionCurve, on an array."""
    import numpy as np
    if not np.all(np.diff(k_par) > 0):
        raise ValueError("k_par grid must be strictly increasing")


def branch_energies(e_at, e_ph, g):
    """Upper/lower branch energies of the 2x2 mode problem (closed form)."""
    import numpy as np
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
    import numpy as np
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
    import numpy as np
    return HBAR_CGS * C_CGS * np.hypot(k_perp, k_par)


def sample_dispersion_cgs(e_at: float, g: float, k_perp: float, n_samples: int = 101,
                          k_max_frac: float = DEFAULT_PARAXIAL_BOUND):
    """Both branches over a uniform k_par grid of n_samples points on
    [0, k_max_frac * k_perp], in one elementwise numpy pass, with the checks
    of GridSpec and DispersionCurve: the arrays (k_par, e_upper, e_lower,
    mu_sq, nu_sq, e_ph_paraxial), cgs.  A grid that does not fit in memory
    raises GridSizeError.  The free-space photon energy is left to the
    callers that use it (photon_freespace_erg).
    """
    import numpy as np
    if n_samples > sys.maxsize // 16:  # numpy cannot size it and raises a bare ValueError
        raise GridSizeError(n_samples)
    _check_grid(n_samples, k_max_frac)
    _check_window(e_at, g, k_perp, k_max_frac)
    if k_max_frac > DEFAULT_PARAXIAL_BOUND:
        warnings.warn(
            f"grid edge {k_max_frac:g} * k_perp exceeds the paraxial bound "
            f"{DEFAULT_PARAXIAL_BOUND:g} * k_perp",
            ParaxialBoundWarning,
            stacklevel=3,  # the caller of sample_dispersion
        )
    try:
        k = np.linspace(0.0, k_max_frac * k_perp, n_samples)
        _check_increasing(k)
        e_ph = photon_paraxial_erg(k, k_perp)
        e1, e2 = branch_energies(e_at, e_ph, g)
        # 4 g^2 overflows once g passes ~7e153 erg and leaves NaN fractions; the
        # check below reports that with g named, in place of numpy's warnings.
        # Far out of the window s + delta cancels to 0 in the branch np.where
        # discards, so that division is silenced too.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu2, nu2 = hopfield_fractions(e_at - e_ph, g)
        # vectorized sanity on the bosonic-weight normalization, NaN-aware
        norm_err = np.max(np.abs(mu2 + nu2 - 1.0))
    except MemoryError:
        raise GridSizeError(n_samples) from None
    if not norm_err <= 1e-12:
        detail = "not finite" if np.isnan(norm_err) else f"off by {norm_err:.3e}"
        raise ValueError(
            f"Hopfield normalization mu_sq + nu_sq = 1 fails ({detail}) "
            f"at 'g' = {g / EV_ERG:.6g} eV"
        )
    return k, e1, e2, mu2, nu2, e_ph


def well_geometry_cgs(e_at: float, g: float, k_perp: float, delta: float,
                      paraxial_bound: float = DEFAULT_PARAXIAL_BOUND,
                      length: float | None = None, beam_diameter: float | None = None):
    """(inflection_k, depth, angular_halfwidth, diffraction_limit,
    diffraction_ok) of well_geometry, cgs; the last two are None without a
    beam_diameter, and phi = beam_diameter / length otherwise.
    """
    k_edge = paraxial_bound * k_perp

    r = delta / g
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

    e_lower = [branch_energies(e_at, photon_paraxial_erg(k, k_perp), g)[1] for k in (0.0, k_edge)]
    depth = e_lower[1] - e_lower[0]
    if not (inflection < k_edge and depth > 0.0):
        raise NoWellError(
            "no inflection of the lower branch inside the paraxial window "
            "(weak coupling or |Delta| too large)"
        )
    phi = ok = None
    if beam_diameter is not None:
        phi = beam_diameter / length
        ok = inflection / k_perp > phi
    return inflection, float(depth), inflection / k_perp, phi, ok
