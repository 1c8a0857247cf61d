"""Independent eigen-oracle for the single-mode problem [[E_ph, g], [g, E_at]].

A verification path only: it solves the matrix through the quadratic
formula and an eigenvector, and shares no arithmetic with the closed forms
in polbec.branches (branch_energies, hopfield_fractions) that the operations
of polbec.dispersion wrap.
"""

import numpy as np

from polbec.dispersion import BranchPoint, ModeProblem
from polbec.units import ENERGY, Quantity


def oracle_branch_arrays(e_at, e_ph, g):
    """Eigenvalues (upper, lower) and eigenvector weights (photon, atom).

    Quadratic formula with stable root ordering (smaller root through the
    determinant), eigenvector taken from the better-conditioned matrix row,
    then normalized.
    """
    e_at = np.asarray(e_at, dtype=float)
    e_ph = np.asarray(e_ph, dtype=float)
    g = np.asarray(g, dtype=float)
    trace = e_ph + e_at
    disc = np.sqrt((e_ph - e_at) ** 2 + 4.0 * g * g)
    lam_hi = 0.5 * (trace + disc)
    lam_lo = (e_ph * e_at - g * g) / lam_hi
    atom_above = e_at >= e_ph
    v_ph = np.where(atom_above, g, lam_hi - e_at)
    v_at = np.where(atom_above, lam_hi - e_ph, g)
    norm_sq = v_ph * v_ph + v_at * v_at
    return lam_hi, lam_lo, v_ph * v_ph / norm_sq, v_at * v_at / norm_sq


def oracle_diagonalize(prob: ModeProblem) -> BranchPoint:
    """Brute-force eigen-solution of one mode problem."""
    e1, e2, mu2, nu2 = oracle_branch_arrays(
        prob.transition_energy.cgs, prob.photon_energy.cgs, prob.g.cgs
    )
    return BranchPoint(
        k_par=None,
        e_upper=Quantity(float(e1), ENERGY),
        e_lower=Quantity(float(e2), ENERGY),
        mu_sq=float(mu2),
        nu_sq=float(nu2),
    )
