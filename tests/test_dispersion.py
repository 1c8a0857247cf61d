import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polbec.branches import branch_energies, hopfield_fractions, sample_dispersion_cgs
from polbec.core import C_CGS, EV_ERG, HBAR_CGS
from polbec.coupling import resonant_coupling
from polbec.dispersion import (
    BranchPoint,
    GridSpec,
    ModeProblem,
    NoWellError,
    ParaxialBoundWarning,
    WellGeometry,
    diagonalize_mode,
    photon_energy_freespace,
    photon_energy_paraxial,
    sample_dispersion,
    well_geometry,
)
from polbec.units import ENERGY, Quantity, qty

from eigen_oracle import oracle_branch_arrays, oracle_diagonalize

E_AT = st.floats(min_value=0.5, max_value=3.0)
E_PH = st.floats(min_value=0.5, max_value=3.0)
G = st.floats(min_value=1e-3, max_value=0.3)

# exact Delta = 0 inflection: 3u^4 + 24 g^2 u^2 - 16 g^4 = 0 gives
# u*/g = sqrt((8 sqrt(3) - 12)/3) = 0.7866397863806571
U_STAR_OVER_G = math.sqrt((8 * math.sqrt(3) - 12) / 3)


def mode(e_at, e_ph, g):
    return ModeProblem(qty(e_at, "eV"), qty(e_ph, "eV"), qty(g, "eV"))


class TestPhotonDispersion:
    def test_k_zero(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        e = photon_energy_paraxial(qty(0.0, "cm^-1"), cp)
        assert e.cgs == pytest.approx(HBAR_CGS * C_CGS * cp.k_perp.cgs, rel=1e-15)

    def test_quadratic_term(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        k = Quantity(0.1 * cp.k_perp.cgs, qty(1, "cm^-1").dimension)
        e = photon_energy_paraxial(k, cp)
        e0 = HBAR_CGS * C_CGS * cp.k_perp.cgs
        assert e.cgs == pytest.approx(e0 * 1.005, rel=1e-14)

    def test_truncation_error_at_tenth(self):
        # (1 + 0.005)/sqrt(1.01) - 1, frozen from mpmath
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        k = Quantity(0.1 * cp.k_perp.cgs, qty(1, "cm^-1").dimension)
        par = photon_energy_paraxial(k, cp).cgs
        exact = photon_energy_freespace(k, cp).cgs
        rel = (par - exact) / exact
        assert rel == pytest.approx(1.23761610391e-5, rel=1e-8)

    def test_truncation_bound_on_grid(self):
        # paraxial - exact <= (k/k_perp)^4 / 8, relative
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        k_perp = cp.k_perp.cgs
        for frac in np.linspace(0.01, 0.2, 25):
            k = Quantity(frac * k_perp, qty(1, "cm^-1").dimension)
            par = photon_energy_paraxial(k, cp).cgs
            exact = photon_energy_freespace(k, cp).cgs
            assert 0 <= (par - exact) / exact <= frac**4 / 8

    def test_warns_beyond_bound(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        k = Quantity(0.3 * cp.k_perp.cgs, qty(1, "cm^-1").dimension)
        with pytest.warns(ParaxialBoundWarning) as record:
            photon_energy_paraxial(k, cp)
        assert record[0].filename == __file__  # it points at the caller


class TestDiagonalize:
    def test_resonance_half_half(self):
        bp = diagonalize_mode(mode(2.0, 2.0, 0.001))
        assert bp.mu_sq == 0.5
        assert bp.nu_sq == 0.5
        assert bp.e_upper.in_unit("eV") == pytest.approx(2.001, rel=1e-15)
        assert bp.e_lower.in_unit("eV") == pytest.approx(1.999, rel=1e-15)

    def test_unit_triple(self):
        # E_at = 2, E_ph = 1, g = 1: eigenvalues (3 +/- sqrt(5))/2
        bp = diagonalize_mode(mode(2.0, 1.0, 1.0))
        assert bp.e_upper.in_unit("eV") == pytest.approx(2.618033988749895, rel=1e-14)
        assert bp.e_lower.in_unit("eV") == pytest.approx(0.3819660112501051, rel=1e-14)
        prod = bp.e_upper.in_unit("eV") * bp.e_lower.in_unit("eV")
        assert prod == pytest.approx(2.0 * 1.0 - 1.0**2, rel=1e-12)

    def test_delta_three_g(self):
        bp = diagonalize_mode(mode(2.0 + 3e-3, 2.0, 1e-3))
        assert bp.nu_sq == pytest.approx(0.91602514716892, rel=1e-9)
        assert bp.mu_sq == pytest.approx(0.083974852831078, rel=1e-9)

    def test_photonlike_limit(self):
        # delta -> -inf: upper branch pure photon, mu^2 -> 1
        bp = diagonalize_mode(mode(1.0, 2.0, 1e-6))
        assert bp.mu_sq > 1 - 1e-10
        assert bp.nu_sq < 1e-10

    def test_asymptotic_thousand(self):
        m1 = diagonalize_mode(mode(1.0, 1.0 + 1000e-3, 1e-3))   # delta/g = -1e3
        assert m1.mu_sq > 0.999999
        m2 = diagonalize_mode(mode(1.0 + 1000e-3, 1.0, 1e-3))   # delta/g = +1e3
        assert m2.nu_sq > 0.999999

    @given(E_AT, E_PH, G)
    def test_invariants(self, e_at, e_ph, g):
        bp = diagonalize_mode(mode(e_at, e_ph, g))
        e1, e2 = bp.e_upper.in_unit("eV"), bp.e_lower.in_unit("eV")
        # normalization (the testable content of the bosonic commutators)
        assert abs(bp.mu_sq + bp.nu_sq - 1.0) <= 1e-12
        # trace and determinant identities
        assert e1 + e2 == pytest.approx(e_at + e_ph, rel=1e-10)
        assert e1 * e2 == pytest.approx(e_at * e_ph - g * g, rel=1e-10)
        # gap law
        gap = e1 - e2
        assert gap == pytest.approx(math.hypot(e_at - e_ph, 2 * g), rel=1e-12)
        assert gap >= 2 * g * (1 - 1e-12)

    def test_gap_equality_iff_resonant(self):
        bp = diagonalize_mode(mode(2.0, 2.0, 1e-3))
        assert bp.e_upper.in_unit("eV") - bp.e_lower.in_unit("eV") == pytest.approx(
            2e-3, rel=1e-12
        )
        bp = diagonalize_mode(mode(2.0, 1.9, 1e-3))
        assert bp.e_upper.cgs - bp.e_lower.cgs > 2 * qty(1e-3, "eV").cgs


class TestOracle:
    @given(E_AT, E_PH, G)
    def test_matches_closed_form(self, e_at, e_ph, g):
        closed = diagonalize_mode(mode(e_at, e_ph, g))
        oracle = oracle_diagonalize(mode(e_at, e_ph, g))
        assert closed.e_upper.cgs == pytest.approx(oracle.e_upper.cgs, rel=1e-10)
        assert closed.e_lower.cgs == pytest.approx(oracle.e_lower.cgs, rel=1e-10)
        assert closed.mu_sq == pytest.approx(oracle.mu_sq, rel=1e-10)
        assert closed.nu_sq == pytest.approx(oracle.nu_sq, rel=1e-10)

    def test_vectorized_sweep(self):
        rng = np.random.default_rng(20240811)
        n = 200_000
        e_at = rng.uniform(0.5, 3.0, n)
        e_ph = rng.uniform(0.5, 3.0, n)
        g = rng.uniform(1e-3, 0.3, n)
        e1, e2 = branch_energies(e_at, e_ph, g)
        mu2, nu2 = hopfield_fractions(e_at - e_ph, g)
        o1, o2, om, on = oracle_branch_arrays(e_at, e_ph, g)
        for a, b in ((e1, o1), (e2, o2), (mu2, om), (nu2, on)):
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-10

    def test_diagonal_identity_small_g(self):
        # g -> 0: eigenvalues approach {E_at, E_ph}, weights approach {0, 1}
        bp = oracle_diagonalize(mode(2.0, 1.0, 1e-12))
        assert bp.e_upper.in_unit("eV") == pytest.approx(2.0, rel=1e-12)
        assert bp.e_lower.in_unit("eV") == pytest.approx(1.0, rel=1e-12)
        assert bp.mu_sq == pytest.approx(0.0, abs=1e-20)
        assert bp.nu_sq == pytest.approx(1.0, rel=1e-15)
        bp = oracle_diagonalize(mode(1.0, 2.0, 1e-12))
        assert bp.mu_sq == pytest.approx(1.0, rel=1e-15)

    @given(E_AT, E_PH, G)
    def test_swap_symmetry(self, e_at, e_ph, g):
        a = oracle_diagonalize(mode(e_at, e_ph, g))
        b = oracle_diagonalize(mode(e_ph, e_at, g))
        assert a.e_upper.cgs == pytest.approx(b.e_upper.cgs, rel=1e-14)
        assert a.e_lower.cgs == pytest.approx(b.e_lower.cgs, rel=1e-14)
        assert a.mu_sq == pytest.approx(b.nu_sq, rel=1e-12, abs=1e-15)
        assert a.nu_sq == pytest.approx(b.mu_sq, rel=1e-12, abs=1e-15)


# delta/g of either sign up to 1e12 in magnitude, the zeros included, and g
# in erg from 1e-150 to 1, so 4 g^2 and the fractions' products stay normal
DELTA_OVER_G = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e12, 1e12),
    st.builds(lambda u, sign: sign * math.exp(u),
              st.floats(math.log(1e-12), math.log(1e12)), st.sampled_from([1.0, -1.0])),
)
G_ERG = st.floats(math.log(1e-150), 0.0).map(math.exp)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(ratio=DELTA_OVER_G, g=G_ERG)
@example(ratio=-1e12, g=1e-150)
@example(ratio=1e12, g=1.0)
@example(ratio=-0.0, g=1e-150)
def test_hopfield_fractions_match_mpmath_at_extreme_ratios(ratio, g):
    # TestDiagonalize and TestOracle draw g in [1e-3, 0.3] eV alone, |delta| <= 2.5 eV
    delta = ratio * g
    mu2, nu2 = hopfield_fractions(delta, g)
    with mp.workdps(40):
        d = mp.mpf(delta)
        s = mp.sqrt(d * d + 4 * mp.mpf(g) ** 2)
        exact = ((s - d) / (2 * s), (s + d) / (2 * s))
    for value, reference in zip((mu2, nu2), exact):
        assert abs(float(value) - reference) <= 1e-12 * reference


def sampled(delta_over_g: float, g: float, n_samples: int = 2001):
    """sample_dispersion_cgs on a 2.104 eV transition whose k_par = 0 mismatch
    E_at - E_ph is delta_over_g * g, g in erg."""
    e_at = 2.104 * EV_ERG
    k_perp = (e_at - delta_over_g * g) / (HBAR_CGS * C_CGS)
    return e_at, sample_dispersion_cgs(e_at, g, k_perp, n_samples)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("delta_over_g, g", [
    *((ratio, 1e-3 * EV_ERG) for ratio in (-20.0, -1.0, 0.0, 1.0, 20.0)),
    (0.0, 1e153),  # 2 s (s + |delta|) ~ 8e306, an overflow away from the check below
])
def test_sampled_columns_are_the_closed_forms_bit_for_bit(delta_over_g, g):
    # the sampler's branch and Hopfield columns are what the public closed
    # forms give on its own photon energies, with no operation reordered
    e_at, (_, e1, e2, mu2, nu2, e_ph) = sampled(delta_over_g, g)
    for column, closed in zip((e1, e2, mu2, nu2),
                              (*branch_energies(e_at, e_ph, g), *hopfield_fractions(e_at - e_ph, g))):
        assert np.array_equal(column, closed)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("g, detail", [
    (5e153, "off by 5.000e-01"),  # 4 g^2 is finite, 2 s (s + |delta|) is not
    (1e154, "not finite"),        # 4 g^2 overflows too
])
def test_normalization_check_names_g_where_the_fractions_overflow(g, detail):
    with pytest.raises(ValueError) as info:
        sampled(0.0, g, 101)
    assert str(info.value) == (f"Hopfield normalization mu_sq + nu_sq = 1 fails ({detail}) "
                               f"at 'g' = {g / EV_ERG:.6g} eV")


class TestSampleDispersion:
    def test_resonant_gap_at_origin(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        curve = sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=11))
        gap = curve.e_upper[0] - curve.e_lower[0]
        assert gap == pytest.approx(2 * cp.g.cgs, rel=1e-12)
        assert curve.mu_sq[0] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("delta_mev", [0.0, -2.0, -8.0])
    def test_lower_branch_monotone_for_nonpositive_delta(self, delta_mev):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"), qty(delta_mev, "meV"))
        curve = sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=501))
        assert np.all(np.diff(curve.e_lower) >= 0)

    @pytest.mark.parametrize("n_samples", [2**60, 10**20])
    def test_grid_past_memory_names_the_sample_count(self, n_samples):
        # numpy cannot size either grid, so nothing is allocated; it raised
        # "array is too big" or "Maximum allowed size exceeded", naming nothing
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        with pytest.raises(ValueError) as info:
            sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=n_samples))
        assert str(info.value) == f"n_samples {n_samples}: the k_par grid does not fit in memory"

    def test_worker_counts_identical(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"), qty(1.0, "meV"))
        curves = [
            sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=101), workers=w)
            for w in (1, 2, 4, 7)
        ]
        for c in curves[1:]:
            assert np.array_equal(c.e_upper, curves[0].e_upper)
            assert np.array_equal(c.e_lower, curves[0].e_lower)
            assert np.array_equal(c.mu_sq, curves[0].mu_sq)

    def test_anticrossing_shape(self):
        # at Delta = 0: E_lower stays below both bare energies and approaches
        # E_at from below; E_upper tracks the photon line from above
        e_at = qty(2.104, "eV")
        cp = resonant_coupling(e_at, qty(1.0, "meV"))
        curve = sample_dispersion(cp, e_at, GridSpec(n_samples=101))
        assert np.all(curve.e_lower[1:] < e_at.cgs)
        assert np.all(curve.e_lower <= curve.e_ph_paraxial)
        assert np.all(curve.e_upper[1:] > e_at.cgs)
        assert np.all(curve.e_upper >= curve.e_ph_paraxial)
        # far out in k the lower branch is nearly atomic, the upper nearly photonic
        assert curve.e_lower[-1] > e_at.cgs - 2 * cp.g.cgs
        assert curve.mu_sq[-1] > 0.99

    def test_points_view(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        curve = sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=5))
        pts = curve.points
        assert len(pts) == 5
        assert pts[0].k_par.cgs == 0.0
        assert pts[0].mu_sq == curve.mu_sq[0]

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            GridSpec(n_samples=1)
        with pytest.raises(ValueError):
            GridSpec(n_samples=10, k_max_frac=0.0)

    def test_warns_beyond_paraxial_window(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        with pytest.warns(ParaxialBoundWarning):
            sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=5, k_max_frac=0.4))


class TestWellGeometry:
    def test_depth_converges_to_g(self):
        # window edge at x = 0.02 E0 = 100 g for g = 2e-4 E0:
        # depth/g = 1 - (sqrt(100^2+4)-100)/2 = 0.9900009998 (frozen)
        e0 = qty(2.104, "eV")
        g = Quantity(2e-4 * e0.cgs, ENERGY)
        cp = resonant_coupling(e0, g)
        well = well_geometry(cp, e0)
        assert well.depth.cgs / g.cgs == pytest.approx(0.9900009998, rel=1e-6)
        assert abs(well.depth.cgs / g.cgs - 1.0) <= 0.01

    def test_inflection_matches_analytic_root(self):
        # at Delta = 0 the inflection solves
        # 1 - u/sqrt(1+u^2) - 2u/(1+u^2)^(3/2) = 0 with x = 2 g u,
        # x*/g = 2 u* = sqrt((8 sqrt(3) - 12)/3), k*/k_perp = sqrt(2 x*/E0)
        e0 = qty(2.104, "eV")
        g = Quantity(2e-4 * e0.cgs, ENERGY)
        cp = resonant_coupling(e0, g)
        well = well_geometry(cp, e0)
        x_star = U_STAR_OVER_G * g.cgs
        k_star_frac = math.sqrt(2 * x_star / e0.cgs)
        assert well.angular_halfwidth == pytest.approx(k_star_frac, rel=1e-12)

    def test_curvature_energy_order_of_g(self):
        # hbar^2 k*^2 / (2 m_eff) with m_eff = 2 m_ph lands at ~0.393 g
        e0 = qty(2.104, "eV")
        g = Quantity(2e-4 * e0.cgs, ENERGY)
        cp = resonant_coupling(e0, g)
        well = well_geometry(cp, e0)
        m_eff = 2 * HBAR_CGS * cp.k_perp.cgs / C_CGS
        curvature = HBAR_CGS**2 * well.inflection_k.cgs**2 / (2 * m_eff)
        assert 0.2 * g.cgs <= curvature <= 5 * g.cgs
        assert curvature / g.cgs == pytest.approx(U_STAR_OVER_G / 2, rel=1e-12)

    def test_vanishing_g_has_no_well(self):
        e0 = qty(2.104, "eV")
        cp = resonant_coupling(e0, qty(1e-25, "eV"))
        with pytest.raises(NoWellError):
            well_geometry(cp, e0)

    def test_large_detuning_has_no_well(self):
        # inflection sits beyond the paraxial window when Delta >> window depth
        e0 = qty(2.104, "eV")
        cp = resonant_coupling(e0, qty(1.0, "meV"), qty(0.21, "eV"))
        with pytest.raises(NoWellError):
            well_geometry(cp, e0)

    def test_diffraction_flag(self):
        from polbec.coupling import CavityParams

        e0 = qty(2.104, "eV")
        g = Quantity(2e-4 * e0.cgs, ENERGY)
        cp = resonant_coupling(e0, g)
        length = Quantity(math.pi * 1 / cp.k_perp.cgs, qty(1, "cm").dimension)
        # angular halfwidth here is ~2.5e-2 rad; beam at phi ~ 1e-2 resolves it
        cavity = CavityParams(length, 1, Quantity(0.01 * length.cgs, qty(1, "cm").dimension))
        well = well_geometry(cp, e0, cavity)
        assert well.diffraction_limit == pytest.approx(0.01, rel=1e-12)
        assert well.diffraction_ok == (well.angular_halfwidth > 0.01)


def _mp_inflection_over_k_perp(e0: float, g: float, delta: float) -> mp.mpf:
    """k*/k_perp from an mpmath root of s^2 (s + w) = 8 v, v = u/g, w = Delta/g - v."""
    with mp.workdps(40):
        r = mp.mpf(delta) / mp.mpf(g)

        def f(v):
            w = r - v
            s2 = w * w + 4
            return s2 * (mp.sqrt(s2) + w) - 8 * v

        v = mp.findroot(f, (mp.mpf(0), 2 * abs(r) + 4), solver="anderson")
        return mp.sqrt(2 * v * mp.mpf(g) / (mp.mpf(e0) - mp.mpf(delta)))


class TestWellRootOracle:
    E0 = qty(2.104, "eV")

    def _coupling(self, g_over_e0, delta_over_g):
        g = Quantity(g_over_e0 * self.E0.cgs, ENERGY)
        return resonant_coupling(self.E0, g, Quantity(delta_over_g * g.cgs, ENERGY))

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(min_value=-12.0, max_value=-2.0),
        st.floats(min_value=-50.0, max_value=50.0),
    )
    @example(-8.0, -1e4)  # s + w = 1.5e-4 next to s ~ 1.3e4: cancellation-prone
    def test_root_and_window_match_mpmath(self, log_g, delta_over_g):
        cp = self._coupling(10.0**log_g, delta_over_g)
        x_star = float(_mp_inflection_over_k_perp(self.E0.cgs, cp.g.cgs, cp.delta.cgs))
        assume(abs(x_star - 0.2) > 1e-9)
        if x_star < 0.2:
            well = well_geometry(cp, self.E0)
            assert well.angular_halfwidth == pytest.approx(x_star, rel=1e-12)
        else:
            with pytest.raises(NoWellError):
                well_geometry(cp, self.E0)

    def test_tiny_coupling_root_not_inflated(self):
        # the well is ~4e-5 k_perp wide, below the resolution of any fixed k step
        well = well_geometry(self._coupling(1e-9, 0.0), self.E0)
        assert well.angular_halfwidth == pytest.approx(3.96645883977e-05, rel=1e-11)

    def test_well_just_inside_window_edge(self):
        # the inflection sits 7.7e-5 k_perp inside the 0.2 k_perp window edge
        cp = self._coupling(0.0018894227485382635, 13.258061866851008)
        well = well_geometry(cp, self.E0)
        assert well.angular_halfwidth == pytest.approx(0.199922546474, rel=1e-11)


def small_curve():
    cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
    return sample_dispersion(cp, qty(2.104, "eV"), GridSpec(n_samples=11))


def test_mode_delta_and_curve_length():
    assert mode(2.0 + 3e-3, 2.0, 1e-3).delta.in_unit("meV") == pytest.approx(3.0, rel=1e-9)
    assert len(small_curve()) == 11


# (call, message) of each value check of the dispersion types, each a ValueError
VALUE_CHECKS = {
    "mode-transition-energy-0": (lambda: mode(0.0, 2.0, 1e-3),
                                 "transition_energy must be positive, got 0.0"),
    "mode-photon-energy-0": (lambda: mode(2.0, 0.0, 1e-3), "photon_energy must be positive, got 0.0"),
    "mode-g-0": (lambda: mode(2.0, 2.0, 0.0), "g must be positive, got 0.0"),
    "branches-out-of-order": (lambda: BranchPoint(None, qty(1.0, "eV"), qty(2.0, "eV"), 0.5, 0.5),
                              "branch ordering violated: e_upper < e_lower"),
    "mu_sq-above-1": (lambda: BranchPoint(None, qty(2.0, "eV"), qty(1.0, "eV"), 1.5, -0.5),
                      "mu_sq out of [0, 1]: 1.5"),
    "nu_sq-below-0": (lambda: BranchPoint(None, qty(2.0, "eV"), qty(1.0, "eV"), 0.5, -0.5),
                      "nu_sq out of [0, 1]: -0.5"),
    "broken-normalization": (lambda: BranchPoint(None, qty(2.0, "eV"), qty(1.0, "eV"), 0.5, 0.6),
                             "Hopfield normalization violated: mu_sq + nu_sq = 1.1"),
    "curve-grid-decreasing": (lambda: dataclasses.replace(curve := small_curve(),
                                                          k_par=curve.k_par[::-1]),
                              "k_par grid must be strictly increasing"),
    "well-inflection-0": (lambda: WellGeometry(qty(0.0, "cm^-1"), qty(1.0, "meV"), 0.1, None, None),
                          "inflection_k must be positive"),
    "well-depth-negative": (lambda: WellGeometry(qty(1.0, "cm^-1"), qty(-1.0, "meV"), 0.1, None,
                                                 None), "well depth must be positive"),
}


@pytest.mark.parametrize("name", sorted(VALUE_CHECKS))
def test_value_check_raises(name):
    call, message = VALUE_CHECKS[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
