import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from polbec.core import _lens_cgs, design_trap_cgs
from polbec.thermo import trapped_bec_temperature_from_N
from polbec.trap import LensProfile, TrapDesign, design_trap, lens_for_omega, omega_for_lens
from polbec.units import CURVATURE, Quantity, qty

from core_pairs import assert_finite_or_raises, assert_same_outcome, magnitudes

M_EFF = qty(5e-33, "g")
E_CHAR = qty(2.1, "eV")


class TestLensProfile:
    def test_flat_profile_for_zero_omega(self):
        lens = lens_for_omega(qty(0.0, "s^-1"), M_EFF, E_CHAR, n0=1.0)
        assert lens.n_prime.cgs == 0.0
        assert math.isinf(lens.r_max.cgs)

    def test_reference_gradient(self):
        # m Omega^2 / E_char at (5e-33 g, 5e10 s^-1, 2.1 eV); frozen from mpmath.
        # Only this value round-trips back to Omega = 5e10 s^-1.
        lens = lens_for_omega(qty(5.0e10, "s^-1"), M_EFF, E_CHAR, n0=1.0)
        assert lens.n_prime.cgs == pytest.approx(3.715183972893, rel=1e-11)

    def test_quadratic_scaling_in_omega(self):
        a = lens_for_omega(qty(1e10, "s^-1"), M_EFF, E_CHAR, n0=1.0)
        b = lens_for_omega(qty(2e10, "s^-1"), M_EFF, E_CHAR, n0=1.0)
        assert b.n_prime.cgs == pytest.approx(4 * a.n_prime.cgs, rel=1e-14)

    def test_r_max_inside_zero_crossing(self):
        lens = lens_for_omega(qty(5.0e10, "s^-1"), M_EFF, E_CHAR, n0=1.5)
        assert lens.r_max.cgs < 1 / math.sqrt(lens.n_prime.cgs)
        assert lens.index_squared(lens.r_max) > 0

    def test_validation(self):
        with pytest.raises(ValueError, match="zero crossing"):
            LensProfile(n0=1.0, n_prime=Quantity(100.0, CURVATURE), r_max=qty(0.2, "cm"))
        with pytest.raises(ValueError):
            LensProfile(n0=-1.0, n_prime=Quantity(1.0, CURVATURE), r_max=qty(0.1, "cm"))


class TestOmegaForLens:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            omega = qty(10 ** rng.uniform(6, 12), "s^-1")
            m = qty(10 ** rng.uniform(-34, -30), "g")
            e = qty(10 ** rng.uniform(-1, 1), "eV")
            lens = lens_for_omega(omega, m, e, n0=1.0)
            back = omega_for_lens(lens, m, e)
            assert back.cgs == pytest.approx(omega.cgs, rel=1e-12)

    def test_flat_gives_zero(self):
        lens = lens_for_omega(qty(0.0, "s^-1"), M_EFF, E_CHAR, n0=1.0)
        assert omega_for_lens(lens, M_EFF, E_CHAR).cgs == 0.0

    def test_reference_inversion(self):
        lens = LensProfile(
            n0=1.0, n_prime=Quantity(3.715183972893, CURVATURE), r_max=qty(0.2, "cm")
        )
        omega = omega_for_lens(lens, M_EFF, E_CHAR)
        assert omega.cgs == pytest.approx(5.0e10, rel=1e-11)

    def test_potential_identity(self):
        # E_char * U_opt(r) = m_eff Omega_eff^2 r^2 / 2 at sampled radii
        omega = qty(5.0e10, "s^-1")
        lens = lens_for_omega(omega, M_EFF, E_CHAR, n0=1.3)
        for r_cm in np.linspace(0.0, lens.r_max.cgs, 17):
            r = qty(r_cm, "cm")
            lhs = E_CHAR.cgs * lens.optical_potential(r)
            rhs = 0.5 * M_EFF.cgs * omega.cgs**2 * r_cm**2
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-40)


class TestDesignTrap:
    def test_room_temperature_design(self):
        design = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR)
        assert design.omega_eff.cgs == pytest.approx(50374567153.82, rel=1e-11)  # frozen
        assert design.omega_eff.cgs == pytest.approx(5.0e10, rel=0.01)

    def test_scaling_laws(self):
        base = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR)
        hot = design_trap(qty(600.0, "K"), 1e6, M_EFF, E_CHAR)
        many = design_trap(qty(300.0, "K"), 4e6, M_EFF, E_CHAR)
        assert hot.omega_eff.cgs == pytest.approx(2 * base.omega_eff.cgs, rel=1e-14)
        assert many.omega_eff.cgs == pytest.approx(base.omega_eff.cgs / 2, rel=1e-14)

    def test_closes_loop_with_thermo(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            t_c = qty(10 ** rng.uniform(0, 3), "K")
            n = 10 ** rng.uniform(3, 9)
            design = design_trap(t_c, n, M_EFF, E_CHAR)
            t_back = trapped_bec_temperature_from_N(n, design.omega_eff)
            assert t_back.cgs == pytest.approx(t_c.cgs, rel=1e-10)

    def test_omega_at_is_echoed_not_derived(self):
        design = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR, omega_at=qty(1e5, "s^-1"))
        assert design.omega_at.cgs == 1e5
        design = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR)
        assert design.omega_at is None

    def test_beam_fit_check(self):
        design = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR,
                             beam_diameter=qty(1e-3, "cm"))
        assert design.beam_fits_profile == (2 * design.lens.r_max.cgs >= 1e-3)
        wide = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR,
                           beam_diameter=Quantity(10 * design.lens.r_max.cgs, qty(1, "cm").dimension))
        assert wide.beam_fits_profile is False

    def test_assumption_note_present(self):
        design = design_trap(qty(300.0, "K"), 1e6, M_EFF, E_CHAR)
        assert "E_char" in design.assumption_note

    def test_rejects_nonpositive_targets(self):
        with pytest.raises(ValueError):
            design_trap(qty(-1.0, "K"), 1e6, M_EFF, E_CHAR)
        with pytest.raises(ValueError):
            design_trap(qty(300.0, "K"), 0.0, M_EFF, E_CHAR)


# cgs magnitudes: T_c (K), N, m_eff (g), E_char (erg), Omega_eff (s^-1),
# n' (cm^-2), beam diameter (cm)
T_C = (1e-2, 1e6)
N = (1.0, 1e12)
M = (1e-36, 1e-28)
E_CHAR_ERG = (1e-16, 1e-10)
OMEGA = (1e-3, 1e14)
N_PRIME = (1e-12, 1e12)
BEAM = (1e-6, 1.0)


class TestOperationsEqualTheirCores:
    """Each operation on magnitudes against the core it wraps: the same
    value bit for bit, or the same error."""

    @given(t_c=magnitudes(*T_C), n=magnitudes(*N), m=magnitudes(*M),
           e_char=magnitudes(*E_CHAR_ERG), beam=st.none() | magnitudes(*BEAM))
    def test_design_trap(self, t_c, n, m, e_char, beam):
        assert_same_outcome(
            design_trap, design_trap_cgs,
            [qty(t_c, "K"), n, qty(m, "g"), qty(e_char, "erg"), None, 1.0,
             None if beam is None else qty(beam, "cm")],
            [t_c, n, m, e_char, 1.0, beam],
            view=lambda d: (d.omega_eff.cgs, d.lens.n_prime.cgs, d.lens.r_max.cgs,
                            d.beam_fits_profile))

    @given(omega=st.just(0.0) | magnitudes(*OMEGA), m=magnitudes(*M),
           e_char=magnitudes(*E_CHAR_ERG))
    # n' ~ 1e-323: r_max^2 overflowed in the zero-crossing check
    @example(omega=math.exp(6.0), m=math.exp(-65.0), e_char=1e300)
    def test_lens_for_omega(self, omega, m, e_char):
        assert_same_outcome(
            lens_for_omega, lambda *a: _lens_cgs(*a, 0.5),
            [qty(omega, "s^-1"), qty(m, "g"), qty(e_char, "erg"), 1.0], [omega, m, e_char],
            view=lambda lens: (lens.n_prime.cgs, lens.r_max.cgs))


@given(n_prime=st.just(0.0) | magnitudes(*N_PRIME, invalid=False), m=magnitudes(*M),
       e_char=magnitudes(*E_CHAR_ERG))
# the flat lens with an infinite E_char: sqrt(0 * inf) was NaN
@example(n_prime=0.0, m=5e-33, e_char=math.inf)
def test_omega_for_lens_is_finite_or_raises(n_prime, m, e_char):
    # no command runs it, so it computes on its own, with no core to agree with
    lens = LensProfile(1.0, Quantity(n_prime, CURVATURE), qty(0.0, "cm"))
    assert_finite_or_raises(omega_for_lens, [lens, qty(m, "g"), qty(e_char, "erg")])


def test_lens_profile_rejects_a_negative_gradient():
    with pytest.raises(ValueError, match="n_prime must be non-negative, got -1.0"):
        LensProfile(1.0, Quantity(-1.0, CURVATURE), qty(1e-3, "cm"))


def test_trap_design_rejects_zero_omega():
    lens = lens_for_omega(qty(5.0e10, "s^-1"), M_EFF, E_CHAR, n0=1.0)
    with pytest.raises(ValueError, match="omega_eff must be positive"):
        TrapDesign(lens, qty(0.0, "s^-1"), E_CHAR)
