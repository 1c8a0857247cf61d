import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from polbec.core import (
    C_CGS,
    EV_ERG,
    H_CGS,
    HBAR_CGS,
    KB_CGS,
    MEV_ERG,
    TRAP_BEC_ZETA,
    ThresholdLadder,
    _ColumnError,
    _mu_column,
    _stage,
    condensation_ladder,
    effective_masses_cgs,
    kt_temperature_K,
    transverse_energy_erg,
)
from polbec.coupling import CouplingParams, resonant_coupling
from polbec.thermo import (
    GasState,
    TrapSpec,
    chemical_potential,
    condensate_fraction,
    condensation_report,
    degeneracy_temperature,
    effective_masses,
    group_velocity,
    kt_temperature,
    thermal_wavelength,
    transverse_energy,
    trapped_bec_temperature,
    trapped_bec_temperature_from_N,
    trapped_number,
)
from polbec.units import ENERGY, DimensionError, Quantity, qty

from core_pairs import (assert_finite_or_raises, assert_formula_or_raises, assert_same_outcome,
                        logs, magnitudes)

M_REF = qty(5e-33, "g")
T_REF = qty(300.0, "K")


def bose_2d_density_quadrature(mu_erg: float, t_k: float, m_g: float) -> float:
    """Independent oracle: n2 = (m / 2 pi hbar^2) * int_0^inf dE / (e^{(E-mu)/kBT} - 1),
    evaluated by adaptive quadrature in the scaled variable u = E/(kB T)."""
    beta = 1.0 / (KB_CGS * t_k)
    a = -mu_erg * beta
    assert a > 0, "oracle requires mu < 0"
    knees = sorted({min(max(a * f, 1e-12), 59.0) for f in (1.0, 10.0, 1e3)})
    integral, err = quad(
        lambda u: 1.0 / math.expm1(u + a),
        0.0,
        60.0,
        points=knees,
        limit=400,
        epsabs=0.0,
        epsrel=1e-11,
    )
    assert err < 1e-9 * integral
    return m_g / (2.0 * math.pi * HBAR_CGS**2 * beta) * integral


class TestThermalWavelength:
    def test_room_temperature_value(self):
        lam = thermal_wavelength(M_REF, T_REF)
        assert lam.cgs == pytest.approx(1.836871705047e-4, rel=1e-10)  # frozen, mpmath
        assert lam.cgs == pytest.approx(1.84e-4, rel=0.01)

    def test_inverse_sqrt_scaling(self):
        lam = thermal_wavelength(M_REF, T_REF)
        lam4 = thermal_wavelength(M_REF, qty(1200.0, "K"))
        assert lam4.cgs == pytest.approx(lam.cgs / 2, rel=1e-14)

    def test_alternative_prefactor_is_inconsistent(self):
        # hbar/sqrt(2 m kB T) would give ~5.18e-5 cm, a factor sqrt(4 pi)
        # below the 1.84e-4 cm reference value; the h/sqrt(2 pi m kB T)
        # convention is the one that matches.
        alt = HBAR_CGS / math.sqrt(2 * M_REF.cgs * KB_CGS * 300.0)
        assert alt == pytest.approx(5.1817194e-5, rel=1e-7)
        lam = thermal_wavelength(M_REF, T_REF)
        assert lam.cgs / alt == pytest.approx(math.sqrt(4 * math.pi), rel=1e-12)
        assert abs(alt - 1.84e-4) / 1.84e-4 > 0.5


class TestDegeneracyTemperature:
    def test_room_temperature_density(self):
        t_d = degeneracy_temperature(qty(0.3e8, "cm^-2"), M_REF)
        assert t_d.cgs == pytest.approx(303.6687894723, rel=1e-9)  # frozen, mpmath
        assert t_d.cgs == pytest.approx(300.0, rel=0.02)

    def test_linear_in_density(self):
        t1 = degeneracy_temperature(qty(1e7, "cm^-2"), M_REF)
        t3 = degeneracy_temperature(qty(3e7, "cm^-2"), M_REF)
        assert t3.cgs == pytest.approx(3 * t1.cgs, rel=1e-14)

    def test_half_density_value(self):
        # direct CODATA evaluation, frozen from a 50-digit oracle
        t_d = degeneracy_temperature(qty(0.5e8, "cm^-2"), M_REF)
        assert t_d.cgs == pytest.approx(506.1146491206, rel=1e-9)

    def test_wavelength_identity(self):
        # n2 * lambda_T(T_d)^2 = 1
        for n2 in (1e6, 0.3e8, 0.5e8, 1e9):
            t_d = degeneracy_temperature(qty(n2, "cm^-2"), M_REF)
            lam = thermal_wavelength(M_REF, t_d)
            assert n2 * lam.cgs**2 == pytest.approx(1.0, rel=1e-10)


class TestChemicalPotential:
    def test_at_degeneracy_point(self):
        n2 = qty(0.3e8, "cm^-2")
        t_d = degeneracy_temperature(n2, M_REF)
        mu = chemical_potential(GasState(temperature=t_d, m_eff=M_REF, n2=n2))
        assert mu.cgs / (KB_CGS * t_d.cgs) == pytest.approx(-0.45867514538708, rel=1e-12)

    def test_room_temperature_scale(self):
        # at T_d = 300 K the degeneracy-point mu is about -11.86 meV
        n2_300 = 300.0 * M_REF.cgs * KB_CGS / (2 * math.pi * HBAR_CGS**2)
        state = GasState(temperature=qty(300.0, "K"), m_eff=M_REF, n2=qty(n2_300, "cm^-2"))
        mu = chemical_potential(state)
        assert mu.cgs / qty(1.0, "meV").cgs == pytest.approx(-11.85766976, rel=1e-8)
        assert mu.cgs / qty(1.0, "meV").cgs == pytest.approx(-11.9, rel=0.01)

    def test_classical_regime(self):
        n2 = qty(0.3e8, "cm^-2")
        t_d = degeneracy_temperature(n2, M_REF)
        t = Quantity(10 * t_d.cgs, t_d.dimension)
        mu = chemical_potential(GasState(temperature=t, m_eff=M_REF, n2=n2))
        assert mu.cgs / (KB_CGS * t.cgs) == pytest.approx(-2.35216846104, rel=1e-10)
        assert abs(mu.cgs) > 1e-2 * KB_CGS * t_d.cgs

    def test_monotone_to_zero(self):
        n2 = qty(0.3e8, "cm^-2")
        t_d = degeneracy_temperature(n2, M_REF).cgs
        previous = -math.inf
        for t_k in np.geomspace(10 * t_d, t_d / 100, 40):
            mu = chemical_potential(
                GasState(temperature=qty(t_k, "K"), m_eff=M_REF, n2=n2)
            ).cgs
            assert mu < 0
            assert mu > previous
            previous = mu

    def test_deep_quantum_regime_is_finite(self):
        n2 = qty(0.3e8, "cm^-2")
        t_d = degeneracy_temperature(n2, M_REF).cgs
        mu = chemical_potential(
            GasState(temperature=qty(t_d / 50, "K"), m_eff=M_REF, n2=n2)
        ).cgs
        # ln(1 - e^-50) ~ -1.9e-22: tiny but not rounded to -inf or garbage
        assert -1e-21 * KB_CGS * t_d < mu < 0

    def test_evaluation_branches_agree_at_switchover(self):
        def mu_over_kbt(x):  # at kB T = 1 meV, to an ulp
            return _stage(_mu_column, MEV_ERG / KB_CGS, x)

        x = math.log(2.0)
        assert mu_over_kbt(x) == pytest.approx(math.log(0.5), rel=1e-14)
        assert mu_over_kbt(x * (1 - 1e-12)) == pytest.approx(
            mu_over_kbt(x * (1 + 1e-12)), rel=1e-9
        )

    @pytest.mark.parametrize("t_over_td", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_quadrature_oracle(self, t_over_td):
        # closed-form mu must reproduce n2 through the 2D Bose-Einstein integral
        n2 = qty(0.3e8, "cm^-2")
        t_d = degeneracy_temperature(n2, M_REF).cgs
        t_k = t_over_td * t_d
        mu = chemical_potential(GasState(temperature=qty(t_k, "K"), m_eff=M_REF, n2=n2))
        n2_back = bose_2d_density_quadrature(mu.cgs, t_k, M_REF.cgs)
        assert n2_back == pytest.approx(n2.cgs, rel=1e-6)


class TestKtTemperature:
    def test_quarter_ratio_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n2 = qty(10 ** rng.uniform(4, 10), "cm^-2")
            m = qty(10 ** rng.uniform(-34, -30), "g")
            ratio = kt_temperature(n2, m).cgs / degeneracy_temperature(n2, m).cgs
            assert abs(ratio - 0.25) <= 0.25 * 1e-12

    def test_reference_value(self):
        t_kt = kt_temperature(qty(0.3e8, "cm^-2"), M_REF)
        assert t_kt.cgs == pytest.approx(75.91719736808, rel=1e-9)  # frozen
        assert t_kt.cgs == pytest.approx(75.0, rel=0.02)

    def test_linear_in_density(self):
        a = kt_temperature(qty(1e7, "cm^-2"), M_REF)
        b = kt_temperature(qty(5e7, "cm^-2"), M_REF)
        assert b.cgs == pytest.approx(5 * a.cgs, rel=1e-14)


class TestTrappedBec:
    def test_density_form_value(self):
        # frozen CODATA value; room temperature at the 3% level
        t_c = trapped_bec_temperature(qty(0.5e8, "cm^-2"), M_REF)
        assert t_c.cgs == pytest.approx(307.6684797085, rel=1e-9)
        assert t_c.cgs == pytest.approx(300.0, rel=0.03)

    def test_omega_zero_means_no_condensation(self):
        t_c = trapped_bec_temperature_from_N(1e6, qty(0.0, "s^-1"))
        assert t_c.cgs == 0.0

    def test_invert_for_omega(self):
        # T_c = 300 K at N = 1e6 needs omega_eff ~ 5.04e10 s^-1 (frozen)
        omega = KB_CGS * 300.0 * math.sqrt(TRAP_BEC_ZETA / 1e6) / HBAR_CGS
        assert omega == pytest.approx(50374567153.82, rel=1e-10)
        t_back = trapped_bec_temperature_from_N(1e6, qty(omega, "s^-1"))
        assert t_back.cgs == pytest.approx(300.0, rel=1e-12)

    def test_trapped_number_reference(self):
        n = trapped_number(qty(0.5e8, "cm^-2"), T_REF, qty(5.0e10, "s^-1"), M_REF)
        assert n == pytest.approx(1040984.82134, rel=1e-10)  # frozen
        assert n == pytest.approx(1.0e6, rel=0.05)

    def test_trapped_number_linear_in_t(self):
        n1 = trapped_number(qty(0.5e8, "cm^-2"), qty(100.0, "K"), qty(5e10, "s^-1"), M_REF)
        n2 = trapped_number(qty(0.5e8, "cm^-2"), qty(200.0, "K"), qty(5e10, "s^-1"), M_REF)
        assert n2 == pytest.approx(2 * n1, rel=1e-14)

    def test_trapped_number_requires_trap(self):
        with pytest.raises(ZeroDivisionError):
            trapped_number(qty(0.5e8, "cm^-2"), T_REF, qty(0.0, "s^-1"), M_REF)

    def test_forms_self_consistent(self):
        # N = N2(T_c) substituted into the number form reproduces the
        # density form identically
        rng = np.random.default_rng(11)
        for _ in range(200):
            n2 = qty(10 ** rng.uniform(5, 9), "cm^-2")
            m = qty(10 ** rng.uniform(-34, -31), "g")
            omega = qty(10 ** rng.uniform(8, 12), "s^-1")
            t_c = trapped_bec_temperature(n2, m)
            n_at_tc = trapped_number(n2, t_c, omega, m)
            t_back = trapped_bec_temperature_from_N(n_at_tc, omega)
            assert t_back.cgs == pytest.approx(t_c.cgs, rel=1e-10)


class TestEffectiveMasses:
    def coupling(self, delta_mev):
        return resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"), qty(delta_mev, "meV"))

    def test_resonant_masses_equal(self):
        masses = effective_masses(self.coupling(0.0))
        assert masses.m_upper.cgs == masses.m_lower.cgs == 2 * masses.m_ph.cgs

    def test_photon_mass_definition(self):
        cp = self.coupling(0.0)
        masses = effective_masses(cp)
        assert masses.m_ph.cgs == pytest.approx(HBAR_CGS * cp.k_perp.cgs / C_CGS, rel=1e-15)
        # m_ph ~ E0/c^2 on resonance
        assert masses.m_ph.cgs == pytest.approx(qty(2.104, "eV").cgs / C_CGS**2, rel=1e-12)

    def test_delta_two_g(self):
        masses = effective_masses(self.coupling(2.0))
        assert masses.m_upper.cgs / masses.m_ph.cgs == pytest.approx(
            6.82842712474619, rel=1e-12
        )
        assert masses.m_lower.cgs / masses.m_ph.cgs == pytest.approx(
            1.17157287525381, rel=1e-12
        )

    def test_detuned_masses_differ(self):
        for delta in (-3.0, -0.5, 0.5, 3.0):
            masses = effective_masses(self.coupling(delta))
            assert masses.m_upper.cgs != masses.m_lower.cgs

    def test_continuity_and_branch_switch(self):
        eps = 1e-9  # meV
        plus = effective_masses(self.coupling(eps))
        minus = effective_masses(self.coupling(-eps))
        at_zero = effective_masses(self.coupling(0.0))
        for m in (plus, minus):
            assert m.m_upper.cgs == pytest.approx(at_zero.m_upper.cgs, rel=1e-9)
            assert m.m_lower.cgs == pytest.approx(at_zero.m_lower.cgs, rel=1e-9)
        # the lighter branch flips across Delta = 0
        assert plus.m_lower.cgs < plus.m_upper.cgs
        assert minus.m_upper.cgs < minus.m_lower.cgs

    def test_saturation_flag(self):
        # Delta/g = 2e8: 1 - Delta/sqrt(Delta^2+4g^2) ~ 2 (g/Delta)^2 = 5e-17
        cp = resonant_coupling(qty(2.104, "eV"), qty(1e-8, "eV"), qty(2.0, "eV"))
        masses = effective_masses(cp)
        assert masses.upper_saturated
        assert not masses.lower_saturated
        assert math.isfinite(masses.m_upper.cgs)
        cp = resonant_coupling(qty(2.104, "eV"), qty(1e-8, "eV"), qty(-2.0, "eV"))
        masses = effective_masses(cp)
        assert masses.lower_saturated
        assert not masses.upper_saturated
        assert math.isfinite(masses.m_lower.cgs)


class TestTransverseDispersion:
    def test_zero_k(self):
        assert transverse_energy(qty(0.0, "cm^-1"), M_REF).cgs == 0.0
        assert group_velocity(qty(0.0, "cm^-1"), M_REF).cgs == 0.0

    def test_quadratic(self):
        e1 = transverse_energy(qty(100.0, "cm^-1"), M_REF)
        e2 = transverse_energy(qty(200.0, "cm^-1"), M_REF)
        assert e2.cgs == pytest.approx(4 * e1.cgs, rel=1e-14)

    def test_half_ratio_against_photon_quadratic_term(self):
        # at Delta = 0 (m_eff = 2 m_ph), E_tr is exactly half the photon's
        # quadratic term hbar c k^2 / (2 k_perp)
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        masses = effective_masses(cp)
        k = qty(0.05 * cp.k_perp.cgs, "cm^-1")
        e_tr = transverse_energy(k, masses.m_lower).cgs
        photon_quadratic = HBAR_CGS * C_CGS * k.cgs**2 / (2 * cp.k_perp.cgs)
        assert e_tr / photon_quadratic == pytest.approx(0.5, rel=1e-12)

    def test_slow_light_value(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        masses = effective_masses(cp)
        v = group_velocity(qty(0.01 * cp.k_perp.cgs, "cm^-1"), masses.m_lower)
        assert v.cgs / C_CGS == pytest.approx(0.005, rel=1e-10)

    def test_slow_light_bound_in_window(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        masses = effective_masses(cp)
        for frac in np.linspace(0.0, 0.2, 11):
            v = group_velocity(qty(frac * cp.k_perp.cgs, "cm^-1"), masses.m_lower)
            assert v.cgs / C_CGS <= 0.1 + 1e-15

    def test_gradient_check(self):
        # v equals the central difference of E_tr w.r.t. hbar*k to 1e-8
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = 10 ** rng.uniform(0, 5)
            m = 10 ** rng.uniform(-34, -30)
            h = 1e-4 * k
            e_plus = transverse_energy(qty(k + h, "cm^-1"), qty(m, "g")).cgs
            e_minus = transverse_energy(qty(k - h, "cm^-1"), qty(m, "g")).cgs
            fd = (e_plus - e_minus) / (2 * HBAR_CGS * h)
            v = group_velocity(qty(k, "cm^-1"), qty(m, "g")).cgs
            assert v == pytest.approx(fd, rel=1e-8)


class TestCondensateFraction:
    def test_anchors(self):
        t_c = qty(300.0, "K")
        assert condensate_fraction(qty(0.0, "K"), t_c) == 1.0
        assert condensate_fraction(t_c, t_c) == 0.0
        assert condensate_fraction(qty(150.0, "K"), t_c) == 0.75

    def test_clamps_above_tc(self):
        assert condensate_fraction(qty(400.0, "K"), qty(300.0, "K")) == 0.0


class TestCondensationReport:
    def test_reference_ladder_from_n3(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n3=qty(3.5e11, "cm^-3"))
        report = condensation_report(state)
        # computed n2 = lambda_T * n3 (frozen); the rounded 0.3e8 reference
        # estimate for the same inputs is tolerated within a factor ~2
        assert report.n2.cgs == pytest.approx(6.429050968e7, rel=1e-8)
        assert report.n2_estimated
        assert 0.3e8 / 2.2 < report.n2.cgs < 0.3e8 * 2.2
        assert report.t_degeneracy.cgs == pytest.approx(650.76737494, rel=1e-8)
        assert 300.0 / 2.2 < report.t_degeneracy.cgs < 300.0 * 2.2
        assert report.t_kt.cgs == pytest.approx(650.76737494 / 4, rel=1e-8)
        assert report.degenerate
        assert report.overlap

    def test_explicit_n2_interparticle_distance(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
        report = condensation_report(state)
        assert report.r_int.cgs == pytest.approx(1.41421356237e-4, rel=1e-10)
        assert report.r_int.cgs == pytest.approx(1.41e-4, rel=0.01)
        assert report.lambda_t.cgs >= report.r_int.cgs
        assert report.overlap
        assert not report.n2_estimated

    def test_classical_regime_flags(self):
        n2 = qty(0.3e8, "cm^-2")
        t_d = degeneracy_temperature(n2, M_REF).cgs
        state = GasState(temperature=qty(10 * t_d, "K"), m_eff=M_REF, n2=n2)
        report = condensation_report(state)
        assert not report.degenerate
        assert not report.kt_superfluid
        assert report.mu.cgs < -KB_CGS * t_d

    def test_trap_columns(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
        report = condensation_report(state, TrapSpec(omega_eff=qty(5.0e10, "s^-1")))
        assert report.t_c.cgs == pytest.approx(307.6684797085, rel=1e-9)
        assert report.n_trapped == pytest.approx(1040984.82134, rel=1e-9)
        assert report.condensate_frac == pytest.approx(1 - (300.0 / 307.6684797085) ** 2, rel=1e-8)

    def test_no_trap_leaves_tc_unset(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
        report = condensation_report(state)
        assert report.t_c is None
        assert report.omega_eff is None
        assert report.n_trapped is None

    def test_zero_omega_trap_is_distinct(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
        report = condensation_report(state, TrapSpec(omega_eff=qty(0.0, "s^-1")))
        assert report.t_c is not None and report.t_c.cgs == 0.0
        assert report.condensate_frac == 0.0
        assert report.n_trapped is None

    def test_trap_consistency_check(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
        omega = qty(5.0e10, "s^-1")
        r0 = qty(1e-3, "cm")
        u0_good = Quantity(0.5 * M_REF.cgs * omega.cgs**2 * r0.cgs**2, ENERGY)
        report = condensation_report(state, TrapSpec(omega_eff=omega, u0=u0_good, r0=r0))
        assert report.t_c is not None
        with pytest.raises(ValueError, match="inconsistent trap"):
            condensation_report(state, TrapSpec(omega_eff=omega, u0=2 * u0_good, r0=r0))

    @pytest.mark.parametrize("m_eff", [qty(5e-33, "erg"), 5e-33], ids=["energy", "float"])
    def test_trap_consistency_checks_the_mass_dimension(self, m_eff):
        omega = qty(5.0e10, "s^-1")
        r0 = qty(1e-3, "cm")
        u0 = Quantity(0.5 * M_REF.cgs * omega.cgs**2 * r0.cgs**2, ENERGY)
        trap = TrapSpec(omega_eff=omega, u0=u0, r0=r0)
        trap.check_consistency(M_REF)
        with pytest.raises(DimensionError, match="m_eff"):
            trap.check_consistency(m_eff)

    @pytest.mark.parametrize("omega, match", [(math.inf, "omega_eff must be finite"),
                                              (-1.0, "omega_eff must be non-negative"),
                                              (math.nan, "omega_eff must be non-negative")],
                             ids=["inf", "negative", "nan"])
    def test_trap_rejects_omega_eff(self, omega, match):
        # an infinite trap holds no particle (N2 = 0) but reported a condensate
        with pytest.raises(ValueError, match=match):
            TrapSpec(qty(omega, "s^-1"))
        with pytest.raises(ValueError, match=match):
            condensation_ladder(300.0, 5e-33, 5e7, None, omega)
        with pytest.raises(_ColumnError):
            condensation_ladder(300.0, 5e-33, 5e7, None, [5e10, omega])

    @pytest.mark.parametrize(
        "u0, r0, omega, error, match",
        [
            # NaN compares false either way: U0 = NaN read as consistent
            (math.nan, 1e-3, 5e10, ValueError, "inconsistent trap: U0 = nan erg"),
            (6.25e-18, math.nan, 5e10, OverflowError, "'r0' = nan cm"),
            # m_eff Omega_eff^2 r0^2 / 2 = inf read as consistent with any U0
            (EV_ERG, 1e20, 1e150, OverflowError,
             "trap consistency: m_eff\\*Omega_eff\\^2\\*r0\\^2/2 overflows for "
             "'omega_eff' = 1e\\+150 s\\^-1, 'r0' = 1e\\+20 cm"),
            # and so is a w**2 that raises
            (EV_ERG, 1e-3, 1e160, OverflowError, "'omega_eff' = 1e\\+160 s\\^-1"),
        ],
        ids=["U0-nan", "r0-nan", "expected-inf", "omega-squared"],
    )
    def test_trap_consistency_fails_on_nan_and_overflow(self, u0, r0, omega, error, match):
        m = 5e-33 if omega < 1e100 else 1e-30
        trap = TrapSpec(qty(omega, "s^-1"), u0=qty(u0, "erg"), r0=qty(r0, "cm"))
        with pytest.raises(error, match=match):
            trap.check_consistency(qty(m, "g"))
        with pytest.raises(error, match=match):
            condensation_report(GasState(T_REF, qty(m, "g"), qty(5e7, "cm^-2")), trap)
        with pytest.raises(_ColumnError):  # the path of a sweep over U0
            condensation_ladder(300.0, m, 5e7, None, omega, [u0, u0], r0)

    def test_custom_superfluid_density(self):
        state = GasState(temperature=T_REF, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
        report = condensation_report(state, n_s=qty(0.25e8, "cm^-2"))
        assert report.t_kt.cgs == pytest.approx(report.t_degeneracy.cgs / 8, rel=1e-12)

    def test_density_bracket(self):
        # n3 = 3.5e11 cm^-3 is degenerate at 300 K; n3 <= 1e10 cm^-3 is not
        dense = condensation_report(
            GasState(temperature=T_REF, m_eff=M_REF, n3=qty(3.5e11, "cm^-3"))
        )
        dilute = condensation_report(
            GasState(temperature=T_REF, m_eff=M_REF, n3=qty(1e10, "cm^-3"))
        )
        assert dense.degenerate
        assert not dilute.degenerate
        assert dilute.t_degeneracy.cgs == pytest.approx(18.593354, rel=1e-6)
        assert dilute.t_degeneracy.cgs < 300.0 / 10


class TestLadderRangeErrors:
    """Finite positive inputs whose lambda_T, n2 estimate, T_d, T_d/T or
    m Omega_eff^2 leaves the float range fail with the keys named."""

    @pytest.mark.parametrize(
        "args, error, match",
        [
            ((1e-300, 5e-33, 5e7), ZeroDivisionError, "lambda_T: .*'T' = 1e-300 K, 'm_eff'"),
            ((math.inf, 5e-33, None, 1e11), ZeroDivisionError, "lambda_T: .*'T' = inf K"),
            ((300.0, 5e-33, None, 1e-321), ZeroDivisionError, "n2 = lambda_T \\* n3 .*'n3'"),
            ((300.0, 1.45e-308, 5e7), ZeroDivisionError, "T_d: m kB .*'m_eff' = 1.45e-308 g"),
            ((math.inf, 5e-33, 1e8), ValueError, "mu: T_d/T underflows .*'T' = inf K"),
            ((300.0, 5e-33, 1e-320), ValueError, "mu: .*'T' = 300 K, 'n2' = "),
            ((300.0, 5e-33, None, 1e-310), ValueError, "mu: .*'n3' = 1e-310 cm\\^-3, 'm_eff'"),
            ((300.0, 5e-33, 5e7, None, 1e-150), ZeroDivisionError,
             "N2: .*'m_eff' = 5e-33 g, 'omega_eff' = 1e-150 s\\^-1"),
            ((300.0, 1e-47, 1e300), OverflowError,
             "T_d = .*'n2' = 1e\\+300 cm\\^-2, 'm_eff' = 1e-47 g"),
            ((300.0, 1e-45, None, 1e300), OverflowError,
             "T_d = .*'n3' = 1e\\+300 cm\\^-3, 'm_eff' = 1e-45 g"),
            ((300.0, 1e-45, 1e300, None, None, None, None, 1e308), OverflowError,
             "T_KT = .*'n_s' = 1e\\+308 cm\\^-2, 'm_eff' = 1e-45 g"),
            ((1e300, 5e-33, 1e300, None, 1e-10), OverflowError,
             "N2 = .*'n2' = 1e\\+300 cm\\^-2, 'T' = 1e\\+300 K, 'm_eff' = 5e-33 g, "
             "'omega_eff' = 1e-10 s\\^-1"),
            ((1e300, 5e-33, None, 1e300, 1e-10), OverflowError,
             "N2 = .*'n3' = 1e\\+300 cm\\^-3, 'T' = 1e\\+300 K, 'm_eff' = 5e-33 g, "
             "'omega_eff' = 1e-10 s\\^-1"),
        ],
        ids=["T-tiny", "T-inf-n3", "n3-tiny", "m-kB", "T-inf-n2", "n2-tiny", "n3-tiny-mu",
             "trap", "T_d-huge", "T_d-huge-n3", "T_KT-huge", "N2-huge", "N2-huge-n3"],
    )
    def test_names_the_key(self, args, error, match):
        with pytest.raises(error, match=match):
            condensation_ladder(*args)

    @pytest.mark.parametrize(
        "args, match",
        [
            ((300.0, math.inf, 5e7), "m_eff must be finite"),
            ((300.0, 5e-33, None, math.inf), "n3 must be finite"),
            ((300.0, 5e-33, 5e7, math.inf), "n3 must be finite"),
        ],
        ids=["m_eff", "n3-only", "n3"],
    )
    def test_rejects_non_finite_input(self, args, match):
        with pytest.raises(ValueError, match=match):
            condensation_ladder(*args)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"temperature": qty(math.inf, "K")}, "temperature must be finite"),
            ({"m_eff": qty(math.inf, "g")}, "m_eff must be finite"),
            ({"n3": qty(math.inf, "cm^-3")}, "n3 must be finite"),
        ],
        ids=["T", "m_eff", "n3"],
    )
    def test_gas_state_rejects_non_finite_input(self, kwargs, match):
        state = {"temperature": T_REF, "m_eff": M_REF, "n2": qty(5e7, "cm^-2"), **kwargs}
        with pytest.raises(ValueError, match=match):
            GasState(**state)


# drawn cgs magnitudes at condensation_ladder's positions: T (K), m_eff (g),
# n2 (cm^-2), n3 (cm^-3), omega_eff (s^-1, 0 included), U0 (erg; drawn
# consistent with the trap), r0 (cm), n_s (cm^-2)
LADDER_VALUES = [logs(1e-2, 1e6), logs(1e-36, 1e-28), logs(1.0, 1e16), logs(1e3, 1e20),
                 st.just(0.0) | logs(1e-3, 1e14), None, logs(1e-6, 1e-1), logs(1.0, 1e16)]

# a value at each position that fails (n3 with n2 absent)
LADDER_FAILING = [-1.0, -1.0, 1e-320, 1e-321, -1.0, -1.0, 1e200, -1.0]


@st.composite
def ladder_columns(draw):
    """(args, k, column): condensation_ladder's arguments as scalars, with
    n2, n3 or both, and a column of 1 to 6 values for position k."""
    k = draw(st.integers(0, 7))
    t, m, n2, n3, omega, r0, n_s = (draw(LADDER_VALUES[i]) for i in (0, 1, 2, 3, 4, 6, 7))
    density = draw(st.sampled_from(["n2", "n3", "both"]))
    args = [t, m, None if density == "n3" else n2, None if density == "n2" else n3,
            None, None, None, None]
    if k in (4, 5, 6) or draw(st.booleans()):
        args[4] = omega
        if k in (5, 6) or draw(st.booleans()):
            args[5:7] = [0.5 * m * omega**2 * r0**2, r0]
    if k == 7 or draw(st.booleans()):
        args[7] = n_s
    size = draw(st.integers(1, 6))
    if k in (5, 6):  # near the consistent value: within rel_tol 1e-6 or not
        column = [args[k] * (1.0 + d) for d in draw(
            st.lists(st.floats(-1e-5, 1e-5), min_size=size, max_size=size))]
    else:
        column = draw(st.lists(LADDER_VALUES[k], min_size=size, max_size=size))
    return args, k, column


def assert_column_parity(args, k, column):
    """condensation_ladder with a column at position k against the scalar
    call on each value: every field equal bit for bit (repr tells -0.0 from
    0.0), or a failure where a value fails.  The failing value's own error
    is the CLI's to find, by replaying the values (tests/test_cli.py checks
    it message for message)."""
    with_column = [*args[:k], column, *args[k + 1:]]
    expected = []
    for value in column:
        try:
            expected.append(condensation_ladder(*args[:k], value, *args[k + 1:]))
        except (ValueError, ArithmeticError):
            with pytest.raises((ValueError, ArithmeticError)):
                condensation_ladder(*with_column)
            return
    ladder = condensation_ladder(*with_column)
    for name, field in zip(ThresholdLadder._fields, ladder):
        values = field if isinstance(field, list) else [field] * len(column)
        assert list(map(repr, values)) == [repr(getattr(e, name)) for e in expected], name


class TestLadderColumns:
    """condensation_ladder over a column equals the scalar call per value."""

    @given(case=ladder_columns())
    @example(case=([300.0, 5e-33, None, 3.5e11, None, None, None, None], 0, [2.0, 300.0, 2e3]))
    @example(case=([300.0, 5e-33, 5e7, None, 5e10, None, None, None], 4, [5e10, 0.0, 1e12]))
    # beside n2, only the check of n3 sees its column
    @example(case=([300.0, 5e-33, 5e7, 3.5e11, None, None, None, None], 3, [1e11, -1.0, math.inf]))
    def test_column_equals_scalar_calls(self, case):
        assert_column_parity(*case)

    @given(case=ladder_columns(), index=st.integers(0, 5))
    # a scalar argument that fails beside a T column: every value fails,
    # whichever check comes first
    @example(case=([300.0, 0.0, 5e7, None, None, None, None, None], 0, [2.0, 300.0, 2e3]),
             index=1)
    @example(case=([300.0, 0.0, 5e7, None, None, None, None, None], 0, [2.0, 300.0, 2e3]),
             index=0)
    @example(case=([300.0, 5e-33, 0.0, None, 5e10, None, None, None], 0, [2.0, 300.0, 2e3]),
             index=2)
    def test_first_failing_value_raises(self, case, index):
        args, k, column = case
        if k == 3:
            args[2] = None  # the n3-only path, where a tiny n3 fails
        i = index % len(column)
        column[i] = LADDER_FAILING[k]
        with pytest.raises((ValueError, ArithmeticError)):
            condensation_ladder(*args[:k], column[i], *args[k + 1:])
        with pytest.raises((ValueError, ArithmeticError)):
            condensation_ladder(*args[:k], column, *args[k + 1:])

    def test_T_column_computes_the_rest_once(self):
        lad = condensation_ladder([2.0, 300.0, 2e3], 5e-33, 5e7, None, 5e10)
        assert all(isinstance(f, list) for f in (lad.lambda_t, lad.mu, lad.n_trapped,
                                                 lad.condensate_frac, lad.degenerate))
        assert not any(isinstance(f, list) for f in (lad.t_degeneracy, lad.t_kt, lad.r_int,
                                                     lad.t_c))


@pytest.mark.parametrize(
    "args, columns, scalars",
    [
        # lambda_T depends on T and m only
        ((300.0, 5e-33, [5e7, 1e8, 2e8], None, 5e10), ("n2", "t_degeneracy", "t_kt", "mu",
                                                       "t_c", "n_trapped", "overlap"),
         ("lambda_t",)),
        # only the trap fields depend on omega_eff
        ((300.0, 5e-33, 5e7, None, [5e10, 0.0, 1e12]), ("t_c", "n_trapped", "condensate_frac"),
         ("lambda_t", "t_degeneracy", "t_kt", "r_int", "mu")),
    ],
    ids=["n2", "omega_eff"],
)
def test_a_column_computes_the_rest_once(args, columns, scalars):
    lad = condensation_ladder(*args)
    assert all(isinstance(getattr(lad, name), list) for name in columns)
    assert not any(isinstance(getattr(lad, name), list) for name in scalars)


def ladder_from_operations(t, m, n2, n3, omega_eff, u0, r0, n_s) -> dict:
    """The per-value fields of a one-row ladder, each from its Quantity
    operation (T_KT from its core, and mu from its column form)."""
    lam = thermal_wavelength(qty(m, "g"), qty(t, "K")).cgs
    n2 = lam * n3 if n2 is None else n2
    t_d = degeneracy_temperature(qty(n2, "cm^-2"), qty(m, "g")).cgs
    fields = {"lambda_t": lam, "t_degeneracy": t_d,
              "t_kt": kt_temperature_K(n2 if n_s is None else n_s, m),
              "mu": _stage(_mu_column, t, t_d / t)}
    if omega_eff == 0.0:  # no confinement
        fields.update(t_c=0.0, n_trapped=None, condensate_frac=0.0)
    elif omega_eff is not None:
        t_c = trapped_bec_temperature(qty(n2, "cm^-2"), qty(m, "g"))
        fields.update(t_c=t_c.cgs, n_trapped=trapped_number(qty(n2, "cm^-2"), qty(t, "K"),
                                                            qty(omega_eff, "s^-1"), qty(m, "g")),
                      condensate_frac=condensate_fraction(qty(t, "K"), t_c))
    return {name: repr(value) for name, value in fields.items()}


@given(case=ladder_columns())
# the benchmark's shape: a T sweep with a trap, n2 and n3
@example(case=([300.0, 7.5e-33, 5e7, 3.5e11, 5e10, None, None, None], 0,
               [2.0, 2.0 * 1000.0 ** 0.5, 2e3]))
def test_ladder_fields_equal_their_cores(case):
    # bit for bit, in a scalar call and in a column: each formula's column
    # form serves both the ladder and the Quantity operation
    args, k, column = case
    rows = [[*args[:k], value, *args[k + 1:]] for value in column]
    expected = []
    for row in rows:
        try:
            ladder = condensation_ladder(*row)
        except (ValueError, ArithmeticError):
            continue
        expected.append(ladder_from_operations(*row))
        assert {name: repr(getattr(ladder, name)) for name in expected[-1]} == expected[-1]
    if len(expected) < len(rows):
        return  # the column fails (test_first_failing_value_raises)
    ladder = condensation_ladder(*args[:k], column, *args[k + 1:])
    for name in expected[0]:
        field = getattr(ladder, name)
        values = field if isinstance(field, list) else [field] * len(column)
        assert list(map(repr, values)) == [e[name] for e in expected], name


# the ranges of the drawn magnitudes, in cgs units
T_K = (1e-2, 1e6)
M_G = (1e-36, 1e-28)
N2_CM2 = (1.0, 1e16)
N3_CM3 = (1e3, 1e20)
OMEGA_S1 = (1e-3, 1e14)  # 0 is drawn too, as an invalid value or through omega()
K_CM1 = (1e-3, 1e9)


def omega():
    return st.just(0.0) | magnitudes(*OMEGA_S1)


# operation -> (operation, its core, each argument as (unit, strategy)); a
# unit of None passes the drawn float as it is
PAIRS = {
    "kt_temperature": (kt_temperature, kt_temperature_K,
                       [("cm^-2", magnitudes(*N2_CM2)), ("g", magnitudes(*M_G))]),
    "transverse_energy": (transverse_energy, transverse_energy_erg,
                          [("cm^-1", magnitudes(*K_CM1)), ("g", magnitudes(*M_G))]),
}


# the operations no command runs compute on their own; the core of each is
# the formula its docstring states, written out here: operation ->
# (operation, formula, each argument as in PAIRS)
OWN = {
    "thermal_wavelength": (
        thermal_wavelength, lambda m, t: H_CGS / math.sqrt(2.0 * math.pi * m * KB_CGS * t),
        [("g", magnitudes(*M_G)), ("K", magnitudes(*T_K))]),
    "degeneracy_temperature": (
        degeneracy_temperature, lambda n2, m: 2.0 * math.pi * HBAR_CGS**2 * n2 / (m * KB_CGS),
        [("cm^-2", magnitudes(*N2_CM2)), ("g", magnitudes(*M_G))]),
    "trapped_bec_temperature": (
        trapped_bec_temperature,
        lambda n2, m: 2.0 * math.pi * HBAR_CGS**2 * n2 / (m * KB_CGS) / TRAP_BEC_ZETA,
        [("cm^-2", magnitudes(*N2_CM2)), ("g", magnitudes(*M_G))]),
    "trapped_bec_temperature_from_N": (
        trapped_bec_temperature_from_N,
        lambda n, w: HBAR_CGS * w / KB_CGS * math.sqrt(n / TRAP_BEC_ZETA),
        [(None, magnitudes(1.0, 1e12)), ("s^-1", omega())]),
    "trapped_number": (
        trapped_number, lambda n2, t, w, m: 2.0 * math.pi * n2 * KB_CGS * t / (m * w * w),
        [("cm^-2", magnitudes(*N2_CM2)), ("K", magnitudes(*T_K)),
         ("s^-1", omega()), ("g", magnitudes(*M_G))]),
    "condensate_fraction": (
        condensate_fraction, lambda t, t_c: max(0.0, 1.0 - (t / t_c) ** 2),
        [("K", magnitudes(*T_K)), ("K", magnitudes(*T_K))]),
    "group_velocity": (
        group_velocity, lambda k, m: HBAR_CGS * k / m,
        [("cm^-1", magnitudes(*K_CM1)), ("g", magnitudes(*M_G))]),
}


@pytest.mark.parametrize("name", sorted(PAIRS.keys() | OWN.keys()))
@given(data=st.data())
def test_operation_equals_its_core(name, data):
    op, core, args = PAIRS[name] if name in PAIRS else OWN[name]
    values = [data.draw(strategy) for _, strategy in args]
    quantities = [v if unit is None else qty(v, unit) for (unit, _), v in zip(args, values)]
    if name in PAIRS:
        assert_same_outcome(op, core, quantities, values)
    else:
        assert_formula_or_raises(op, core, quantities, values)


@settings(max_examples=100 * len(OWN))
@given(case=st.one_of(*(st.tuples(st.just(name), st.tuples(*(s for _, s in args)))
                        for name, (_, _, args) in OWN.items())))
# inputs that gave NaN: m kB underflows to 0 against an infinite T, ...
@example(case=("thermal_wavelength", (1e-320, math.inf)))
# ... and inf / inf
@example(case=("degeneracy_temperature", (math.inf, math.inf)))
@example(case=("trapped_bec_temperature", (math.inf, math.inf)))
# an infinite trap frequency, which TrapSpec rejects too
@example(case=("trapped_bec_temperature_from_N", (1e6, math.inf)))
def test_own_operation_is_finite_or_raises(case):
    name, values = case
    op, _, args = OWN[name]
    assert_finite_or_raises(op, [v if unit is None else qty(v, unit)
                                 for (unit, _), v in zip(args, values)])


@given(g=logs(1e-18, 1e-12), ratio=st.just(0.0) | logs(1e-8, 1e8), sign=st.sampled_from([-1, 1]),
       k_perp=logs(1e2, 1e7))
def test_effective_masses_equal_their_core(g, ratio, sign, k_perp):
    delta = sign * ratio * g
    coupling = CouplingParams(qty(g, "erg"), qty(k_perp, "cm^-1"), qty(delta, "erg"))
    assert_same_outcome(
        effective_masses, effective_masses_cgs, [coupling], [delta, g, k_perp],
        view=lambda m: (m.m_ph.cgs, m.m_upper.cgs, m.m_lower.cgs, m.upper_saturated,
                        m.lower_saturated))


def ladder_mu_in_erg(*args) -> ThresholdLadder:
    """condensation_ladder with its mu (in meV) in erg, as the Quantity
    operations build it."""
    ladder = condensation_ladder(*args)
    return ladder._replace(mu=ladder.mu * MEV_ERG)


@given(t=logs(*T_K), m=logs(*M_G), n2=st.none() | logs(*N2_CM2), n3=logs(*N3_CM3),
       omega_eff=st.none() | st.just(0.0) | logs(*OMEGA_S1), n_s=st.none() | logs(*N2_CM2))
def test_gas_operations_equal_the_ladder(t, m, n2, n3, omega_eff, n_s):
    state = GasState(qty(t, "K"), qty(m, "g"), None if n2 is None else qty(n2, "cm^-2"),
                     qty(n3, "cm^-3"))
    trap = None if omega_eff is None else TrapSpec(qty(omega_eff, "s^-1"))
    ladder = [t, m, n2, n3, omega_eff, None, None, n_s]
    assert_same_outcome(chemical_potential, lambda *a: condensation_ladder(*a).mu * MEV_ERG,
                        [state], ladder[:4])
    assert_same_outcome(
        condensation_report, ladder_mu_in_erg,
        [state, trap, None if n_s is None else qty(n_s, "cm^-2")], ladder,
        view=lambda report: ThresholdLadder(*(
            getattr(report, name).cgs if isinstance(getattr(report, name), Quantity)
            else getattr(report, name) for name in ThresholdLadder._fields)))


@pytest.mark.parametrize(
    "op, args, error, names",
    [
        (degeneracy_temperature, (qty(1e300, "cm^-2"), qty(1e-47, "g")), OverflowError,
         ("'n2' = 1e+300 cm^-2", "'m' = 1e-47 g")),
        (kt_temperature, (qty(1e308, "cm^-2"), qty(1e-45, "g")), OverflowError,
         ("'n_s' = 1e+308 cm^-2", "'m' = 1e-45 g")),
        (trapped_bec_temperature, (qty(1e300, "cm^-2"), qty(1e-47, "g")), OverflowError,
         ("'n2' = 1e+300 cm^-2", "'m' = 1e-47 g")),
        (thermal_wavelength, (qty(5e-33, "g"), qty(1e-300, "K")), ZeroDivisionError,
         ("'m' = 5e-33 g", "'temperature' = 1e-300 K")),
    ],
    ids=["T_d", "T_KT", "T_c", "lambda_T"],
)
def test_out_of_range_result_names_the_arguments(op, args, error, names):
    # finite inputs whose result left the float range: inf K, or a bare
    # ZeroDivisionError, before the operations called the ladder's cores
    with pytest.raises(error) as info:
        op(*args)
    assert all(name in str(info.value) for name in names)


@pytest.mark.parametrize(
    "op, args, match",
    [
        (degeneracy_temperature, (qty(1e-300, "cm^-2"), M_REF),
         "T_d = .* underflows to 0 for 'n2' = 1e-300 cm\\^-2, 'm' = 5e-33 g"),
        (trapped_bec_temperature, (qty(1e-300, "cm^-2"), M_REF),
         "T_d = .* underflows to 0 for 'n2' = 1e-300 cm\\^-2, 'm' = 5e-33 g"),
        (kt_temperature, (qty(1e-300, "cm^-2"), M_REF),
         "T_KT = .* underflows to 0 for 'n_s' = 1e-300 cm\\^-2, 'm' = 5e-33 g"),
    ],
    ids=["T_d", "T_c", "T_KT"],
)
def test_temperature_that_underflows_to_0_raises(op, args, match):
    # the true values are normal doubles (T_KT = 1.69e-306 K); only the
    # numerator pi hbar^2 n underflows, and the result read 0 K
    with pytest.raises(ArithmeticError, match=match):
        op(*args)


@pytest.mark.parametrize(
    "args, k, match",
    [
        ((300.0, 5e-33, 5e7, None, None, None, None, 1e-300), 7,
         "for 'n_s' = 1e-300 cm\\^-2, 'm_eff' = 5e-33 g"),
        # T_d = 7.2e-276 K and mu stay finite; T_KT alone underflows
        ((300.0, 5e-33, 7e-271), 2, "for 'n2' = 7e-271 cm\\^-2, 'm_eff' = 5e-33 g"),
    ],
    ids=["n_s", "n2"],
)
def test_ladder_T_KT_that_underflows_to_0_raises(args, k, match):
    with pytest.raises(ArithmeticError, match="T_KT = .* underflows to 0 " + match):
        condensation_ladder(*args)
    # argument k's value after a passing one fails a column of it
    with pytest.raises(_ColumnError):
        condensation_ladder(*args[:k], [5e7, args[k]], *args[k + 1:])


@pytest.mark.parametrize(
    "op, args, match",
    [
        # its own check was omega > 0, and N2 read 0.0
        (trapped_number, (qty(5e7, "cm^-2"), T_REF, qty(math.inf, "s^-1"), M_REF),
         "omega_eff must be finite"),
        # NaN < 0 is False, and the fraction read 0.0
        (condensate_fraction, (qty(math.nan, "K"), T_REF), "temperature must be non-negative"),
    ],
    ids=["trapped_number", "condensate_fraction"],
)
def test_input_past_its_check_raises(op, args, match):
    with pytest.raises(ValueError, match=match):
        op(*args)


def test_gas_state_needs_a_density():
    with pytest.raises(ValueError, match="GasState needs n2 or n3"):
        GasState(T_REF, M_REF)
