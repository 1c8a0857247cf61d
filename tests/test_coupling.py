import math

import pytest
from hypothesis import given, strategies as st

from polbec.core import (
    C_CGS,
    HBAR_CGS,
    geometry_coupling_cgs,
    resonant_coupling_cgs,
)
from polbec.regime import _cooperative_frequency_cgs, strong_coupling_cgs
from polbec.coupling import (
    CavityParams,
    CouplingRegime,
    MediumParams,
    cooperative_frequency,
    coupling_from_geometry,
    is_strong_coupling,
    make_coupling,
    resonant_cavity_length,
    resonant_coupling,
)
from polbec.units import ENERGY, FREQUENCY, Quantity, qty

from core_pairs import assert_finite_or_raises, assert_same_outcome, magnitudes


def example_medium(tau_coh=1e-8):
    """d = 1 D, omega0 = 3.2e15 s^-1 (E0 = hbar*omega0), n3 = 3.5e11 cm^-3."""
    return MediumParams(
        transition_energy=Quantity(HBAR_CGS * 3.2e15, ENERGY),
        dipole_moment=qty(1.0, "D"),
        density=qty(3.5e11, "cm^-3"),
        coherence_time=qty(tau_coh, "s"),
    )


class TestCooperativeFrequency:
    def test_reference_value(self):
        # frozen from a 50-digit mpmath evaluation of sqrt(2 pi d^2 w0 n / hbar)
        omega_c = cooperative_frequency(example_medium())
        assert omega_c.cgs == pytest.approx(2583216850.655, rel=1e-10)

    def test_high_precision_cross_check(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        hbar = mp.mpf("6.62607015e-27") / (2 * mp.pi)
        expected = mp.sqrt(
            2 * mp.pi * mp.mpf("1e-18") ** 2 * mp.mpf("3.2e15") * mp.mpf("3.5e11") / hbar
        )
        omega_c = cooperative_frequency(example_medium())
        assert omega_c.cgs == pytest.approx(float(expected), rel=1e-13)

    def test_sqrt_scaling_in_density(self):
        m = example_medium()
        m4 = MediumParams(m.transition_energy, m.dipole_moment, m.density * 4, m.coherence_time)
        assert cooperative_frequency(m4).cgs == pytest.approx(
            2 * cooperative_frequency(m).cgs, rel=1e-15
        )

    def test_linear_scaling_in_dipole(self):
        m = example_medium()
        m2 = MediumParams(m.transition_energy, m.dipole_moment * 2, m.density, m.coherence_time)
        assert cooperative_frequency(m2).cgs == pytest.approx(
            2 * cooperative_frequency(m).cgs, rel=1e-15
        )

    def test_si_entry_path(self):
        # Gaussian-form expression; si-tagged inputs convert before evaluation
        from polbec.units import convert

        m = example_medium()
        m_si = MediumParams(
            convert(m.transition_energy, "si"),
            convert(m.dipole_moment, "si"),
            convert(m.density, "si"),
            convert(m.coherence_time, "si"),
        )
        assert cooperative_frequency(m_si).cgs == pytest.approx(
            cooperative_frequency(m).cgs, rel=1e-12
        )

    def test_power_laws_random(self):
        rng_scales = [1.7, 3.3, 10.0, 123.4]
        m = example_medium()
        base = cooperative_frequency(m).cgs
        for s in rng_scales:
            mn = MediumParams(m.transition_energy, m.dipole_moment, m.density * s, m.coherence_time)
            md = MediumParams(m.transition_energy, m.dipole_moment * s, m.density, m.coherence_time)
            assert cooperative_frequency(mn).cgs == pytest.approx(base * math.sqrt(s), rel=1e-13)
            assert cooperative_frequency(md).cgs == pytest.approx(base * s, rel=1e-13)


class TestRegime:
    def test_example_ratio(self):
        check = is_strong_coupling(example_medium(tau_coh=1e-8))
        assert check.ratio == pytest.approx(51.66433701309, rel=1e-9)
        assert check.regime is CouplingRegime.STRONG

    def test_forced_strong(self):
        # ratio = 100 via tau_coh tuned to the frozen omega_c
        tau = 100 / (2 * 2583216850.6554667)
        check = is_strong_coupling(example_medium(tau_coh=tau))
        assert check.ratio == pytest.approx(100.0, rel=1e-9)
        assert check.regime is CouplingRegime.STRONG

    def test_forced_weak(self):
        tau = 1.0 / (2 * 2583216850.6554667)
        check = is_strong_coupling(example_medium(tau_coh=tau))
        assert check.ratio == pytest.approx(1.0, rel=1e-9)
        assert check.regime is CouplingRegime.WEAK

    def test_threshold_is_configurable(self):
        m = example_medium(tau_coh=1e-8)  # ratio ~ 51.7
        assert is_strong_coupling(m, threshold=10).regime is CouplingRegime.STRONG
        assert is_strong_coupling(m, threshold=100).regime is CouplingRegime.WEAK

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        # nan and inf would always read as weak, 0 and below always as strong
        with pytest.raises(ValueError, match=f"^threshold must be positive and finite, "
                                             f"got {threshold}$"):
            is_strong_coupling(example_medium(), threshold=threshold)

    def test_monotone_in_tau_and_density(self):
        taus = [1e-10, 1e-9, 1e-8, 1e-7]
        ratios = [is_strong_coupling(example_medium(tau_coh=t)).ratio for t in taus]
        assert ratios == sorted(ratios)
        m = example_medium()
        densities = [1e10, 1e11, 1e12]
        ratios = [
            is_strong_coupling(
                MediumParams(m.transition_energy, m.dipole_moment, qty(n, "cm^-3"), m.coherence_time)
            ).ratio
            for n in densities
        ]
        assert ratios == sorted(ratios)


class TestCouplingParams:
    def test_transition_frequency_is_E0_over_hbar(self):
        omega0 = example_medium().transition_frequency
        assert omega0.dimension == FREQUENCY
        assert omega0.cgs == pytest.approx(3.2e15, rel=1e-15)

    def test_k_perp_definition(self):
        # m = 2, L_cav = 1 cm -> k_perp = 2 pi cm^-1
        medium = example_medium()
        cavity = CavityParams(qty(1.0, "cm"), 2, qty(0.1, "cm"))
        cp = make_coupling(medium, cavity, qty(1.0, "meV"))
        assert cp.k_perp.cgs == pytest.approx(2 * math.pi, rel=1e-15)

    def test_resonant_length_gives_zero_detuning(self):
        medium = MediumParams(
            qty(2.104, "eV"), qty(1.0, "D"), qty(3.5e11, "cm^-3"), qty(1e-8, "s")
        )
        for m in (1, 2, 7):
            length = resonant_cavity_length(medium, m)
            cavity = CavityParams(length, m, qty(0.1, "cm"))
            cp = make_coupling(medium, cavity, qty(1.0, "meV"))
            assert abs(cp.delta.cgs) <= 1e-12 * medium.transition_energy.cgs

    def test_resonant_length_value(self):
        # pi*hbar*c/E0 at 2.104 eV; frozen from mpmath; half the transition wavelength
        medium = MediumParams(
            qty(2.104, "eV"), qty(1.0, "D"), qty(3.5e11, "cm^-3"), qty(1e-8, "s")
        )
        length = resonant_cavity_length(medium, 1)
        assert length.cgs == pytest.approx(2.946392548317e-5, rel=1e-10)
        assert length.cgs == pytest.approx(2.95e-5, rel=0.01)
        wavelength = 2 * math.pi * HBAR_CGS * C_CGS / medium.transition_energy.cgs
        assert length.cgs == pytest.approx(wavelength / 2, rel=1e-15)

    def test_length_linear_in_mode_index(self):
        medium = example_medium()
        l1 = resonant_cavity_length(medium, 1)
        l2 = resonant_cavity_length(medium, 2)
        assert l2.cgs == pytest.approx(2 * l1.cgs, rel=1e-15)

    def test_positive_detuning_example(self):
        # mode tuned to hbar*c*k_perp = 2.100 eV under E0 = 2.104 eV: Delta = +4 meV
        e0 = qty(2.104, "eV")
        e_mode = qty(2.100, "eV")
        length = Quantity(math.pi * HBAR_CGS * C_CGS / e_mode.cgs, qty(1, "cm").dimension)
        cp = coupling_from_geometry(e0, length, 1, qty(1.0, "meV"))
        assert cp.delta.in_unit("meV") == pytest.approx(4.0, rel=1e-11)

    def test_explicit_detuning_is_exact(self):
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
        assert cp.delta.cgs == 0.0
        cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"), qty(-4.0, "meV"))
        assert cp.delta.in_unit("meV") == -4.0

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            CavityParams(qty(1.0, "cm"), 0, qty(0.1, "cm"))
        with pytest.raises(ValueError):
            MediumParams(qty(-1.0, "eV"), qty(1.0, "D"), qty(1e11, "cm^-3"), qty(1e-8, "s"))


class TestResonantCavityLength:
    @pytest.mark.parametrize("mode_index", [0, -1, 1.5])
    def test_rejects_a_mode_index_that_is_no_positive_integer(self, mode_index):
        with pytest.raises(ValueError, match="mode_index must be an integer >= 1"):
            resonant_cavity_length(example_medium(), mode_index)


# cgs magnitudes: E0 (erg, ~0.1 meV to 100 eV), d (esu cm, ~1e-3 to 1e3 D),
# n3 (cm^-3), tau_coh (s), L_cav (cm), g (erg), Delta (erg, signed)
E0 = (1e-16, 1e-10)
D = (1e-21, 1e-15)
N3 = (1e3, 1e20)
TAU = (1e-15, 1e-3)
L_CAV = (1e-5, 1e2)
G = (1e-18, 1e-12)
MODE_INDEX = st.integers(1, 10**6) | st.sampled_from([0, -1])


def medium(e0, d, n3, tau):
    return MediumParams(qty(e0, "erg"), qty(d, "esu*cm"), qty(n3, "cm^-3"), qty(tau, "s"))


class TestOperationsEqualTheirCores:
    """Each operation on magnitudes against the core it wraps: the same
    value bit for bit, or the same error."""

    @given(e0=magnitudes(*E0), d=magnitudes(*D), n3=magnitudes(*N3), tau=magnitudes(*TAU),
           threshold=st.floats(1e-3, 1e3))
    def test_is_strong_coupling(self, e0, d, n3, tau, threshold):
        assert_same_outcome(
            lambda *a: is_strong_coupling(medium(*a[:4]), a[4]), strong_coupling_cgs,
            [e0, d, n3, tau, threshold], [e0, d, n3, tau, threshold],
            view=lambda c: (c.omega_c.cgs, c.decoherence_rate.cgs, c.ratio, c.regime))

    @given(e0=magnitudes(*E0, invalid=False), d=magnitudes(*D, invalid=False),
           n3=magnitudes(*N3, invalid=False))
    def test_cooperative_frequency(self, e0, d, n3):
        assert_same_outcome(lambda *a: cooperative_frequency(medium(*a, 1e-8)),
                            _cooperative_frequency_cgs, [e0, d, n3], [e0, d, n3])

    @given(e0=magnitudes(*E0), length=magnitudes(*L_CAV), mode_index=MODE_INDEX,
           g=magnitudes(*G))
    def test_coupling_from_geometry(self, e0, length, mode_index, g):
        assert_same_outcome(
            coupling_from_geometry, geometry_coupling_cgs,
            [qty(e0, "erg"), qty(length, "cm"), mode_index, qty(g, "erg")],
            [e0, length, mode_index, g], view=lambda c: (c.k_perp.cgs, c.delta.cgs))

    @given(e0=magnitudes(*E0), g=magnitudes(*G), delta=st.just(0.0) | magnitudes(*E0),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_resonant_coupling(self, e0, g, delta, sign):
        delta *= sign
        assert_same_outcome(resonant_coupling, resonant_coupling_cgs,
                            [qty(e0, "erg"), qty(g, "erg"), qty(delta, "erg")], [e0, g, delta],
                            view=lambda c: c.k_perp.cgs)


@given(e0=magnitudes(*E0, invalid=False), mode_index=MODE_INDEX)
def test_resonant_cavity_length_is_finite_or_raises(e0, mode_index):
    # no command runs it, so it computes on its own, with no core to agree with
    assert_finite_or_raises(resonant_cavity_length, [medium(e0, 1e-18, 3.5e11, 1e-8), mode_index])
