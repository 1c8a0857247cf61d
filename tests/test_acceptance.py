"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the one-line verdicts.
Every tolerance is pinned here, not configurable.
"""

import math
import time

import mpmath
import numpy as np
import pytest
import scipy.constants
from scipy.integrate import quad

from polbec.cli import main
from polbec.branches import branch_energies, hopfield_fractions
from polbec.core import C_CGS, HBAR_CGS, KB_CGS
from polbec.coupling import resonant_coupling
from polbec.dispersion import ModeProblem, diagonalize_mode, well_geometry
from polbec.thermo import (
    GasState,
    TrapSpec,
    chemical_potential,
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
from polbec.trap import design_trap, lens_for_omega, omega_for_lens
from polbec.units import ENERGY, Quantity, qty

from eigen_oracle import oracle_branch_arrays

M_REF = qty(5e-33, "g")
T300 = qty(300.0, "K")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:02d} {name}: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_01_thermal_wavelength():
    lam = thermal_wavelength(M_REF, T300).cgs
    dev = abs(lam - 1.84e-4) / 1.84e-4
    report(1, "thermal wavelength 1.84e-4 cm within 1%", dev <= 0.01,
           f"lambda_T = {lam:.6e} cm, dev {dev:.2%}")


def test_02_degeneracy_at_room_temperature():
    t_d = degeneracy_temperature(qty(0.3e8, "cm^-2"), M_REF).cgs
    dev = abs(t_d - 300.0) / 300.0
    report(2, "degeneracy temperature 300 K within 2%", dev <= 0.02,
           f"T_d = {t_d:.4f} K, dev {dev:.2%}")


def test_03_trapped_bec_at_room_temperature():
    # Oracle: the density form T_c = 2 pi hbar^2 n2 / (1.645 m kB), evaluated
    # at 40 digits in mpmath from the exact SI values of h and kB in
    # scipy.constants (times 1e7 for CGS), independent of polbec.units.  For
    # n2 = 0.5e8 cm^-2 and m = 5e-33 g it gives 307.668479708543 K, not
    # 300 K: the paper claims only "room temperature", and a 300 K figure is
    # a rounding (3-digit constants hbar ~ 1.05e-27, kB ~ 1.38e-16 alone
    # give 305.15 K).  So the claim is checked as the program states it: a
    # gas at 300 K in this trap lies below T_c and holds a condensate.  The
    # density and particle-number forms must agree through N = N2(T_c) to
    # 1e-10.
    with mpmath.workdps(40):
        h_cgs = mpmath.mpf(scipy.constants.h) * 10**7
        kb_cgs = mpmath.mpf(scipy.constants.k) * 10**7
        hbar_cgs = h_cgs / (2 * mpmath.pi)
        expected = (2 * mpmath.pi * hbar_cgs**2 * mpmath.mpf("0.5e8")
                    / (mpmath.mpf("1.645") * mpmath.mpf("5e-33") * kb_cgs))

    n2 = qty(0.5e8, "cm^-2")
    t_c = trapped_bec_temperature(n2, M_REF)
    exact_dev = float(abs(t_c.cgs - expected) / expected)

    omega = qty(5.0e10, "s^-1")
    rep = condensation_report(GasState(temperature=T300, m_eff=M_REF, n2=n2), TrapSpec(omega))
    condensed = rep.condensate_frac > 0.0 and t_c.cgs > 300.0

    n_at_tc = trapped_number(n2, t_c, omega, M_REF)
    t_back = trapped_bec_temperature_from_N(n_at_tc, omega)
    forms_agree = abs(t_back.cgs - t_c.cgs) / t_c.cgs <= 1e-10

    report(3, "trapped T_c = CODATA closed form to 1e-12, condensate at 300 K, forms agree",
           exact_dev <= 1e-12 and condensed and forms_agree,
           f"T_c = {t_c.cgs:.4f} K, oracle dev {exact_dev:.2e}, "
           f"N0/N at 300 K = {rep.condensate_frac:.4f}, forms agree: {forms_agree}")


def test_04_kt_ratio_exact():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n2 = qty(10 ** rng.uniform(4, 10), "cm^-2")
        m = qty(10 ** rng.uniform(-34, -30), "g")
        ratio = kt_temperature(n2, m).cgs / degeneracy_temperature(n2, m).cgs
        worst = max(worst, abs(ratio - 0.25) / 0.25)
    elapsed = time.monotonic() - start
    report(4, "T_KT/T_d = 1/4 to 1e-12 over 1000 inputs", worst <= 1e-12 and elapsed < 1.0,
           f"worst rel dev {worst:.2e}, {elapsed:.2f} s")


def test_05_interparticle_distance_and_overlap():
    state = GasState(temperature=T300, m_eff=M_REF, n2=qty(0.5e8, "cm^-2"))
    rep = condensation_report(state)
    dev = abs(rep.r_int.cgs - 1.41e-4) / 1.41e-4
    overlap = rep.lambda_t.cgs >= rep.r_int.cgs
    report(5, "r_int 1.41e-4 cm within 1% and wavefunction overlap", dev <= 0.01 and overlap,
           f"r_int = {rep.r_int.cgs:.6e} cm, dev {dev:.2%}, overlap {overlap}")


def test_06_resonance_composition():
    e0 = qty(2.104, "eV")
    g = qty(1.0, "meV")
    bp = diagonalize_mode(ModeProblem(e0, e0, g))
    mu_ok = abs(bp.mu_sq - 0.5) <= 1e-12 and abs(bp.nu_sq - 0.5) <= 1e-12
    gap = bp.e_upper.cgs - bp.e_lower.cgs
    gap_ok = abs(gap - 2 * g.cgs) <= 1e-12 * 2 * g.cgs
    masses = effective_masses(resonant_coupling(e0, g))
    m_ok = (
        abs(masses.m_upper.cgs - 2 * masses.m_ph.cgs) <= 1e-12 * masses.m_ph.cgs
        and abs(masses.m_lower.cgs - 2 * masses.m_ph.cgs) <= 1e-12 * masses.m_ph.cgs
    )
    report(6, "resonance: mu2 = nu2 = 1/2, gap = 2g, masses = 2 m_ph", mu_ok and gap_ok and m_ok,
           f"mu2 = {bp.mu_sq}, gap/2g = {gap / (2 * g.cgs):.15f}")


def test_07_oracle_equivalence_million():
    start = time.monotonic()
    rng = np.random.default_rng(123)
    n = 1_000_000
    e_at = rng.uniform(0.5, 3.0, n)
    e_ph = rng.uniform(0.5, 3.0, n)
    g = rng.uniform(1e-3, 0.3, n)
    e1, e2 = branch_energies(e_at, e_ph, g)
    mu2, nu2 = hopfield_fractions(e_at - e_ph, g)
    o1, o2, om, on = oracle_branch_arrays(e_at, e_ph, g)
    worst = max(
        np.max(np.abs(e1 - o1) / np.abs(o1)),
        np.max(np.abs(e2 - o2) / np.abs(o2)),
        np.max(np.abs(mu2 - om) / np.abs(om)),
        np.max(np.abs(nu2 - on) / np.abs(on)),
    )
    elapsed = time.monotonic() - start
    report(7, "closed form vs eigen-oracle on 1e6 triples <= 1e-10",
           worst <= 1e-10 and elapsed < 30.0,
           f"max rel dev {worst:.2e}, {elapsed:.1f} s")


def test_08_chemical_potential_quadrature():
    start = time.monotonic()
    n2 = qty(0.3e8, "cm^-2")
    t_d = degeneracy_temperature(n2, M_REF).cgs
    worst = 0.0
    for t_over_td in (0.1, 0.5, 1.0, 2.0, 10.0):
        t_k = t_over_td * t_d
        mu = chemical_potential(GasState(temperature=qty(t_k, "K"), m_eff=M_REF, n2=n2)).cgs
        beta = 1.0 / (KB_CGS * t_k)
        a = -mu * beta
        knees = sorted({min(max(a * f, 1e-12), 59.0) for f in (1.0, 10.0, 1e3)})
        integral, _ = quad(
            lambda u: 1.0 / math.expm1(u + a), 0.0, 60.0,
            points=knees, limit=400, epsabs=0.0, epsrel=1e-11,
        )
        n2_back = M_REF.cgs / (2.0 * math.pi * HBAR_CGS**2 * beta) * integral
        worst = max(worst, abs(n2_back - n2.cgs) / n2.cgs)
    elapsed = time.monotonic() - start
    report(8, "mu reproduces n2 through the 2D Bose integral to 1e-6",
           worst <= 1e-6 and elapsed < 5.0,
           f"worst rel dev {worst:.2e}, {elapsed:.2f} s")


def test_09_well_geometry():
    start = time.monotonic()
    e0 = qty(2.104, "eV")
    g = Quantity(1e-4 * e0.cgs, ENERGY)  # window edge at 200 g
    cp = resonant_coupling(e0, g)
    well = well_geometry(cp, e0)
    depth_dev = abs(well.depth.cgs / g.cgs - 1.0)
    m_eff = effective_masses(cp).m_lower
    curvature = transverse_energy(well.inflection_k, m_eff).cgs
    in_band = 0.2 * g.cgs <= curvature <= 5 * g.cgs
    elapsed = time.monotonic() - start
    report(9, "well depth -> g within 1% and curvature energy in [0.2g, 5g]",
           depth_dev <= 0.01 and in_band and elapsed < 1.0,
           f"depth/g = {well.depth.cgs / g.cgs:.5f}, curvature/g = {curvature / g.cgs:.4f}, "
           f"{elapsed:.2f} s")


def test_10_gradient_checks():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        k = 10 ** rng.uniform(0, 5)
        m = 10 ** rng.uniform(-34, -30)
        h = 1e-4 * k
        fd = (
            transverse_energy(qty(k + h, "cm^-1"), qty(m, "g")).cgs
            - transverse_energy(qty(k - h, "cm^-1"), qty(m, "g")).cgs
        ) / (2 * HBAR_CGS * h)
        v = group_velocity(qty(k, "cm^-1"), qty(m, "g")).cgs
        worst = max(worst, abs(v - fd) / abs(fd))
    cp = resonant_coupling(qty(2.104, "eV"), qty(1.0, "meV"))
    masses = effective_masses(cp)
    v = group_velocity(qty(0.01 * cp.k_perp.cgs, "cm^-1"), masses.m_lower).cgs
    slow_dev = abs(v / C_CGS - 0.005) / 0.005
    elapsed = time.monotonic() - start
    report(10, "group velocity: gradient check 1e-8 and v = 0.005c at 0.01 k_perp",
           worst <= 1e-8 and slow_dev <= 1e-10 and elapsed < 1.0,
           f"gradient dev {worst:.2e}, slow-light dev {slow_dev:.2e}")


def test_11_trap_round_trip():
    e_char = qty(2.1, "eV")
    design = design_trap(T300, 1e6, M_REF, e_char)
    t_back = trapped_bec_temperature_from_N(1e6, design.omega_eff)
    tc_dev = abs(t_back.cgs - 300.0) / 300.0
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        omega = qty(10 ** rng.uniform(6, 12), "s^-1")
        m = qty(10 ** rng.uniform(-34, -30), "g")
        lens = lens_for_omega(omega, m, e_char, n0=1.0)
        back = omega_for_lens(lens, m, e_char)
        worst = max(worst, abs(back.cgs - omega.cgs) / omega.cgs)
    report(11, "trap design round trips (1e-10) and lens/omega invert (1e-12)",
           tc_dev <= 1e-10 and worst <= 1e-12,
           f"T_c dev {tc_dev:.2e}, lens inversion dev {worst:.2e}")


ACCEPTANCE_CFG = """\
E0 = 2.104 eV
d = 1 D
n3 = 3.5e11 cm^-3
tau_coh = 1e-8 s
mode_index = 33940
Delta = 0 eV
g = 1 meV
d_beam = 2e-4 cm
T = 300 K
m_eff = 5e-33 g
n2 = 0.5e8 cm^-2
omega_eff = 5.0e10 s^-1
"""


def test_12_cli_determinism(tmp_path):
    start = time.monotonic()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ACCEPTANCE_CFG)

    def run_bytes(argv, name):
        out = tmp_path / name
        code = main(argv + ["--out", str(out)])
        assert code == 0
        return out.read_bytes()

    disp = ["dispersion", "--config", str(cfg), "--samples", "201"]
    sweep = ["sweep", "--config", str(cfg), "--param", "Delta", "--from", "-0.004",
             "--to", "0.004", "--steps", "11", "--command", "thresholds"]
    outputs = {
        "disp": [
            run_bytes(disp + ["--workers", "1"], "d1.csv"),
            run_bytes(disp + ["--workers", "1"], "d2.csv"),
            run_bytes(disp + ["--workers", "4"], "d3.csv"),
        ],
        "sweep": [
            run_bytes(sweep + ["--workers", "1"], "s1.csv"),
            run_bytes(sweep + ["--workers", "1"], "s2.csv"),
            run_bytes(sweep + ["--workers", "4"], "s3.csv"),
        ],
    }
    ok = all(len(set(group)) == 1 for group in outputs.values())
    elapsed = time.monotonic() - start
    report(12, "dispersion and sweep byte-identical across runs and workers {1,4}",
           ok and elapsed < 5.0, f"{elapsed:.2f} s")


def test_13_density_bracket():
    dense = condensation_report(
        GasState(temperature=T300, m_eff=M_REF, n3=qty(3.5e11, "cm^-3"))
    )
    dilute = condensation_report(
        GasState(temperature=T300, m_eff=M_REF, n3=qty(1e10, "cm^-3"))
    )
    ok = dense.degenerate and not dilute.degenerate and dilute.t_degeneracy.cgs < 100.0
    report(13, "density bracket: 3.5e11 cm^-3 degenerate at 300 K, <= 1e10 not",
           ok,
           f"T_d dense = {dense.t_degeneracy.cgs:.1f} K, "
           f"T_d dilute = {dilute.t_degeneracy.cgs:.1f} K")
