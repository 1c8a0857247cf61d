"""Identities of the model that link printed outputs of the CLI.

The golden digests pin bytes, and the oracles check a column against its own
formula; neither sees a quantity wired to the wrong stage or command.  Each
test here runs polbec to an output file, reads the printed cells back, and
checks an exact identity between them, with the constants taken from
scipy.constants, not from polbec.

A printed cell is its double rounded to 12 significant digits, so it is off
from that double by at most half a unit in the 12th digit: 5e-12 of the
cell, at a leading digit of 1.  A product of printed cells raised to powers
p_i is then off by at most sum |p_i| * 5e-12 of itself, to first order.  An
identity between two such products holds to the sum of both sides' bounds,
and 1e-14 more covers the roundings of the doubles on both sides.
"""

import math
from pathlib import Path

import pytest
from scipy.constants import hbar, k as k_B

from polbec.cli import main

EXAMPLE = (Path(__file__).resolve().parents[1] / "example.cfg").read_text()

# half a unit in the 12th significant digit, relative to a cell
HALF_DIGIT = 5e-12


def tolerance(*powers: float) -> float:
    """The relative tolerance of an identity between products of printed
    cells with these powers, on both sides."""
    return HALF_DIGIT * sum(map(abs, powers)) + 1e-14


def printed_rows(tmp_path, config: str, argv: list[str]) -> list[dict]:
    """The rows of the CSV table polbec writes to a file in tmp_path, each
    cell by its column's name, as text."""
    cfg = tmp_path / f"{argv[0]}.cfg"
    cfg.write_text(config)
    out = tmp_path / f"{argv[0]}.csv"
    assert main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()
                     if not line.startswith("#")]
    return [dict(zip(header, row)) for row in rows]


@pytest.fixture(scope="module")
def log_t_sweep(tmp_path_factory):
    # example.cfg gives n2 and no n_s, so T_KT is taken at n_s = n2
    assert "n_s" not in EXAMPLE
    return printed_rows(tmp_path_factory.mktemp("sweep"), EXAMPLE, [
        "sweep", "--param", "T", "--from", "2", "--to", "2000", "--steps", "401",
        "--scale", "log", "--command", "thresholds"])


def test_kt_temperature_is_a_quarter_of_the_degeneracy_temperature(log_t_sweep):
    # T_KT = pi hbar^2 n_s / (2 m kB) and T_d = 2 pi hbar^2 n2 / (m kB) at n_s = n2
    for row in log_t_sweep:
        assert float(row["T_KT_K"]) == pytest.approx(
            float(row["T_d_K"]) / 4, rel=tolerance(1, 1), abs=0), row["T_K"]


def test_trapped_number_gives_the_geometric_mean_temperature(log_t_sweep):
    # N2 = 2 pi n2 kB T / (m Omega^2) and T_c = 2 pi hbar^2 n2 / (1.645 m kB),
    # so the number form of T_c at N2, (hbar Omega / kB) sqrt(N2 / 1.645), is
    # sqrt(T T_c); hbar / kB is the same in SI and cgs
    for row in log_t_sweep:
        number_form = (hbar * float(row["omega_eff_s1"]) / k_B
                       * math.sqrt(float(row["N2"]) / 1.645))
        assert number_form == pytest.approx(
            math.sqrt(float(row["T_K"]) * float(row["T_c_K"])),
            rel=tolerance(1, 0.5, 0.5, 0.5), abs=0), row["T_K"]


@pytest.mark.parametrize("delta_meV", [-3, -0.5, 0, 0.5, 3])
def test_mass_ratios_are_the_photon_fractions_at_zero_k(tmp_path, delta_meV):
    # the atoms do not disperse, so a branch's inverse mass is its photon
    # fraction over m_ph: nu_sq for the lower branch and mu_sq for the upper
    # one, at k_par = 0
    config = EXAMPLE.replace("Delta = 0 eV", f"Delta = {delta_meV} meV")
    (masses,) = printed_rows(tmp_path, config, ["masses"])
    at_zero = printed_rows(tmp_path, config, ["hopfield"])[0]
    assert float(masses["Delta_eV"]) == pytest.approx(delta_meV * 1e-3, rel=1e-15)
    assert float(at_zero["k_par_over_k_perp"]) == 0.0
    m_ph = float(masses["m_ph_g"])
    assert m_ph / float(masses["m_lower_g"]) == pytest.approx(
        float(at_zero["nu_sq"]), rel=tolerance(1, 1, 1), abs=0)
    assert m_ph / float(masses["m_upper_g"]) == pytest.approx(
        float(at_zero["mu_sq"]), rel=tolerance(1, 1, 1), abs=0)
