import argparse
import ast
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import polbec
from polbec import cli
from polbec.cli import BOOL_TEXT, build_parser, csv_lines, fmt, fmt_opt, main
from polbec.config import ConfigError, RunConfig, SweepSpec, sweep_values
from polbec.core import EV_ERG
from polbec.curves import curve_json
from test_golden_bytes import CASES, CONFIGS

BASE_CFG = """\
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
"""

TRAP_CFG = BASE_CFG + "omega_eff = 5.0e10 s^-1\n"


def run(tmp_path, config_text, argv, out_name="out.txt"):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    out = tmp_path / out_name
    code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
    data = out.read_bytes() if out.exists() else b""
    return code, data


def parse_csv(data: bytes):
    lines = data.decode().splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    header = body[0].split(",")
    rows = [ln.split(",") for ln in body[1:]]
    return meta, header, rows


class TestCheckCoupling:
    def test_strong_exit_zero(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["check-coupling"])
        assert code == 0
        text = data.decode()
        assert "regime = strong" in text
        assert "omega_c_s1" in text and "ratio" in text

    def test_weak_exit_two(self, tmp_path):
        cfg = BASE_CFG.replace("tau_coh = 1e-8 s", "tau_coh = 1e-12 s")
        code, data = run(tmp_path, cfg, ["check-coupling"])
        assert code == 2
        assert "regime = weak" in data.decode()

    def test_missing_key_names_it(self, tmp_path, capsys):
        cfg = BASE_CFG.replace("d = 1 D\n", "")
        code, _ = run(tmp_path, cfg, ["check-coupling"])
        assert code == 1
        assert "'d'" in capsys.readouterr().err

    def test_threshold_flag(self, tmp_path):
        code, _ = run(tmp_path, BASE_CFG, ["check-coupling", "--threshold", "100"])
        assert code == 2  # ratio ~ 51.6 < 100


class TestDispersion:
    def test_resonant_first_row(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["dispersion", "--samples", "11"])
        assert code == 0
        meta, header, rows = parse_csv(data)
        assert header == [
            "k_par_over_k_perp", "E1_eV", "E2_eV", "mu_sq", "nu_sq",
            "E_ph_paraxial_eV", "E_ph_freespace_eV",
        ]
        first = rows[0]
        assert float(first[0]) == 0.0
        assert float(first[1]) - float(first[2]) == pytest.approx(2e-3, rel=1e-9)
        assert first[3] == "0.5" and first[4] == "0.5"

    def test_sample_count_contract(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["dispersion", "--samples", "101", "--kmax", "0.1"])
        assert code == 0
        _, _, rows = parse_csv(data)
        assert len(rows) == 101
        assert float(rows[-1][0]) == pytest.approx(0.1, rel=1e-12)

    def test_byte_identical_runs(self, tmp_path):
        _, a = run(tmp_path, BASE_CFG, ["dispersion", "--samples", "101"], "a.csv")
        _, b = run(tmp_path, BASE_CFG, ["dispersion", "--samples", "101"], "b.csv")
        assert a == b

    def test_metadata_has_conventions(self, tmp_path):
        _, data = run(tmp_path, BASE_CFG, ["dispersion", "--samples", "11"])
        meta = parse_csv(data)[0]
        joined = "\n".join(meta)
        assert "polbec" in joined
        assert "config sha256" in joined
        assert "Delta_eV" in joined and "g_eV" in joined and "k_perp" in joined
        assert "well:" in joined

    def test_no_well_exits_two(self, tmp_path):
        cfg = BASE_CFG.replace("Delta = 0 eV", "Delta = 0.21 eV")
        code, data = run(tmp_path, cfg, ["dispersion", "--samples", "11"])
        assert code == 2
        assert "well: none" in data.decode()

    def test_json_format(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["dispersion", "--samples", "5", "--format", "json"])
        assert code == 0
        payload = json.loads(data)
        assert payload["columns"][0] == "k_par_over_k_perp"
        assert len(payload["rows"]) == 5


class TestHopfield:
    def test_columns_and_resonance(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["hopfield", "--samples", "5"])
        assert code == 0
        _, header, rows = parse_csv(data)
        assert header == ["k_par_over_k_perp", "delta_eV", "delta_over_g", "mu_sq", "nu_sq"]
        assert rows[0][3] == "0.5"
        # photon fraction of the upper branch grows with k (delta more negative)
        assert float(rows[-1][3]) > 0.9


class TestMasses:
    def test_resonant_row(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["masses"])
        assert code == 0
        _, header, rows = parse_csv(data)
        row = dict(zip(header, rows[0]))
        assert row["Delta_eV"] == "0"
        assert row["m_upper_g"] == row["m_lower_g"]
        m_ph = float(row["m_ph_g"])
        assert float(row["m_upper_g"]) == pytest.approx(2 * m_ph, rel=1e-12)
        # n_s defaults to n2: both KT columns populated and equal at Delta = 0
        assert row["T_KT_upper_K"] == row["T_KT_lower_K"] != ""

    def test_si_units_column_names(self, tmp_path):
        _, data = run(tmp_path, BASE_CFG, ["masses", "--units", "si"])
        _, header, rows = parse_csv(data)
        assert "m_ph_kg" in header
        row = dict(zip(header, rows[0]))
        assert float(row["m_ph_kg"]) == pytest.approx(7.50144136621e-36 / 2, rel=1e-9)

    def test_json(self, tmp_path):
        _, data = run(tmp_path, BASE_CFG, ["masses", "--format", "json"])
        payload = json.loads(data)
        assert payload["m_upper_g"] == payload["m_lower_g"]


class TestThresholds:
    def test_reference_row(self, tmp_path):
        cfg = BASE_CFG.replace("n2 = 0.5e8 cm^-2", "n2 = 0.3e8 cm^-2")
        code, data = run(tmp_path, cfg, ["thresholds"])
        assert code == 0
        _, header, rows = parse_csv(data)
        row = dict(zip(header, rows[0]))
        assert float(row["T_d_K"]) == pytest.approx(303.6687894723, rel=1e-9)
        assert float(row["T_KT_K"]) == pytest.approx(303.6687894723 / 4, rel=1e-9)
        assert row["degenerate"] == "true"
        # no trap in config: T_c stays empty, distinct from zero
        assert row["T_c_K"] == "" and row["omega_eff_s1"] == "" and row["N2"] == ""

    def test_trap_columns_populated(self, tmp_path):
        code, data = run(tmp_path, TRAP_CFG, ["thresholds"])
        assert code == 0
        _, header, rows = parse_csv(data)
        row = dict(zip(header, rows[0]))
        assert float(row["T_c_K"]) == pytest.approx(307.6684797085, rel=1e-9)
        assert float(row["N2"]) == pytest.approx(1040984.82134, rel=1e-9)
        assert float(row["N0_frac"]) == pytest.approx(0.0492277, rel=1e-4)

    def test_m_eff_derived_from_coupling(self, tmp_path):
        cfg = BASE_CFG.replace("m_eff = 5e-33 g\n", "")
        code, data = run(tmp_path, cfg, ["thresholds"])
        assert code == 0
        _, header, rows = parse_csv(data)
        row = dict(zip(header, rows[0]))
        # lower-branch mass at Delta = 0 is 2 m_ph = 2 hbar k_perp / c
        assert float(row["m_eff_g"]) == pytest.approx(7.50144136621e-33, rel=1e-9)

    def test_missing_gas_keys(self, tmp_path, capsys):
        cfg = "E0 = 2.104 eV\nm_eff = 5e-33 g\n"
        code, _ = run(tmp_path, cfg, ["thresholds"])
        assert code == 1
        assert "'T'" in capsys.readouterr().err

    def test_missing_density(self, tmp_path, capsys):
        cfg = "T = 300 K\nm_eff = 5e-33 g\n"
        code, _ = run(tmp_path, cfg, ["thresholds"])
        assert code == 1
        err = capsys.readouterr().err
        assert "n2" in err and "n3" in err

    def test_json_nulls_without_trap(self, tmp_path):
        _, data = run(tmp_path, BASE_CFG, ["thresholds", "--format", "json"])
        payload = json.loads(data)
        assert payload["T_c_K"] is None
        assert payload["degenerate"] is True

    def test_format_default_from_config(self, tmp_path):
        _, data = run(tmp_path, BASE_CFG + "format = json\n", ["thresholds"])
        payload = json.loads(data)  # config key selects JSON without a flag
        assert payload["T_d_K"] == pytest.approx(506.1146491206, rel=1e-9)

    def test_csv_dialect_bytes(self, tmp_path):
        _, data = run(tmp_path, BASE_CFG, ["thresholds"])
        assert data.endswith(b"\n")
        assert b"\r" not in data

    def test_mu_where_its_erg_value_is_subnormal(self, tmp_path):
        # T_d/T from 767 down to 703: mu in erg would be subnormal or 0 in
        # every row; in meV it is a normal double at 0.72 K, and below the
        # smallest double at 0.66 and 0.68 K.  The oracle is the closed form
        # at 40 digits in mpmath, with h, kB and e from scipy.constants.
        import mpmath
        import scipy.constants

        cfg = "T = 1 K\nm_eff = 5e-33 g\nn2 = 0.5e8 cm^-2\n"
        code, data = run(tmp_path, cfg, ["sweep", "--param", "T", "--from", "0.66", "--to",
                                         "0.72", "--steps", "4", "--command", "thresholds"])
        assert code == 0
        _, header, rows = parse_csv(data)
        printed = {row[0]: row[header.index("mu_meV")] for row in rows}
        with mpmath.workdps(40):
            hbar = mpmath.mpf(scipy.constants.h) * 10**7 / (2 * mpmath.pi)
            kb = mpmath.mpf(scipy.constants.k) * 10**7
            mev = mpmath.mpf(scipy.constants.e) * 10**4  # erg
            t_d = 2 * mpmath.pi * hbar**2 * mpmath.mpf("0.5e8") / (mpmath.mpf("5e-33") * kb)

            def mu_mev(t):
                t = mpmath.mpf(t)
                return kb * t * mpmath.log1p(-mpmath.exp(-t_d / t)) / mev

            expected = float(mu_mev("0.72"))
            assert float(printed["0.72"]) == pytest.approx(expected, rel=1e-11, abs=0)
            for t in ("0.66", "0.68"):
                assert printed[t] == "-0"
                assert 0 < -mu_mev(t) < mpmath.mpf(math.ulp(0.0)) / 2  # rounds to -0

    LAMBDA_NOTE = "lambda_T = h / sqrt(2 pi m kB T)"
    MU_NOTE = "mu = kB T ln(1 - exp(-T_d/T))"
    N2_NOTE = "n2 estimated as lambda_T(T) * n3"
    MU_ZERO_NOTE = "|mu| below 1e-13 kB T; effectively 0-"
    NO_TRAP_NOTE = "omega_eff = 0: no trap confinement, T_c = 0"

    @pytest.mark.parametrize("edits, extra", [
        ({}, []),
        ({"n2 = 0.5e8 cm^-2\n": ""}, [N2_NOTE]),
        ({"T = 300 K": "T = 10 K"}, [MU_ZERO_NOTE]),  # T_d/T = 50.6 > 30
        ({"T = 300 K": "T = 10 K", "n2 = 0.5e8 cm^-2": "omega_eff = 0 s^-1"},
         [N2_NOTE, MU_ZERO_NOTE, NO_TRAP_NOTE]),
        ({"n2 = 0.5e8 cm^-2": "n2 = 0.5e8 cm^-2\nomega_eff = 0 s^-1"}, [NO_TRAP_NOTE]),
    ], ids=["base", "n2-estimated", "mu-zero", "all", "omega_eff-0"])
    def test_notes_text_and_order(self, tmp_path, edits, extra):
        # the thresholds table's '# note:' lines and CondensationReport.notes
        from polbec.thermo import GasState, TrapSpec, condensation_report
        from polbec.units import qty

        cfg = BASE_CFG
        for old, new in edits.items():
            cfg = cfg.replace(old, new)
        expected = [self.LAMBDA_NOTE, self.MU_NOTE, *extra]
        code, data = run(tmp_path, cfg, ["thresholds"])
        assert code == 0
        meta, _, _ = parse_csv(data)
        assert [m for m in meta if m.startswith("# note: ")] == [f"# note: {n}" for n in expected]

        values = {key.strip(): raw.split() for key, _, raw in
                  (line.partition("=") for line in cfg.splitlines())}
        q = lambda key: None if key not in values else qty(float(values[key][0]), values[key][1])
        state = GasState(q("T"), q("m_eff"), q("n2"), q("n3"))
        trap = None if "omega_eff" not in values else TrapSpec(q("omega_eff"))
        assert condensation_report(state, trap).notes == tuple(expected)


class TestTrap:
    def test_reference_design(self, tmp_path):
        code, data = run(tmp_path, BASE_CFG, ["trap", "--target-tc", "300", "--n-particles", "1e6"])
        assert code == 0
        payload = json.loads(data)
        assert set(payload) == {
            "omega_eff_s1", "omega_at_s1", "n_prime_cm2", "n0", "r_max_cm",
            "E_char_eV", "assumption_note",
        }
        assert payload["omega_eff_s1"] == pytest.approx(50374567153.82, rel=1e-10)
        assert payload["omega_at_s1"] is None
        assert payload["E_char_eV"] == pytest.approx(2.104)  # defaults to E0
        assert "E_char" in payload["assumption_note"]

    def test_n_scaling(self, tmp_path):
        _, a = run(tmp_path, BASE_CFG, ["trap", "--target-tc", "300", "--n-particles", "1e6"], "a.json")
        _, b = run(tmp_path, BASE_CFG, ["trap", "--target-tc", "300", "--n-particles", "2e6"], "b.json")
        ja, jb = json.loads(a), json.loads(b)
        assert jb["omega_eff_s1"] == pytest.approx(ja["omega_eff_s1"] / 2**0.5, rel=1e-12)

    def test_explicit_e_char_and_omega_at(self, tmp_path):
        cfg = BASE_CFG + "E_char = 2.1 eV\nomega_at = 1e5 s^-1\nn0 = 1.5\n"
        _, data = run(tmp_path, cfg, ["trap", "--target-tc", "300", "--n-particles", "1e6"])
        payload = json.loads(data)
        assert payload["E_char_eV"] == pytest.approx(2.1)
        assert payload["omega_at_s1"] == pytest.approx(1e5)
        assert payload["n0"] == 1.5

    def test_nonpositive_target_rejected(self, tmp_path, capsys):
        # NaN is no positive value: it fails as -1 does, naming the options
        for target_tc, n_particles in [("-1", "1e6"), ("300", "0"), ("nan", "1e6"),
                                       ("300", "nan")]:
            code, data = run(tmp_path, BASE_CFG,
                             ["trap", "--target-tc", target_tc, "--n-particles", n_particles])
            assert (code, data) == (1, b"")
            assert capsys.readouterr().err == (
                "polbec: config error: --target-tc and --n-particles (or the key 'N') "
                "must be positive\n")

    def test_n_particles_wins_over_the_key(self, tmp_path):
        _, flag = run(tmp_path, BASE_CFG + "N = 1e6\n",
                      ["trap", "--target-tc", "300", "--n-particles", "2e6"], "a")
        _, key = run(tmp_path, BASE_CFG + "N = 2e6\n", ["trap", "--target-tc", "300"], "b")
        assert flag == key

    @pytest.mark.parametrize("config_text, argv", [
        (BASE_CFG, []),
        (BASE_CFG + "N = 0\n", []),
        (BASE_CFG + "N = -1e6\n", []),
        (BASE_CFG + "N = 1e6\n", ["--n-particles", "0"]),
        (BASE_CFG + "N = 1e6\n", ["--n-particles", "nan"]),
    ])
    def test_missing_or_non_positive_count_names_flag_and_key(
            self, tmp_path, capsys, config_text, argv):
        code, data = run(tmp_path, config_text, ["trap", "--target-tc", "300", *argv])
        assert (code, data) == (1, b"")
        err = capsys.readouterr().err
        assert "--n-particles" in err and "'N'" in err


class TestSweep:
    def test_masses_cross_at_resonance(self, tmp_path):
        code, data = run(
            tmp_path, BASE_CFG,
            ["sweep", "--param", "Delta", "--from", "-0.004", "--to", "0.004",
             "--steps", "11", "--command", "masses"],
        )
        assert code == 0
        _, header, rows = parse_csv(data)
        assert header[0] == "sweep_Delta_eV"
        assert len(rows) == 11
        by_delta = {row[0]: row for row in rows}
        zero = dict(zip(header, by_delta["0"]))
        assert zero["m_upper_g"] == zero["m_lower_g"]
        for key, row in by_delta.items():
            r = dict(zip(header, row))
            if key == "0":
                assert r["T_KT_upper_K"] == r["T_KT_lower_K"]
            else:
                assert r["T_KT_upper_K"] != r["T_KT_lower_K"]

    def test_row_group_count(self, tmp_path):
        code, data = run(
            tmp_path, BASE_CFG,
            ["sweep", "--param", "n2", "--from", "1e7", "--to", "1e8",
             "--steps", "4", "--scale", "log", "--command", "thresholds"],
        )
        assert code == 0
        _, header, rows = parse_csv(data)
        assert len(rows) == 4
        # ascending sweep order
        values = [float(r[0]) for r in rows]
        assert values == sorted(values)

    def test_dispersion_target_groups(self, tmp_path):
        code, data = run(
            tmp_path, BASE_CFG,
            ["sweep", "--param", "g", "--from", "0.0005", "--to", "0.002",
             "--steps", "3", "--command", "dispersion", "--samples", "5"],
        )
        assert code == 0
        _, header, rows = parse_csv(data)
        assert len(rows) == 15  # 3 groups x 5 grid rows

    def test_worker_counts_byte_identical(self, tmp_path):
        argv = ["sweep", "--param", "Delta", "--from", "-0.002", "--to", "0.002",
                "--steps", "9", "--command", "thresholds"]
        _, a = run(tmp_path, TRAP_CFG, argv + ["--workers", "1"], "w1.csv")
        _, b = run(tmp_path, TRAP_CFG, argv + ["--workers", "4"], "w4.csv")
        assert a == b

    def test_non_numeric_leaf_rejected(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, BASE_CFG,
            ["sweep", "--param", "format", "--from", "0", "--to", "1",
             "--steps", "3", "--command", "masses"],
        )
        assert code == 1
        assert "non-numeric" in capsys.readouterr().err


class TestParsingErrors:
    def test_unknown_config_key(self, tmp_path, capsys):
        code, _ = run(tmp_path, BASE_CFG + "banana = 1 cm\n", ["masses"])
        assert code == 1
        assert "banana" in capsys.readouterr().err

    def test_missing_config_file(self, capsys):
        code = main(["masses", "--config", "/nonexistent/path.cfg"])
        assert code == 1

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ("T = 300 K", "T = 300 K\nomega_eff = nan s^-1", "omega_eff"),
            ("mode_index = 33940", "mode_index = inf", "mode_index"),
            ("T = 300 K", "T = inf K", "T"),
        ],
        ids=["omega_eff-nan", "mode_index-inf", "T-inf"],
    )
    def test_non_finite_config_value_exit_one(self, tmp_path, capsys, old, new, key):
        code, data = run(tmp_path, BASE_CFG.replace(old, new), ["thresholds"])
        assert code == 1
        assert data == b""
        assert f"'{key}'" in capsys.readouterr().err

    def test_non_finite_sweep_endpoint_exit_one(self, tmp_path, capsys):
        code, data = run(
            tmp_path, BASE_CFG,
            ["sweep", "--param", "T", "--from", "1", "--to", "inf",
             "--steps", "3", "--command", "thresholds"],
        )
        assert code == 1
        assert data == b""
        assert "sweep endpoints must be finite" in capsys.readouterr().err

    def test_overflow_exit_one(self, tmp_path, capsys):
        # (T/T_c)^2 in the condensate fraction overflows at T = 1e300 K
        code, data = run(tmp_path, TRAP_CFG.replace("T = 300 K", "T = 1e300 K"), ["thresholds"])
        assert code == 1
        assert data == b""
        err = capsys.readouterr().err
        assert "polbec: error:" in err
        assert "'T'" in err

    def test_hopfield_overflow_exit_one(self, tmp_path, capsys):
        # 4 g^2 overflows at g = 1e300 eV, which made the fractions NaN
        cfg = tmp_path / "run.cfg"
        cfg.write_text(BASE_CFG.replace("g = 1 meV", "g = 1e300 eV"))
        code = main(["dispersion", "--config", str(cfg), "--out", "-", "--samples", "11"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert "nan" not in err
        assert "polbec: error:" in err and "'g' = 1e+300 eV" in err

    def test_unit_overflow_names_key(self, tmp_path, capsys):
        # 1e308 J is finite, but 1e315 erg is not
        code, data = run(tmp_path, BASE_CFG.replace("E0 = 2.104 eV", "E0 = 1e308 J"),
                         ["dispersion", "--samples", "5"])
        assert code == 1
        assert data == b""
        assert "'E0'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "param, start, stop, target",
        [("g", "1e-3", "-1e-3", "thresholds"), ("Delta", "-1e-3", "1e-3", "masses")],
        ids=["to", "from"],
    )
    def test_exponent_form_negative_endpoint(self, tmp_path, param, start, stop, target):
        # argparse reads '-1e-3' as an option unless told it is a number
        tail = ["--steps", "3", "--command", target]
        code, spaced = run(tmp_path, BASE_CFG, ["sweep", "--param", param,
                                                "--from", start, "--to", stop, *tail], "a.csv")
        assert code == 0
        _, joined = run(tmp_path, BASE_CFG, ["sweep", "--param", param,
                                             f"--from={start}", f"--to={stop}", *tail], "b.csv")
        assert spaced == joined

    def test_usage_error_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dispersion"])  # missing --config
        assert exc.value.code == 1


class TestUnderflowNamesKey:
    # finite config values that take lambda_T or the n2 estimate out of the
    # float range; without m_eff the mass is derived from the coupling keys
    CFG = BASE_CFG.replace("m_eff = 5e-33 g\n", "")

    @pytest.mark.parametrize(
        "edits, key",
        [
            ([("n2 = 0.5e8 cm^-2\n", ""), ("n3 = 3.5e11", "n3 = 1e-321")], "n3"),
            ([("T = 300 K", "T = 1e-300 K")], "T"),
        ],
        ids=["n3-estimate", "T-lambda"],
    )
    def test_thresholds_exit_one(self, tmp_path, capsys, edits, key):
        cfg = self.CFG
        for old, new in edits:
            cfg = cfg.replace(old, new)
        code, data = run(tmp_path, cfg, ["thresholds"])
        assert code == 1
        assert data == b""
        err = capsys.readouterr().err
        assert err.startswith("polbec: error: ") and f"'{key}'" in err
        assert "division by zero" not in err


@pytest.mark.parametrize(
    "config_text, keys",
    [
        ("T = 300 K\nm_eff = 1e-47 g\nn2 = 1e300 cm^-2\n", ("'n2'", "'m_eff'")),
        ("T = 300 K\nm_eff = 1e-45 g\nn2 = 1e300 cm^-2\nn_s = 1e308 cm^-2\n",
         ("'n_s'", "'m_eff'")),
        ("T = 1e300 K\nm_eff = 5e-33 g\nn2 = 1e300 cm^-2\nomega_eff = 1e-10 s^-1\n",
         ("'n2'", "'T'", "'m_eff'", "'omega_eff'")),
    ],
    ids=["T_d", "T_KT", "N2"],
)
def test_thresholds_overflow_exit_one(tmp_path, capsys, config_text, keys):
    # finite inputs whose T_d, T_KT or N2 passes the largest float
    code, data = run(tmp_path, config_text, ["thresholds"])
    assert code == 1
    assert data == b""
    err = capsys.readouterr().err
    assert err.startswith("polbec: error: ") and err.count("\n") == 1
    assert all(key in err for key in keys)


# the coupling keys of a masses run, with Delta or L_cav appended
RANGE_CFG = """\
E0 = 2.104 eV
g = 1 meV
mode_index = 1
T = 300 K
n2 = 1e8 cm^-2
"""


@pytest.mark.parametrize(
    "config_text, argv, keys",
    [
        # k_perp = (E0 - Delta) / (hbar c) overflows: inf masses and exit 0
        (RANGE_CFG + "Delta = -1e305 eV\n", ["masses"], ("'E0'", "'Delta'")),
        # k_perp = pi m / L_cav overflows: 'n_s and mass must be positive'
        (RANGE_CFG + "L_cav = 1e-320 cm\n", ["masses"], ("'L_cav'", "'mode_index'")),
        # Omega_eff overflows: Infinity and r_max 0 with exit 0
        (BASE_CFG, ["trap", "--target-tc", "1e300", "--n-particles", "1e-300"],
         ("'target_tc'", "'n_particles'")),
        # Omega_eff underflows to 0: 'omega_eff must be positive'
        (BASE_CFG, ["trap", "--target-tc", "1e-300", "--n-particles", "1e300"],
         ("'target_tc'", "'n_particles'")),
        # omega_c overflows: inf and regime = strong with exit 0
        (BASE_CFG.replace("d = 1 D", "d = 1e150 D").replace("n3 = 3.5e11", "n3 = 1e300"),
         ["check-coupling"], ("'d'", "'n3'", "'E0'")),
        # the decoherence rate overflows: inf with exit 2
        (BASE_CFG.replace("tau_coh = 1e-8 s", "tau_coh = 1e-320 s"), ["check-coupling"],
         ("'tau_coh'",)),
    ],
    ids=["k_perp-Delta", "k_perp-L_cav", "trap-omega-inf", "trap-omega-0", "omega_c", "rate"],
)
def test_result_out_of_range_exit_one(tmp_path, capsys, config_text, argv, keys):
    # finite inputs whose result leaves the float range; the core that
    # computes it names the keys behind it
    code, data = run(tmp_path, config_text, argv)
    assert (code, data) == (1, b"")
    err = capsys.readouterr().err
    assert err.startswith("polbec: error: ") and "leaves the float range" in err
    assert all(key in err for key in keys)


def test_check_coupling_keeps_the_medium_messages(tmp_path, capsys):
    code, _ = run(tmp_path, BASE_CFG.replace("d = 1 D", "d = -1 D"), ["check-coupling"])
    assert code == 1
    assert capsys.readouterr().err == (
        "polbec: error: dipole_moment must be strictly positive, got -1e-18\n")


# a bare resonator of one mode, with L_cav appended
GEOMETRY_CFG = """\
g = 1 meV
mode_index = 1
T = 300 K
n2 = 0.5e8 cm^-2
"""


@pytest.mark.parametrize("argv", [["thresholds"], ["dispersion"]])
def test_geometry_path_rejects_non_positive_e0(tmp_path, capsys, argv):
    # the Delta path rejects it through the mode energy; on the L_cav path
    # a negative E0 gave a derived mass and a curve
    code, data = run(tmp_path, GEOMETRY_CFG + "E0 = -2 eV\nL_cav = 1 cm\n", argv)
    assert (code, data) == (1, b"")
    assert capsys.readouterr().err == (
        f"polbec: error: transition_energy must be strictly positive, got {-2 * EV_ERG}\n")


@pytest.mark.parametrize("argv", [["masses"], ["thresholds"]])
def test_photon_mass_underflow_names_k_perp(tmp_path, capsys, argv):
    # hbar k_perp / c rounds to 0 for a long cavity; both commands failed
    # with an unrelated message, and masses without a density printed 0
    code, data = run(tmp_path, GEOMETRY_CFG + "E0 = 2.104 eV\nL_cav = 1e300 cm\n", argv)
    assert (code, data) == (1, b"")
    assert capsys.readouterr().err == (
        f"polbec: error: m_ph: hbar k_perp / c underflows to 0 for 'k_perp' = "
        f"{math.pi / 1e300:g} cm^-1\n")


class TestSweepBinding:
    """The thresholds sweep derives the lower-branch mass once, on the config
    whose swept key holds its column, unless the swept key is one the
    derivation reads."""

    def count_mass_derivations(self, monkeypatch, tmp_path, config_text, param, start, stop):
        calls = []
        derive = cli._coupling_cgs

        def counted(c):
            calls.append(c.values[param])
            return derive(c)

        monkeypatch.setattr(cli, "_coupling_cgs", counted)
        code, _ = run(tmp_path, config_text, [
            "sweep", "--param", param, "--from", start, "--to", stop, "--steps", "50",
            "--command", "thresholds"])
        assert code == 0
        return calls

    def test_T_sweep_derives_the_mass_once(self, monkeypatch, tmp_path):
        cfg = BASE_CFG.replace("m_eff = 5e-33 g\n", "")
        calls = self.count_mass_derivations(monkeypatch, tmp_path, cfg, "T", "2", "2000")
        assert calls == [sweep_values(SweepSpec("T", 2.0, 2000.0, 50))]

    def test_Delta_sweep_derives_the_mass_per_value(self, monkeypatch, tmp_path):
        cfg = BASE_CFG.replace("m_eff = 5e-33 g\n", "")
        calls = self.count_mass_derivations(
            monkeypatch, tmp_path, cfg, "Delta", "-0.002", "0.002")
        assert len(calls) == 50 and len(set(calls)) == 50

    def test_Delta_sweep_with_m_eff_derives_no_mass(self, monkeypatch, tmp_path):
        calls = self.count_mass_derivations(
            monkeypatch, tmp_path, BASE_CFG, "Delta", "-0.002", "0.002")
        assert calls == []

    def test_sweep_over_a_key_nothing_reads_derives_the_mass_once(self, monkeypatch, tmp_path):
        cfg = BASE_CFG.replace("m_eff = 5e-33 g\n", "")
        calls = self.count_mass_derivations(monkeypatch, tmp_path, cfg, "tau_coh", "1e-9", "1e-7")
        assert calls == [sweep_values(SweepSpec("tau_coh", 1e-9, 1e-7, 50))]


class ReadRecorder(dict):
    """A config's values that record each key looked up."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def test_the_derived_mass_reads_only_the_coupling_keys():
    # a thresholds sweep derives the mass per value only over COUPLING_KEYS;
    # a key the mass read beyond them would stay at its first value
    branches = set()
    for text in CONFIGS.values():
        try:
            values = RunConfig.parse(text).values
        except ConfigError:
            continue
        without_m_eff = {k: v for k, v in values.items() if k != "m_eff"}
        for derive, given in ((cli._coupling_cgs, values), (cli._effective_mass, values),
                              (cli._effective_mass, without_m_eff)):
            recorder = ReadRecorder(given)
            with contextlib.suppress(ValueError, ArithmeticError):
                derive(RunConfig(recorder))
            allowed = cli.COUPLING_KEYS + (("m_eff",) if derive is cli._effective_mass else ())
            assert recorder.read <= set(allowed), (derive.__name__, text)
        branches.add("Delta" in values if "E0" in values else None)
    assert {True, False} <= branches  # the Delta and the L_cav branch


def test_T_sweep_calls_the_ladder_once(monkeypatch, tmp_path):
    # one ladder call over the column of swept values, not one per value
    calls = []
    ladder = cli.condensation_ladder

    def counted(*args):
        calls.append(args)
        return ladder(*args)

    monkeypatch.setattr(cli, "condensation_ladder", counted)
    code, _ = run(tmp_path, TRAP_CFG, [
        "sweep", "--param", "T", "--from", "2", "--to", "2000", "--steps", "50",
        "--command", "thresholds"])
    assert code == 0
    assert len(calls) == 1 and calls[0][0] == sweep_values(SweepSpec("T", 2.0, 2000.0, 50))


def test_sweep_stops_at_its_first_failing_value(tmp_path, capsys):
    # mu underflows at every value and mode_index 1.5 is no integer: the
    # sweep fails with the ladder's error at 1, not the config error at 1.5
    cfg = BASE_CFG.replace("n2 = 0.5e8 cm^-2", "n2 = 1e-320 cm^-2")
    code, data = run(tmp_path, cfg, [
        "sweep", "--param", "mode_index", "--from", "1", "--to", "2", "--steps", "3",
        "--command", "thresholds"])
    assert (code, data) == (1, b"")
    assert capsys.readouterr().err.startswith("polbec: error: mu: T_d/T underflows")


class TestSweepSize:
    """A --steps count that memory cannot hold ends in one line naming it."""

    ARGV = ["sweep", "--param", "T", "--from", "1", "--to", "2", "--command", "thresholds"]

    def test_a_count_no_list_holds_is_rejected_before_allocating(self, tmp_path, capsys):
        code, data = run(tmp_path, BASE_CFG, [*self.ARGV, "--steps", str(2**62)])
        assert (code, data) == (1, b"")
        assert capsys.readouterr().err == (
            f"polbec: error: --steps {2**62}: the sweep does not fit in memory\n")

    @staticmethod
    def run_under_memory_limit(tmp_path, argv):
        """(result, out path) of polbec run in a child process under a
        512 MiB address-space limit."""
        resource = pytest.importorskip("resource")
        limit = 512 * 2**20

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(BASE_CFG)
        env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
        result = subprocess.run(
            [sys.executable, "-m", "polbec", *argv, "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=env, preexec_fn=limit_memory, timeout=300)
        return result, out

    def test_a_sweep_that_fills_memory_ends_in_one_line(self, tmp_path):
        result, out = self.run_under_memory_limit(tmp_path, [*self.ARGV, "--steps", str(10**9)])
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "polbec: error: --steps 1000000000: the sweep does not fit in memory\n")
        assert not out.exists()

    def test_a_curve_sweep_past_its_held_tables_names_the_steps(self, tmp_path):
        # one 1000-sample grid fits; it is the tables held for the join that
        # fill memory, so the grid that then fails to allocate names --steps
        argv = ["sweep", "--param", "T", "--from", "1", "--to", "2", "--steps", str(10**6),
                "--samples", "1000", "--command", "dispersion"]
        result, out = self.run_under_memory_limit(tmp_path, argv)
        assert (result.returncode, result.stdout, result.stderr) == (
            1, "", "polbec: error: --steps 1000000: the sweep does not fit in memory\n")
        assert not out.exists()


# sweepable keys: the eight the ladder reads, one the derived mass reads
# (Delta) and one neither reads (tau_coh); (unit, low, high) of the drawn
# magnitudes
ROW_KEYS = {
    "T": ("K", 1e-2, 1e6),
    "n2": ("cm^-2", 1.0, 1e16),
    "n3": ("cm^-3", 1e3, 1e20),
    "omega_eff": ("s^-1", 1e6, 1e14),
    "U0": ("eV", 1e-9, 1.0),
    "r0": ("cm", 1e-6, 1e-1),
    "n_s": ("cm^-2", 1.0, 1e16),
    "m_eff": ("g", 1e-36, 1e-28),
    "Delta": ("eV", 1e-5, 1e-2),
    "tau_coh": ("s", 1e-12, 1e-6),
}


def _magnitude(key):
    _, low, high = ROW_KEYS[key]
    return st.floats(math.log(low), math.log(high)).map(math.exp)


@st.composite
def row_configs(draw):
    """Config text for the thresholds ladder: always T and the coupling keys,
    and any of m_eff, n2, n3, n_s and a trap, with n2 or n3 present."""
    lines = ["E0 = 2.104 eV", "d = 1 D", "tau_coh = 1e-8 s", "mode_index = 33940",
             "g = 1 meV", "d_beam = 2e-4 cm", f"T = {draw(_magnitude('T'))!r} K"]
    if draw(st.booleans()):
        lines.append(f"Delta = {draw(st.floats(-0.01, 0.01))!r} eV")
    else:  # the geometry form; a Delta sweep then fails with 'L_cav' or 'Delta'
        lines.append("L_cav = 1 cm")
    density = draw(st.sampled_from(["n2", "n3", "both"]))
    for key in ("n2", "n3"):
        if density in (key, "both"):
            lines.append(f"{key} = {draw(_magnitude(key))!r} {ROW_KEYS[key][0]}")
    for key in ("m_eff", "n_s", "omega_eff"):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(_magnitude(key))!r} {ROW_KEYS[key][0]}")
    if draw(st.booleans()):
        # U(r0) = U0 rarely holds for drawn values: the error path
        lines.append(f"U0 = {draw(_magnitude('U0'))!r} eV")
        lines.append(f"r0 = {draw(_magnitude('r0'))!r} cm")
    return "\n".join(lines) + "\n"


@st.composite
def row_sweeps(draw):
    """(key, start, stop, steps, scale); a linear sweep crosses 0, so it can
    reach the values a key rejects."""
    key = draw(st.sampled_from(sorted(ROW_KEYS)))
    a, b = draw(_magnitude(key)), draw(_magnitude(key))
    if draw(st.booleans()):
        start, stop, scale = -a, b, "linear"
    else:
        assume(a != b)
        start, stop, scale = a, b, "log"
    return key, start, stop, draw(st.integers(2, 4)), scale


def with_value(config_text, key, value):
    """The config with key set to value written in the key's sweep unit."""
    line = f"{key} = {value!r} {ROW_KEYS[key][0]}"
    kept = [ln for ln in config_text.splitlines() if ln.split(" = ")[0] != key]
    return "\n".join(kept + [line]) + "\n"


def main_io(config_text, argv):
    """(exit code, output bytes, stderr) of one main call on a config text."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "run.cfg", Path(tmp) / "out.csv"
        cfg.write_text(config_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([argv[0], "--config", str(cfg), "--out", str(out), *argv[1:]])
        return code, out.read_bytes() if out.exists() else b"", err.getvalue()


@settings(deadline=None, max_examples=100)
@given(config_text=row_configs(), sweep=row_sweeps())
@example(  # the n3-only path, swept over n3
    config_text=BASE_CFG.replace("n2 = 0.5e8 cm^-2\n", "").replace("m_eff = 5e-33 g\n", ""),
    sweep=("n3", 1e9, 1e13, 3, "log"))
# a scalar key that fails beside a T column whose value at index 0 or 1 fails
# too: every value fails, and the first one's error is the one-shot run's,
# whichever check comes first
@example(config_text=BASE_CFG.replace("m_eff = 5e-33 g", "m_eff = 0 g"),
         sweep=("T", -1.0, 2e3, 3, "linear"))
@example(config_text=BASE_CFG.replace("m_eff = 5e-33 g", "m_eff = 0 g"),
         sweep=("T", 2.0, -2.0, 3, "linear"))
@example(config_text=TRAP_CFG.replace("n2 = 0.5e8 cm^-2", "n2 = 0 cm^-2"),
         sweep=("T", 2e3, -1.0, 3, "linear"))
def test_sweep_row_equals_one_shot_row(config_text, sweep):
    key, start, stop, steps, scale = sweep
    code, data, err = main_io(config_text, [
        "sweep", "--param", key, f"--from={start!r}", f"--to={stop!r}", "--steps", str(steps),
        "--scale", scale, "--command", "thresholds"])
    expected = []
    for value in sweep_values(SweepSpec(key, start, stop, steps, scale)):
        one_code, one_data, one_err = main_io(with_value(config_text, key, value), ["thresholds"])
        if one_code != 0:  # the sweep stops at its first failing value
            assert (code, data, err) == (one_code, b"", one_err)
            return
        expected.append(one_data.decode().splitlines()[-1])
    assert (code, err) == (0, "")
    rows = [ln for ln in data.decode().splitlines() if not ln.startswith("#")][1:]
    assert [row.split(",", 1)[1] for row in rows] == expected


# a coupling key's values in eV, the unit it is swept in
COUPLING_VALUES = {"Delta": st.floats(-5e-3, 5e-3), "g": st.floats(1e-4, 5e-3)}


@settings(deadline=None, max_examples=60)
@given(config_text=st.sampled_from([BASE_CFG, TRAP_CFG]), data=st.data(),
       key=st.sampled_from(sorted(COUPLING_VALUES)))
def test_thresholds_table_of_columns_equals_one_shot_rows(config_text, data, key):
    # without m_eff, T and a coupling key as columns of one length: the mass
    # is derived per zipped value, and each row is the one-shot table's
    cfg = RunConfig.parse(config_text.replace("m_eff = 5e-33 g\n", ""))
    pairs = data.draw(st.lists(st.tuples(st.floats(1.0, 3e3), COUPLING_VALUES[key]),
                               min_size=1, max_size=4))
    ts, couplings = [t for t, _ in pairs], [v * EV_ERG for _, v in pairs]
    both = cfg.with_value("T", ts).with_value(key, couplings)
    expected = []
    for t, v in zip(ts, couplings):
        try:
            _, _, row = cli._thresholds_table(cfg.with_value("T", t).with_value(key, v),
                                              "thresholds", None)
        except (ValueError, ArithmeticError):
            with pytest.raises((ValueError, ArithmeticError)):
                cli._thresholds_table(both, "thresholds", None)
            return
        expected += csv_lines(row)
    _, header, columns = cli._thresholds_table(both, "thresholds", None)
    assert header == cli.THRESHOLDS_HEADER
    assert csv_lines(columns) == expected


def test_cli_import_loads_no_thread_pool():
    # evaluation is serial; --workers is a documented no-op
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    probe = "import sys, polbec.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_scalar_commands_load_no_numpy():
    # the scalar commands and their sweeps must start on the float cores and
    # config alone.  dataclasses would pull in inspect, dis, tokenize and ast.
    # typing and enum are not watched: site loads them before polbec.  The
    # config digest comes from CPython's own sha256, not OpenSSL's (_hashlib),
    # and json loads only when JSON is written, as trap writes it.  Each
    # command loads its own module (polbec.masses, regime, lens or curves)
    # and no other's; thresholds, the most-run path, loads none.  The curve
    # commands load the branch cores and numpy (which loads inspect) when
    # they sample and the numtext kernel when they print CSV, and still no
    # module of the Quantity layer.  Each case runs in a fresh interpreter;
    # the probe passes its data as Python literals, because json is watched.
    root = Path(polbec.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    watched = ["numpy", "polbec.numtext", "dataclasses", "fractions", "inspect", "polbec.units",
               "polbec.thermo", "polbec.coupling", "polbec.trap", "polbec.dispersion",
               "_hashlib", "json", "polbec.branches", "polbec.curves", "polbec.masses",
               "polbec.regime", "polbec.lens"]
    sweep = ["sweep", "--param", "Delta", "--from", "-0.002", "--to", "0.002", "--steps", "3",
             "--samples", "5", "--command"]
    curve = ["numpy", "polbec.numtext", "polbec.branches", "polbec.curves"]
    cases = [
        (["thresholds"], []),
        (["sweep", "--param", "T", "--from", "2", "--to", "2000", "--steps", "5",
          "--command", "thresholds"], []),
        (sweep + ["thresholds"], []),
        (["masses"], ["polbec.masses"]),
        (sweep + ["masses"], ["polbec.masses"]),
        (["check-coupling"], ["polbec.regime"]),
        (["trap", "--target-tc", "300", "--n-particles", "1e6"], ["json", "polbec.lens"]),
        (["dispersion", "--samples", "5"], curve),
        (["hopfield", "--samples", "5"], curve),
        (sweep + ["dispersion"], curve),
        (sweep + ["hopfield"], curve),
    ]
    probe = (
        "import os, sys\n"
        "import polbec.cli\n"
        "watched = eval(sys.argv[3])\n"
        "def seen():\n"
        "    return [name for name in watched if name in sys.modules]\n"
        "after_import = seen()\n"
        "rc = polbec.cli.main(eval(sys.argv[1]) + ['--config', sys.argv[2], '--out', os.devnull])\n"
        "print(repr([after_import, rc, seen()]))\n"
    )
    for argv, loaded in cases:
        result = subprocess.run(
            [sys.executable, "-c", probe, repr(argv), str(root / "example.cfg"), repr(watched)],
            capture_output=True, text=True, env=env, check=True,
        )
        after_import, rc, seen = ast.literal_eval(result.stdout)
        assert (argv, after_import, rc) == (argv, [], 0)
        if "numpy" in seen:  # which may load inspect
            seen = [name for name in seen if name != "inspect"]
        assert (argv, sorted(seen)) == (argv, sorted(loaded))


EXAMPLE_CFG = str(Path(__file__).resolve().parents[1] / "example.cfg")


def call(argv, capsys):
    """(exit code, stdout, stderr) of one in-process main call; argparse's
    SystemExit counts as a return."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


# one run of each subcommand and of each sweep target on example.cfg
QUANTITY_FREE_RUNS = [
    ["check-coupling"],
    ["dispersion", "--samples", "5"],
    ["hopfield", "--samples", "5"],
    ["masses"],
    ["thresholds"],
    ["trap", "--target-tc", "300", "--n-particles", "1e6"],
    *[["sweep", "--param", "Delta", "--from", "-0.002", "--to", "0.002", "--steps", "3",
       "--samples", "5", "--command", target] for target in cli.TABLES],
]


@pytest.mark.parametrize("argv", QUANTITY_FREE_RUNS,
                         ids=[f"sweep-{a[-1]}" if a[0] == "sweep" else a[0]
                              for a in QUANTITY_FREE_RUNS])
def test_cli_runs_construct_no_quantity(monkeypatch, tmp_path, argv):
    # the parser stores cgs floats, and every command computes on them
    def refuse(self, *args, **kwargs):
        raise AssertionError("a CLI run constructed a Quantity")

    monkeypatch.setattr(polbec.units.Quantity, "__init__", refuse)
    out = tmp_path / "out.txt"
    assert main([*argv, "--config", EXAMPLE_CFG, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


# at COLUMNS=80; the description is cli.DESCRIPTION.  From 3.13 on,
# argparse keeps " ..." on the line of the subcommand choices and wraps the
# sweep usage between options, not inside one (recorded under 3.13.13)
if sys.version_info < (3, 13):
    TOP_USAGE = """\
usage: polbec [-h] [--version]
              {check-coupling,dispersion,hopfield,masses,thresholds,trap,sweep}
              ...
"""
    SWEEP_USAGE = """\
usage: polbec sweep [-h] --config CONFIG [--out OUT] [--format {csv,json}]
                    [--units {cgs,si}] [--samples SAMPLES] [--kmax KMAX]
                    [--workers WORKERS] --param PARAM --from SWEEP_FROM --to
                    SWEEP_TO --steps STEPS [--scale {linear,log}] --command
                    {masses,thresholds,hopfield,dispersion}
"""
else:
    TOP_USAGE = """\
usage: polbec [-h] [--version]
              {check-coupling,dispersion,hopfield,masses,thresholds,trap,sweep} ...
"""
    SWEEP_USAGE = """\
usage: polbec sweep [-h] --config CONFIG [--out OUT] [--format {csv,json}]
                    [--units {cgs,si}] [--samples SAMPLES] [--kmax KMAX]
                    [--workers WORKERS] --param PARAM --from SWEEP_FROM
                    --to SWEEP_TO --steps STEPS [--scale {linear,log}]
                    --command {masses,thresholds,hopfield,dispersion}
"""

TOP_HELP = TOP_USAGE + """
Deterministic command-line front end. Subcommands: check-coupling, dispersion,
hopfield, masses, thresholds, trap, sweep. All file output is byte-stable
across runs and locales: CSV, text and the rows of a JSON curve print numbers
with 12 significant digits, every other JSON number is printed in full as json
writes it, rows are assembled in grid/sweep order, and the metadata carries no
timestamps. Evaluation is serial; --workers is accepted and has no effect.
Exit codes: 0 success, 1 usage/config error, 2 physical-regime warning (weak
coupling, or no lower-branch well in the paraxial window).

positional arguments:
  {check-coupling,dispersion,hopfield,masses,thresholds,trap,sweep}
    check-coupling      strong-coupling regime test
    dispersion          sample both polariton branches over k_par
    hopfield            photon/matter composition along the grid
    masses              photon and branch curvature masses
    thresholds          condensation threshold ladder
    trap                design a lens profile for a target T_c
    sweep               sweep one config key through a target command

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

SWEEP_HELP = SWEEP_USAGE + """
options:
  -h, --help            show this help message and exit
  --config CONFIG       path to key = value config file
  --out OUT             output path, or - for stdout
  --format {csv,json}
  --units {cgs,si}
  --samples SAMPLES     grid points in k_par
  --kmax KMAX           k_par window edge over k_perp
  --workers WORKERS     accepted; evaluation is serial
  --param PARAM         config key to sweep
  --from SWEEP_FROM     start value in the key's canonical unit
  --to SWEEP_TO         stop value in the key's canonical unit
  --steps STEPS
  --scale {linear,log}
  --command {masses,thresholds,hopfield,dispersion}
"""

SWEEP_USAGE_ERROR = SWEEP_USAGE + (
    "polbec sweep: error: the following arguments are required: "
    "--from, --to, --steps, --command\n"
)


def test_help_and_usage_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert call(["--help"], capsys) == (0, TOP_HELP, "")
    assert call(["sweep", "--help"], capsys) == (0, SWEEP_HELP, "")
    assert call(["sweep", "--config", EXAMPLE_CFG, "--param", "T"], capsys) == (
        1, "", SWEEP_USAGE_ERROR)


class TestParserReuse:
    CALLS = [
        ["dispersion", "--config", EXAMPLE_CFG, "--format", "json"],
        ["thresholds", "--config", EXAMPLE_CFG],
        ["sweep", "--config", EXAMPLE_CFG, "--param", "T"],  # usage error
        ["--version"],
        ["dispersion", "--config", EXAMPLE_CFG, "--format", "json"],
    ]

    def test_calls_in_one_process_match_a_fresh_parser(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        fresh = []
        for argv in self.CALLS:
            build_parser.cache_clear()
            fresh.append(call(argv, capsys))
        assert [code for code, _, _ in fresh] == [0, 0, 1, 0, 0]
        assert fresh[-1] == fresh[0]
        build_parser.cache_clear()
        reused = [call(argv, capsys) for argv in self.CALLS * 2]
        assert reused == fresh * 2
        assert build_parser() is build_parser()

    def test_import_builds_no_parser(self):
        env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
        probe = (
            "import polbec.cli as cli\n"
            "before = cli.build_parser.cache_info().currsize\n"
            "cli.build_parser()\n"
            "print(before, cli.build_parser.cache_info().currsize)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.split() == ["0", "1"]


def _whole_parser_subparser(command):
    """The parser the whole parser hands a command line that names command."""
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices[command]


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_subcommand_parser_is_the_whole_parsers(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    own, whole = build_parser(command), _whole_parser_subparser(command)
    assert own is not whole
    assert (own.prog, own.format_help()) == (whole.prog, whole.format_help())


# command lines main parses with a subcommand's own parser, or hands to the
# whole parser: help, the version, usage errors, a leftover argument, an
# abbreviation, '=' values and negative numbers in exponent form
PARSER_PARITY_LINES = [
    [],
    ["bogus"],
    ["--version"],
    ["-h"],
    *([command, "--help"] for command in cli.COMMANDS),
    ["sweep", "--version"],
    ["thresholds"],
    ["thresholds", "--config"],
    ["sweep", "--config", EXAMPLE_CFG, "--param", "T"],
    ["thresholds", "--config", EXAMPLE_CFG, "extra"],
    ["hopfield", "--config", EXAMPLE_CFG, "extra", "--bogus"],
    ["thresholds", "--config", EXAMPLE_CFG, "--bogus"],
    ["thresholds", "--config", EXAMPLE_CFG, "--"],
    ["thresholds", "--", "--config", EXAMPLE_CFG],
    ["thresholds", "--conf", EXAMPLE_CFG],
    ["masses", "--config", EXAMPLE_CFG, "--format=json"],
    ["masses", "--config", EXAMPLE_CFG, "--format", "xml"],
    ["dispersion", "--config", EXAMPLE_CFG, "--samples", "x"],
    ["sweep", "--config", EXAMPLE_CFG, "--param", "g", "--from", "1e-3", "--to", "-1e-3",
     "--steps", "3", "--command", "masses"],
    ["sweep", "--config", EXAMPLE_CFG, "--param", "T", "--from", "2", "--to", "2000",
     "--steps", "5", "--scale", "log", "--command", "thresholds"],
    ["check-coupling", "--config", EXAMPLE_CFG, "--threshold", "-1e-3"],
    ["trap", "--config", EXAMPLE_CFG, "--target-tc", "300", "--n-particles", "1e6"],
    ["--", "thresholds", "--config", EXAMPLE_CFG],
]


@pytest.mark.parametrize("argv", PARSER_PARITY_LINES, ids=lambda argv: " ".join(
    "example.cfg" if arg == EXAMPLE_CFG else arg for arg in argv) or "no-arguments")
def test_main_parses_as_the_whole_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    whole = build_parser()
    with monkeypatch.context() as patched:  # main with every line through the whole parser
        patched.setattr(cli, "COMMANDS", {})
        patched.setattr(cli, "build_parser", lambda command=None: whole)
        expected = call(argv, capsys)
    assert call(argv, capsys) == expected


@pytest.mark.parametrize("argv, parsers", [
    (["sweep", "--config", EXAMPLE_CFG, "--out", os.devnull, "--param", "T", "--from", "2",
      "--to", "2000", "--steps", "50", "--scale", "log", "--command", "thresholds"], 1),
    (["--help"], 8),  # the whole parser and its seven subparsers
], ids=["sweep", "help"])
def test_a_command_line_builds_only_its_parser(argv, parsers):
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    probe = (
        "import argparse, contextlib, io, sys\n"
        "built, init = [], argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(type(self))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import polbec.cli\n"
        "with contextlib.suppress(SystemExit), contextlib.redirect_stdout(io.StringIO()):\n"
        "    polbec.cli.main(sys.argv[1:])\n"
        "print(len(built))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                            text=True, env=env, check=True)
    assert result.stdout.split() == [str(parsers)]


# values whose JSON spelling is easy to get wrong: signed zeros, integers that
# %.12g writes in exponent form but repr in full, numbers in [1e11, 1e12)
# that format(x, ".12") writes in exponent form but %.12g does not, values
# that %.12g rounds up (or not) across 1e11 and 1e16, the smallest normal,
# subnormals, +-1e+-300, and the non-finite tokens json writes as NaN and
# Infinity
JSON_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300,
                     99999999999.95, 99999999999.97, 9999999999999998.0,
                     sys.float_info.min, math.nan, math.inf, -math.inf]),
    st.builds(lambda n, sign: sign * float(n),
              st.integers(10**12, 10**16 - 1), st.sampled_from([1.0, -1.0])),
    st.builds(lambda x, sign: sign * x, st.floats(1e11, 1e12), st.sampled_from([1.0, -1.0])),
    st.floats(-sys.float_info.min, sys.float_info.min),
    st.floats(),
)
JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\\'/\n\té°λ€😀'), st.characters()),
                    max_size=12)


@st.composite
def json_tables(draw):
    width = draw(st.integers(1, 8))
    return draw(st.lists(st.lists(JSON_VALUES, min_size=width, max_size=width), max_size=12))


@settings(deadline=None)
@given(table=json_tables(), metadata=st.lists(JSON_TEXT, max_size=4),
       columns=st.lists(JSON_TEXT, max_size=4))
@example(table=[[0.0, -0.0, 1234567890123.0, 5e-324, math.nan, math.inf, -math.inf]],
         metadata=['a "quoted" \\ path', "Δ/g = 1 — µ²"], columns=["k_par_over_k_perp"])
@example(table=[[5e-324, -2.5e-320, 1.0]], metadata=[], columns=[])  # subnormals alone
def test_render_json_matches_json_dumps(table, metadata, columns):
    # the rows json.dumps would write for the same CSV lines, parsed back
    table_columns = [list(col) for col in zip(*table)]
    lines = csv_lines(table_columns)
    reference = {
        "metadata": metadata,
        "columns": columns,
        "rows": [[float(v) for v in line.split(",")] for line in lines],
    }
    expected = json.dumps(reference, indent=2) + "\n"
    assert curve_json(metadata, columns, table_columns) == expected


CELL_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, math.nan, math.inf, -math.inf, 5e-324]), st.floats())


@st.composite
def csv_tables(draw):
    n = draw(st.integers(1, 6))
    cells = lambda values: st.lists(values, min_size=n, max_size=n)
    column = st.one_of(
        cells(CELL_FLOATS),
        CELL_FLOATS.map(lambda v: [v] * n),  # one value throughout, as a column
        cells(st.sampled_from([0.0, -0.0])),  # equal, but printed apart
        cells(st.booleans()),
        st.sampled_from([None, True, False]).map(lambda v: [v] * n),
        cells(st.one_of(st.none(), CELL_FLOATS)),  # empty in some cells
        st.one_of(st.none(), st.booleans(), CELL_FLOATS),  # a scalar: one value for every row
    )
    columns = draw(st.lists(column, min_size=1, max_size=8))
    lists = [col for col in columns if type(col) is list]
    if lists and draw(st.booleans()):  # a copy of a column, as a sweep's repeats its key's
        columns.append(list(draw(st.sampled_from(lists))))
    # sweep builders hand over tuples from zip
    columns = [tuple(col) if type(col) is list and draw(st.booleans()) else col
               for col in columns]
    lists = [col for col in columns if type(col) in (list, tuple)]
    if lists and draw(st.booleans()):  # the same column again, as config_cgs shares a sweep's
        columns.append(draw(st.sampled_from(lists)))
    return columns


# one list that comes twice, as a T sweep's column and its T_K column do
SHARED_COLUMN = [0.0, -0.0, math.nan]


@settings(deadline=None)
@given(columns=csv_tables())
@example(columns=[SHARED_COLUMN, SHARED_COLUMN])
@example(columns=[[0.0, -0.0], [-0.0, -0.0], [math.nan, math.nan], [None, None],
                  [None, 1.0], [True, True], [False, True], [1e300, 1e300]])
# float columns that repeat an earlier one: equal under == but for the sign of
# a zero, NaN as one object and as two, and beside a bool column that == them
@example(columns=[[1.5, 0.0, 2.0], [1.5, -0.0, 2.0], [1.5, 0.0, 2.0], [1.5, -0.0, 2.0]])
@example(columns=[[math.nan, 1.0], [math.nan, 1.0], [float("nan"), 1.0]])
@example(columns=[[1.0, 0.0], [True, False], [1.0, 0.0]])
# scalars beside columns, and a table of scalars alone, which is one row
@example(columns=[1.5, [0.0, -0.0], None, True, -0.0, [None, 1.0]])
@example(columns=[None, 2.5, False, math.nan])
def test_csv_lines_matches_per_cell_formatting(columns):
    # the builders hand a column that may be empty in some cells through
    # text_column, which leaves every other column and every scalar as it is
    lines = csv_lines([cli.text_column(col) for col in columns])
    cell = lambda v: BOOL_TEXT[v] if isinstance(v, bool) else fmt_opt(v)
    rows = max((len(col) for col in columns if type(col) in (list, tuple)), default=1)
    full = [col if type(col) in (list, tuple) else [col] * rows for col in columns]
    assert lines == [",".join(map(cell, row)) for row in zip(*full)]


class TestFormatOnce:
    """No JSON curve goes through csv_lines, not even the fallback for numbers
    whose json spelling is not the 12-digit one.  A CSV curve, a curve
    sweep's included, makes one pass of the numtext kernel."""

    @pytest.mark.parametrize(
        "argv, calls, kernel_calls",
        [
            (["dispersion", "--format", "json"], 0, 0),
            (["hopfield", "--format", "json"], 0, 0),
            # prints 263000000002 and 1.052e+12
            (["dispersion", "--format", "json", "--kmax", "1e6", "--samples", "3"], 0, 0),
            (["dispersion"], 0, 1),
            (["sweep", "--param", "Delta", "--from", "-0.001", "--to", "0.001", "--steps", "3",
              "--command", "dispersion"], 0, 1),
        ],
        ids=["json", "hopfield-json", "json-fallback", "csv", "sweep-csv"],
    )
    def test_csv_lines_calls(self, monkeypatch, argv, calls, kernel_calls):
        from polbec import numtext
        seen, kernel_seen = [], []

        def counted(real, log):
            def call(arg):
                log.append(len(arg))
                return real(arg)
            return call

        monkeypatch.setattr(cli, "csv_lines", counted(cli.csv_lines, seen))
        monkeypatch.setattr(numtext, "csv_blocks", counted(numtext.csv_blocks, kernel_seen))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", polbec.ParaxialBoundWarning)
            code = main([argv[0], "--config", EXAMPLE_CFG, "--out", os.devnull, *argv[1:]])
        assert code == 0
        assert (len(seen), len(kernel_seen)) == (calls, kernel_calls)


@pytest.mark.parametrize("command, calls", [("dispersion", 1), ("hopfield", 0)])
def test_freespace_photon_column_only_where_printed(monkeypatch, command, calls):
    # hopfield prints no E_ph_freespace column, so it does not compute one
    # (the CLI imports it from polbec.branches when it builds a curve table)
    from polbec import branches
    real, seen = branches.photon_freespace_erg, []

    def counted(k_par, k_perp):
        seen.append(len(k_par))
        return real(k_par, k_perp)

    monkeypatch.setattr(branches, "photon_freespace_erg", counted)
    assert main([command, "--config", EXAMPLE_CFG, "--out", os.devnull, "--samples", "7"]) == 0
    assert seen == [7] * calls


@pytest.mark.parametrize("command", ["dispersion", "hopfield"])
def test_far_window_raises_no_runtime_warning(tmp_path, command):
    # far out of the window s + delta cancels to 0 in the Hopfield branch
    # that np.where discards; numpy must not warn about that division
    out = tmp_path / "out"
    argv = [command, "--config", EXAMPLE_CFG, "--out", str(out), "--kmax", "1e6",
            "--samples", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    assert [w.category for w in caught] == [polbec.ParaxialBoundWarning]
    table = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert len(table) == 4  # the header and 3 samples


@pytest.mark.parametrize("name", ["sweep-dispersion-Delta-2049-samples-plain",
                                  "hopfield-10001-csv"])
def test_stdout_prints_the_file_bytes(tmp_path, capsys, name):
    # the golden cases whose CSV rows span several blocks of the numtext kernel
    config, argv = CASES[name]
    code, data = run(tmp_path, CONFIGS[config], argv)
    assert main([argv[0], "--config", str(tmp_path / "run.cfg"), "--out", "-", *argv[1:]]) == 0
    assert code == 0
    assert capsys.readouterr().out.encode() == data


@pytest.mark.parametrize(
    "argv",
    [["dispersion", "--samples", "50001"],
     ["sweep", "--param", "T", "--from", "2", "--to", "2000", "--steps", "50000", "--scale", "log",
      "--command", "thresholds"]],
    ids=["dispersion", "thresholds-sweep"],
)
def test_closed_stdout_pipe_ends_quietly(argv):
    # a reader that closes stdout after the first line, as head -1 does:
    # exit 1 with nothing on stderr, where it printed '[Errno 32] Broken pipe'
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "polbec", argv[0], "--config", EXAMPLE_CFG, "--out", "-",
         *argv[1:]], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")
    assert first.startswith(b"# polbec ")


def test_running_cli_as_main_compiles_it_once():
    # trap's module imports polbec.cli; under python -m polbec.cli that import
    # must get the running module, not load a second copy of cli.py
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    argv = ["trap", "--config", EXAMPLE_CFG, "--target-tc", "300", "--n-particles", "1e6"]
    as_main = subprocess.run([sys.executable, "-X", "importtime", "-m", "polbec.cli", *argv],
                             capture_output=True, env=env, check=True)
    package = subprocess.run([sys.executable, "-m", "polbec", *argv],
                             capture_output=True, env=env, check=True)
    imported = [line.rsplit(b"|", 1)[-1].strip() for line in as_main.stderr.splitlines()]
    assert b"polbec.lens" in imported and b"polbec.cli" not in imported
    assert as_main.stdout == package.stdout


def test_a_warning_prints_as_one_line(monkeypatch, tmp_path):
    # past the paraxial window the curve cores warn; stderr shows the message
    # on one line, without polbec's source path or source line
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    argv = ["dispersion", "--config", EXAMPLE_CFG, "--kmax", "1e6", "--samples", "3"]
    result = subprocess.run([sys.executable, "-m", "polbec", *argv], capture_output=True,
                            env=env, check=True)
    assert result.stderr == (b"polbec: warning: grid edge 1e+06 * k_perp exceeds the "
                             b"paraxial bound 0.2 * k_perp\n")

    def own(*args):
        return ""

    monkeypatch.setattr(warnings, "formatwarning", own)
    with warnings.catch_warnings():  # in-process: the bytes, and the caller's format kept
        warnings.simplefilter("ignore", polbec.ParaxialBoundWarning)
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert warnings.formatwarning is own
    assert (tmp_path / "out").read_bytes() == result.stdout
