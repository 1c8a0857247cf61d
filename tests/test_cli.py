import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polbec
from polbec.cli import main

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

    def test_nonpositive_target_rejected(self, tmp_path):
        code, _ = run(tmp_path, BASE_CFG, ["trap", "--target-tc", "-1", "--n-particles", "1e6"])
        assert code == 1
        code, _ = run(tmp_path, BASE_CFG, ["trap", "--target-tc", "300", "--n-particles", "0"])
        assert code == 1


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


def test_cli_import_loads_no_thread_pool():
    # evaluation is serial; --workers is a documented no-op
    env = dict(os.environ, PYTHONPATH=str(Path(polbec.__file__).resolve().parents[1]))
    probe = "import sys, polbec.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_scalar_commands_load_no_numpy():
    # only dispersion imports numpy; the scalar commands and their sweeps
    # must start without it.  The last case is the control: it shows that
    # the probe sees numpy once a curve is sampled.
    root = Path(polbec.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cases = [
        ["thresholds"],
        ["masses"],
        ["check-coupling"],
        ["trap", "--target-tc", "300", "--n-particles", "1e6"],
        ["sweep", "--param", "T", "--from", "2", "--to", "2000", "--steps", "5",
         "--command", "thresholds"],
        ["sweep", "--param", "Delta", "--from", "-0.002", "--to", "0.002", "--steps", "5",
         "--command", "masses"],
        ["dispersion", "--samples", "5"],
    ]
    probe = (
        "import json, os, sys\n"
        "import polbec.cli\n"
        "loaded = ['numpy' in sys.modules]\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    rc = polbec.cli.main(argv + ['--config', sys.argv[2], '--out', os.devnull])\n"
        "    loaded.append((rc, 'numpy' in sys.modules))\n"
        "print(json.dumps(loaded))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(cases), str(root / "example.cfg")],
        capture_output=True, text=True, env=env, check=True,
    )
    after_import, *after_cases = json.loads(result.stdout)
    assert after_import is False
    assert after_cases == [[0, False]] * (len(cases) - 1) + [[0, True]]
