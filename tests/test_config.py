import hashlib
import math
import os
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from polbec.config import (
    KEY_SPECS,
    ConfigError,
    RunConfig,
    SweepSpec,
    config_cgs,
    sweep_values,
)
from polbec.cli import main
from polbec.core import CGS_UNITS, EV_ERG, MEV_ERG
from polbec.units import UNITS, qty

GOOD = """\
# comment line
E0 = 2.104 eV
g = 1 meV          # trailing comment
mode_index = 3
L_cav = 1 cm
T = 300 K
N = 1e6
format = csv
"""


class TestParse:
    def test_typed_values(self):
        # a dimensioned value is stored as its cgs magnitude
        cfg = RunConfig.parse(GOOD)
        assert cfg.values["E0"] == 2.104 * EV_ERG and type(cfg.values["E0"]) is float
        assert cfg.values["g"] == 1.0 * MEV_ERG
        assert cfg.values["mode_index"] == 3
        assert isinstance(cfg.values["mode_index"], int)
        assert cfg.values["L_cav"] == 1.0 and type(cfg.values["L_cav"]) is float
        assert cfg.values["T"] == 300.0 and type(cfg.values["T"]) is float
        assert cfg.values["N"] == 1e6
        assert cfg.values["format"] == "csv"

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'banana'"):
            RunConfig.parse("banana = 3 cm\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key 'E0'"):
            RunConfig.parse("E0 = 1 eV\nE0 = 2 eV\n")

    def test_bare_number_rejected(self):
        with pytest.raises(ConfigError, match="bare numbers are rejected"):
            RunConfig.parse("E0 = 2.104\n")

    def test_unknown_unit(self):
        with pytest.raises(ConfigError, match="unknown unit 'furlong'"):
            RunConfig.parse("E0 = 2.104 furlong\n")

    def test_wrong_dimension(self):
        with pytest.raises(ConfigError, match="key 'E0'"):
            RunConfig.parse("E0 = 2.104 cm\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            RunConfig.parse("just words\n")

    def test_non_integer_mode_index(self):
        with pytest.raises(ConfigError, match="expected an integer"):
            RunConfig.parse("mode_index = 2.5\n")

    @pytest.mark.parametrize(
        "line, key",
        [
            ("omega_eff = nan s^-1", "omega_eff"),
            ("T = inf K", "T"),
            ("mode_index = inf", "mode_index"),
            ("n0 = -inf", "n0"),
            ("n2 = 1e400 cm^-2", "n2"),
        ],
        ids=["nan-quantity", "inf-quantity", "inf-int", "inf-float", "overflow-quantity"],
    )
    def test_non_finite_rejected(self, line, key):
        with pytest.raises(ConfigError, match=f"key '{key}': expected a finite number"):
            RunConfig.parse(line + "\n")

    @pytest.mark.parametrize(
        "line, key",
        [("E0 = 1e308 J", "E0"), ("m_eff = 1e306 kg", "m_eff"), ("L_cav = 1e307 m", "L_cav")],
        ids=["J", "kg", "m"],
    )
    def test_overflow_after_unit_factor_rejected(self, line, key):
        with pytest.raises(ConfigError, match=f"key '{key}': .* overflows to inf"):
            RunConfig.parse(line + "\n")

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="key 'format'"):
            RunConfig.parse("format = yaml\n")

    def test_length_and_delta_exclusive(self):
        with pytest.raises(ConfigError, match="either 'L_cav' or 'Delta'"):
            RunConfig.parse("L_cav = 1 cm\nDelta = 0 eV\n")

    def test_require_names_key(self):
        cfg = RunConfig.parse(GOOD)
        with pytest.raises(ConfigError, match="missing required key 'd'"):
            cfg.require("d")

    def test_require_any(self):
        cfg = RunConfig.parse(GOOD)
        key, value = cfg.require_any("n2", "T")
        assert key == "T"
        with pytest.raises(ConfigError, match="one of 'n2', 'n3'"):
            cfg.require_any("n2", "n3")

    def test_digest_stable(self):
        assert RunConfig.parse(GOOD).digest() == RunConfig.parse(GOOD).digest()
        assert RunConfig.parse(GOOD).digest() != RunConfig.parse(GOOD + "\nn0 = 1.5\n").digest()

    @pytest.mark.parametrize("text", [GOOD, "# cell at 300 \u00b0C, \u03bb/2 cavity\n" + GOOD, ""],
                             ids=["ascii", "utf-8", "empty"])
    def test_digest_is_hashlib_sha256_of_the_text(self, text):
        # the digest takes CPython's own sha256 module where there is one
        expected = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        assert RunConfig.parse(text).digest() == expected

    def test_with_value_keeps_source(self):
        cfg = RunConfig.parse(GOOD)
        cfg2 = cfg.with_value("n0", 1.5)
        assert cfg2.values["n0"] == 1.5
        assert cfg2.digest() == cfg.digest()
        assert "n0" not in cfg.values


QUANTITY_KEYS = sorted(key for key, spec in KEY_SPECS.items() if spec.kind == "quantity")


def test_each_quantity_key_has_a_canonical_unit():
    # a quantity's canonical unit fixes its dimension; no other key has one
    assert all(KEY_SPECS[key].sweep_unit in CGS_UNITS for key in QUANTITY_KEYS)
    assert all(spec.sweep_unit is None for key, spec in KEY_SPECS.items()
               if key not in QUANTITY_KEYS)


@given(
    key=st.sampled_from(QUANTITY_KEYS),
    unit=st.sampled_from(sorted(UNITS) + ["furlong"]),
    x=st.floats(allow_nan=False, allow_infinity=False),
)
@example(key="E0", unit="J", x=1e308)
@example(key="m_eff", unit="kg", x=-1e306)
@example(key="E0", unit="cm", x=1e308)
@example(key="Delta", unit="eV", x=-0.0)
@example(key="T", unit="K", x=5e-324)
def test_quantity_value_is_its_cgs_magnitude(key, unit, x):
    # the float parsing stores is qty(x, unit).cgs bit for bit; a wrong
    # dimension is reported before an overflow, each in its own words
    raw = f"{x!r} {unit}"
    # the dimension of the key's canonical unit, as its cgs base-unit string
    expected_dim = UNITS[KEY_SPECS[key].sweep_unit][1].unit_string()
    if unit not in UNITS:
        message = f"key '{key}': unknown unit {unit!r}"
    elif UNITS[unit][1].unit_string() != expected_dim:
        message = (f"key '{key}': unit {unit!r} has dimension [{UNITS[unit][1].unit_string()}], "
                   f"expected [{expected_dim}]")
    elif not math.isfinite(qty(x, unit).cgs):
        message = f"key '{key}': {raw!r} overflows to {qty(x, unit).cgs} in cgs units"
    else:
        value = RunConfig.parse(f"{key} = {raw}\n").values[key]
        assert type(value) is float
        assert value.hex() == qty(x, unit).cgs.hex()
        return
    with pytest.raises(ConfigError) as info:
        RunConfig.parse(f"{key} = {raw}\n")
    assert str(info.value) == message


class TestSweepSpec:
    def test_linear_grid_hits_symmetric_midpoint(self):
        spec = SweepSpec("Delta", -0.004, 0.004, 11)
        values = sweep_values(spec)
        assert len(values) == 11
        assert values[0] == -0.004
        assert values[5] == 0.0
        assert values[-1] == pytest.approx(0.004, rel=1e-15)

    def test_log_grid(self):
        spec = SweepSpec("n2", 1e6, 1e8, 3, scale="log")
        values = sweep_values(spec)
        assert values[0] == pytest.approx(1e6)
        assert values[1] == pytest.approx(1e7)
        assert values[2] == pytest.approx(1e8)

    def test_log_negative_endpoints(self):
        spec = SweepSpec("Delta", -1e-3, -1e-1, 3, scale="log")
        values = sweep_values(spec)
        assert values[1] == pytest.approx(-1e-2)

    @pytest.mark.parametrize("param, start, stop", [
        ("Delta", -1e-170, -1e-160), ("n2", 1e-200, 1e-199), ("Delta", 5e-324, 1e-300)])
    def test_log_endpoints_whose_product_underflows(self, param, start, stop):
        # start * stop rounds to 0, yet both endpoints have one sign
        assert start * stop == 0
        values = sweep_values(SweepSpec(param, start, stop, 3, scale="log"))
        assert values[0] == pytest.approx(start) and values[-1] == pytest.approx(stop)

    @pytest.mark.parametrize("start, stop", [(-1e-170, 1e-160), (1e-200, -1e-199), (0, 1),
                                             (-0.0, -1e-300)])
    def test_log_endpoints_of_two_signs_or_zero(self, start, stop):
        with pytest.raises(ConfigError, match="^log sweep requires same-sign nonzero endpoints$"):
            SweepSpec("Delta", start, stop, 3, scale="log")

    @pytest.mark.parametrize("param, start, stop, target, code, err", [
        ("Delta", "-1e-170", "-1e-160", "masses", 0, ""),
        # past the sign check, the ladder's own error, which names the keys behind T_c
        ("n2", "1e-200", "1e-199", "thresholds", 1,
         "polbec: error: condensate fraction: (T/T_c)^2 overflows for 'T' = 300 K, "
         "T_c = 6.15337e-206 K from 'n2' = 1e-200 cm^-2, 'm_eff' = 5e-33 g\n"),
    ], ids=["Delta-masses", "n2-thresholds"])
    def test_log_sweep_of_tiny_endpoints_passes_the_sign_check(self, capsys, param, start, stop,
                                                               target, code, err):
        argv = ["sweep", "--config", str(Path(__file__).resolve().parents[1] / "example.cfg"),
                "--out", os.devnull, "--param", param, "--from", start, "--to", stop,
                "--steps", "3", "--scale", "log", "--command", target]
        assert (main(argv), capsys.readouterr().err) == (code, err)

    def test_validation(self):
        with pytest.raises(ConfigError, match="non-numeric"):
            SweepSpec("format", 0, 1, 5)
        with pytest.raises(ConfigError, match="unknown sweep parameter"):
            SweepSpec("bogus", 0, 1, 5)
        with pytest.raises(ConfigError, match="at least 2 steps"):
            SweepSpec("Delta", 0, 1, 1)
        with pytest.raises(ConfigError, match="endpoints must differ"):
            SweepSpec("Delta", 1, 1, 5)
        with pytest.raises(ConfigError, match="same-sign"):
            SweepSpec("Delta", -1, 1, 5, scale="log")
        with pytest.raises(ConfigError, match="endpoints must be finite"):
            SweepSpec("T", 1, math.inf, 5)
        with pytest.raises(ConfigError, match="endpoints must be finite"):
            SweepSpec("Delta", math.nan, 1, 5)

    @pytest.mark.parametrize("scale", ["cubic", "LOG"])
    def test_unknown_scale(self, scale):
        with pytest.raises(ConfigError, match=f"^sweep scale must be linear or log, got '{scale}'$"):
            SweepSpec("T", 1, 2, 5, scale=scale)

    def test_config_value_types(self):
        # a swept value as the config's cgs view holds it
        q, = config_cgs(SweepSpec("Delta", -1, 1, 3), [0.5])
        assert q == 0.5 * EV_ERG and isinstance(q, float)
        n, = config_cgs(SweepSpec("N", 1, 9, 3), [5.0])
        assert n == 5.0
        m, = config_cgs(SweepSpec("mode_index", 1, 9, 3), [5.0])
        assert m == 5 and isinstance(m, int)

    @pytest.mark.parametrize("param", ["Delta", "N", "mode_index"])
    def test_config_value_non_finite_names_key(self, param):
        # a linear span of +-1.7e308 overflows, and its first value is nan
        spec = SweepSpec(param, -1.7e308, 1.7e308, 3)
        value = sweep_values(spec)[0]
        with pytest.raises(ConfigError, match=f"sweep over '{param}' .* not finite"):
            config_cgs(spec, [value])

    @pytest.mark.parametrize("param, values, message", [
        ("Delta", [0.5, math.inf, math.nan], "produced inf, which is not finite"),
        ("N", [1.0, math.nan, math.inf], "produced nan, which is not finite"),
        ("mode_index", [1.0, 1.5, math.inf], "produced non-integer 1.5"),
        ("mode_index", [1.0, math.inf, 1.5], "produced inf, which is not finite"),
    ])
    def test_config_cgs_column_names_its_first_failing_value(self, param, values, message):
        spec = SweepSpec(param, 1, 9, 3)
        with pytest.raises(ConfigError, match=f"sweep over '{param}' {message}"):
            config_cgs(spec, values)
        assert config_cgs(spec, values[:1]) == [values[0] * (EV_ERG if param == "Delta" else 1)]
