import math

import pytest

from polbec.config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    config_cgs,
    sweep_values,
)
from polbec.units import ENERGY, EV_ERG, LENGTH, TEMPERATURE

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
        cfg = RunConfig.parse(GOOD)
        assert cfg.values["E0"].dimension == ENERGY
        assert cfg.values["E0"].in_unit("eV") == pytest.approx(2.104)
        assert cfg.values["g"].in_unit("meV") == pytest.approx(1.0)
        assert cfg.values["mode_index"] == 3
        assert isinstance(cfg.values["mode_index"], int)
        assert cfg.values["L_cav"].dimension == LENGTH
        assert cfg.values["T"].dimension == TEMPERATURE
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

    def test_with_value_keeps_source(self):
        cfg = RunConfig.parse(GOOD)
        cfg2 = cfg.with_value("n0", 1.5)
        assert cfg2.values["n0"] == 1.5
        assert cfg2.digest() == cfg.digest()
        assert "n0" not in cfg.values


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

    def test_config_value_types(self):
        # a swept value as the config's cgs view holds it
        q = config_cgs(SweepSpec("Delta", -1, 1, 3), 0.5)
        assert q == 0.5 * EV_ERG and isinstance(q, float)
        n = config_cgs(SweepSpec("N", 1, 9, 3), 5.0)
        assert n == 5.0
        m = config_cgs(SweepSpec("mode_index", 1, 9, 3), 5.0)
        assert m == 5 and isinstance(m, int)

    @pytest.mark.parametrize("param", ["Delta", "N", "mode_index"])
    def test_config_value_non_finite_names_key(self, param):
        # a linear span of +-1.7e308 overflows, and its first value is nan
        spec = SweepSpec(param, -1.7e308, 1.7e308, 3)
        value = sweep_values(spec)[0]
        with pytest.raises(ConfigError, match=f"sweep over '{param}' .* not finite"):
            config_cgs(spec, value)
