import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polbec.units import (
    AREA_DENSITY,
    DIMENSIONLESS,
    DIPOLE_MOMENT,
    Dimension,
    DimensionError,
    ENERGY,
    LENGTH,
    MASS,
    Quantity,
    TEMPERATURE,
    TIME,
    UNITS,
    VOLUME_DENSITY,
    constant,
    convert,
    qty,
)

EXPONENTS = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=2
)
DIMENSIONS = st.builds(Dimension, EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS)
MAGNITUDES = st.floats(min_value=1e-12, max_value=1e12)


class TestConstants:
    def test_hbar(self):
        hbar = constant("hbar")
        # h/(2 pi); agrees with the 10-digit presentation 1.054571817e-27
        assert hbar.magnitude == pytest.approx(1.054571817e-27, rel=1e-9)
        assert hbar.magnitude == 6.62607015e-27 / (2 * math.pi)
        assert hbar.dimension == ENERGY * TIME

    def test_h(self):
        assert constant("h").magnitude == 6.62607015e-27

    def test_c(self):
        c = constant("c")
        assert c.magnitude == 2.99792458e10
        assert c.dimension == LENGTH / TIME

    def test_k_boltzmann(self):
        kb = constant("k_boltzmann")
        assert kb.magnitude == 1.380649e-16
        assert kb.dimension == ENERGY / TEMPERATURE

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown constant"):
            constant("planck_mass")


class TestConvert:
    def test_mass_to_si(self):
        m = qty(5e-33, "g")
        m_si = convert(m, "si")
        assert m_si.magnitude == pytest.approx(5e-36, rel=1e-15)
        assert m_si.system == "si"
        assert m_si.dimension == MASS

    def test_density_to_si(self):
        n = qty(3.5e11, "cm^-3")
        assert convert(n, "si").magnitude == pytest.approx(3.5e17, rel=1e-15)

    def test_round_trip_exact(self):
        lam = qty(1.84e-4, "cm")
        back = convert(convert(lam, "si"), "cgs")
        assert abs(back.magnitude - lam.magnitude) <= math.ulp(lam.magnitude)

    @pytest.mark.parametrize("unit", sorted(UNITS))
    def test_involution_every_supported_dimension(self, unit):
        q = qty(3.14159, unit)
        back = convert(convert(q, "si"), "cgs")
        assert abs(back.magnitude - q.magnitude) <= math.ulp(q.magnitude)

    @given(DIMENSIONS, MAGNITUDES)
    def test_involution_random_dimensions(self, dim, mag):
        q = Quantity(mag, dim)
        back = convert(convert(q, "si"), "cgs")
        assert abs(back.magnitude - q.magnitude) <= math.ulp(q.magnitude)
        q_si = convert(q, "si")
        back_si = convert(convert(q_si, "cgs"), "si")
        assert abs(back_si.magnitude - q_si.magnitude) <= math.ulp(q_si.magnitude)

    def test_dipole_factor(self):
        # esu*cm in si mechanical base: 10^(-2*5/2 - 3*1/2) = 10^-6.5
        d = qty(1.0, "esu*cm")
        assert convert(d, "si").magnitude == pytest.approx(10.0**-6.5, rel=1e-15)

    def test_mixed_system_arithmetic(self):
        a = qty(1.0, "cm")
        b = convert(qty(1.0, "cm"), "si")
        assert (a + b).magnitude == pytest.approx(2.0, rel=1e-15)


class TestArithmetic:
    @given(DIMENSIONS, DIMENSIONS, MAGNITUDES, MAGNITUDES)
    def test_mul_div_round_trip(self, d1, d2, m1, m2):
        a = Quantity(m1, d1)
        b = Quantity(m2, d2)
        prod = a * b
        assert prod.dimension == Dimension(
            d1.length + d2.length, d1.mass + d2.mass,
            d1.time + d2.time, d1.temperature + d2.temperature,
        )
        back = prod / b
        assert abs(back.magnitude - a.magnitude) <= 2 * math.ulp(a.magnitude)
        assert back.dimension == d1

    @given(DIMENSIONS, DIMENSIONS, MAGNITUDES, MAGNITUDES)
    def test_add_unequal_dimensions_raises(self, d1, d2, m1, m2):
        a = Quantity(m1, d1)
        b = Quantity(m2, d2)
        if d1 == d2:
            assert (a + b).magnitude == pytest.approx(m1 + m2)
        else:
            with pytest.raises(DimensionError):
                a + b
            with pytest.raises(DimensionError):
                a - b
            with pytest.raises(DimensionError):
                a < b

    def test_scalar_ops(self):
        e = qty(2.0, "eV")
        assert (2 * e).in_unit("eV") == pytest.approx(4.0)
        assert (e / 2).in_unit("eV") == pytest.approx(1.0)
        assert (1 / qty(2.0, "s")).dimension == DIMENSIONLESS / TIME

    def test_pow_and_sqrt(self):
        area = qty(3.0, "cm") ** 2
        assert area.dimension == LENGTH**2
        side = area.sqrt()
        assert side.dimension == LENGTH
        assert side.magnitude == pytest.approx(3.0, rel=1e-15)

    def test_fractional_exponents_stay_exact(self):
        d = qty(1.0, "D")
        assert d.dimension == DIPOLE_MOMENT
        assert (d * d).dimension == MASS * LENGTH**5 / TIME**2

    def test_float_cast_guard(self):
        ratio = qty(1.0, "cm") / qty(2.0, "cm")
        assert float(ratio) == 0.5
        with pytest.raises(DimensionError):
            float(qty(1.0, "cm"))

    def test_comparisons(self):
        assert qty(1.0, "eV") < qty(2.0, "eV")
        assert qty(1.0, "eV") <= qty(1.0, "eV")
        assert qty(1e7, "erg") == qty(1.0, "J")
        assert qty(1.0, "eV") >= qty(1.0, "eV") and not qty(1.0, "eV") > qty(1.0, "eV")
        assert qty(2.0, "eV") > qty(1.0, "eV")

    def test_sign_and_repr(self):
        q = qty(-2.0, "cm")
        assert (-q).magnitude == 2.0 and (-q).dimension == LENGTH
        assert abs(q) == -q
        assert repr(q) == "Quantity(-2 cm [cgs])"
        assert repr(convert(q, "si")) == "Quantity(-0.02 m [si])"

    @pytest.mark.parametrize("exponent", [2, 3, -1])
    def test_integer_power_of_a_negative_magnitude(self, exponent):
        assert (Quantity(-4.0, LENGTH) ** exponent).magnitude == (-4.0) ** exponent

    @pytest.mark.parametrize("power, text", [
        (lambda q: q ** Fraction(3, 2), "(-4.0) ** 3/2"),
        (lambda q: q ** Fraction(-1, 2), "(-4.0) ** -1/2"),
        (Quantity.sqrt, "(-4.0) ** 1/2"),
    ], ids=["3/2", "-1/2", "sqrt"])
    def test_fractional_power_of_a_negative_magnitude_names_it(self, power, text):
        # Python's float power gives a complex number here, which Quantity
        # cannot hold, and math.sqrt a bare "math domain error"
        with pytest.raises(ValueError, match=re.escape(
                f"a fractional power of a negative magnitude has no real value: {text}")):
            power(Quantity(-4.0, LENGTH))

    @pytest.mark.parametrize("magnitude, exponent, text", [
        (0.0, -1, "(0.0) ** -1"),
        (-0.0, Fraction(-1, 2), "(-0.0) ** -1/2"),
    ], ids=["0 ** -1", "-0 ** -1/2"])
    def test_negative_power_of_a_zero_magnitude_names_it(self, magnitude, exponent, text):
        # Python's float power raises "0.0 cannot be raised to a negative
        # power", which shows neither the magnitude's sign nor the exponent
        with pytest.raises(ZeroDivisionError, match="^" + re.escape(
                f"a negative power of a zero magnitude has no finite value: {text}") + "$"):
            Quantity(magnitude, LENGTH) ** exponent


# (call, error, message) of each check of the Quantity layer
CHECKS = {
    "float-exponent": (lambda: Dimension(length=1.5), TypeError,
                       "dimension exponents must be int or Fraction, got float"),
    "unknown-system": (lambda: Quantity(1.0, LENGTH, "mks"), ValueError,
                       "unknown unit system 'mks'; expected one of ('cgs', 'si')"),
    "assignment": (lambda: setattr(qty(1.0, "cm"), "magnitude", 2.0), AttributeError,
                   "Quantity is immutable"),
    "compare-with-int": (lambda: qty(2.0, "cm") > 1, DimensionError,
                         "cannot compare Quantity and int"),
    "convert-to-unknown-system": (lambda: convert(qty(1.0, "cm"), "imperial"), ValueError,
                                  "unknown unit system 'imperial'; expected one of ('cgs', 'si')"),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_raises(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "op, expected",
    [
        (lambda q: q + 1.0, TypeError),
        (lambda q: q - 1.0, TypeError),
        (lambda q: q * "x", TypeError),
        (lambda q: q / "x", TypeError),
        (lambda q: "x" / q, TypeError),
        (lambda q: q == 1.0, False),
        (lambda q: q != 1.0, True),
        (lambda q: q.to("cgs"), (8.0, LENGTH, "cgs")),
        (lambda q: convert(q, "cgs"), (8.0, LENGTH, "cgs")),
        (lambda q: q ** Fraction(1, 3), (2.0, LENGTH ** Fraction(1, 3), "cgs")),
    ],
    ids=["add-float", "sub-float", "mul-str", "div-str", "rdiv-str", "eq-float", "ne-float",
         "to-own-system", "convert-own-system", "cube-root"],
)
def test_quantity_operands_and_own_system(op, expected):
    # a float or str operand has no rule: the operation raises TypeError, and
    # == and != fall back to identity; converting to its own system keeps q
    q = qty(8, "cm")
    if expected is TypeError:
        with pytest.raises(TypeError):
            op(q)
    elif type(expected) is bool:
        assert op(q) is expected
    else:
        result = op(q)
        assert (result.magnitude, result.dimension, result.system) == expected


class TestUnits:
    def test_energy_chain(self):
        assert qty(1.0, "eV").magnitude == pytest.approx(1.602176634e-12, rel=1e-15)
        assert qty(1.0, "meV").magnitude == pytest.approx(1.602176634e-15, rel=1e-15)

    def test_debye(self):
        assert qty(1.0, "D").magnitude == pytest.approx(1e-18, rel=1e-15)

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown unit"):
            qty(1.0, "furlong")

    def test_in_unit_dimension_check(self):
        with pytest.raises(DimensionError):
            qty(1.0, "cm").in_unit("eV")

    def test_registry_dimensions(self):
        assert UNITS["cm^-2"][1] == AREA_DENSITY
        assert UNITS["m^-3"][1] == VOLUME_DENSITY
        assert UNITS["m^-3"][0] == pytest.approx(1e-6)
