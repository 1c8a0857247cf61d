"""The numtext kernel against '%.12g', byte for byte."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from polbec.numtext import BLOCK_ROWS, csv_rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference(table) -> str:
    """What '%.12g' with ',' and a newline per row prints."""
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in np.asarray(table).tolist())


# any double: subnormals, both zeros, NaN and both infinities included
ANY_FLOAT = st.floats(width=64)
# a 12-digit tie (13 digits ending in 5) at any exponent the kernel handles
# itself, and the doubles next to it, whose scaled digits may round onto the tie
TIE = st.builds(lambda digits, exponent, step: np.nextafter(
    float(f"{digits}5e{exponent}"), np.inf * step),
    st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-24, 22), st.sampled_from([-1, 0, 1]))

EDGES = [999999999999.5, 1234567890125.0, 9.999999999995e-5, 99999999999.95, 1e-5, 1e12,
         1e16, 5e-324]
# doubles just off a 12-digit tie whose scaled digits round onto the tie
ONTO_TIE = [0.0007233473479575, 519410.3982355, 5.9718954784450006e+22]


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 8)),
                  elements=ANY_FLOAT | TIE))
@example(np.array([EDGES]))
def test_any_table_prints_as_the_template(table):
    assert csv_rows(table) == reference(table)


@pytest.mark.parametrize("value", EDGES + ONTO_TIE + [0.0, float("nan"), float("inf"), 1e11, 1e-4,
                                           9.99999999999e33, 1e34, 1e-11, 1e-12, 2.5])
def test_edge_value_prints_as_the_template(value):
    table = np.array([[value, -value, np.nextafter(value, 0.0), np.nextafter(value, np.inf)]])
    assert csv_rows(table) == reference(table)


@pytest.mark.parametrize("ncol", range(1, 9))
@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_block_edges(rows, ncol):
    rng = np.random.default_rng(rows * 8 + ncol)
    table = rng.standard_normal((rows, ncol)) * 10.0 ** rng.integers(-14, 36, (rows, ncol))
    # cells that go to '%' itself, on both sides of each block boundary
    for row in {0, rows - 1, BLOCK_ROWS - 1, BLOCK_ROWS} & set(range(rows)):
        table[row, row % ncol] = [0.0, -np.inf, np.nan, 5e-324][row % 4]
    assert csv_rows(table) == reference(table)


@pytest.mark.parametrize("exponent", range(-13, 36))
def test_powers_of_ten_and_their_neighbours(exponent):
    # floor(log10 x) may land one off next to a power of ten
    power = 10.0 ** exponent
    table = np.array([[power, np.nextafter(power, 0.0), np.nextafter(power, np.inf),
                       power * (1 - 2e-13), power * (1 + 2e-13)]])
    assert csv_rows(table) == reference(table)


def test_no_rows_print_nothing():
    assert csv_rows(np.empty((0, 3))) == ""
