"""Shared check that a Quantity operation and the cgs core it wraps agree.

Each operation takes magnitude_in_cgs of its arguments, calls one core and
wraps the result, so on the same magnitudes both must give the same value
bit for bit, or raise the same error type with the same message.
"""

import math

import pytest
from hypothesis import strategies as st

from polbec.units import Quantity


def logs(low: float, high: float):
    """Log-uniform floats in [low, high]."""
    return st.floats(math.log(low), math.log(high)).map(math.exp)


# positive values far outside every physical range, where a result can
# leave the float range
EXTREME = st.sampled_from([1e-320, 1e-300, 1e300, 1e308])

# values no check may let through
INVALID = st.sampled_from([0.0, -1.0, math.inf, math.nan])


def magnitudes(low: float, high: float, invalid: bool = True):
    """A physical range, now and then an extreme or (with invalid) an invalid value."""
    drawn = logs(low, high) | EXTREME
    return drawn | INVALID if invalid else drawn


def cgs_view(result):
    """The magnitude of a Quantity result; any other result as it is."""
    return result.cgs if isinstance(result, Quantity) else result


def assert_same_outcome(op, core, op_args, core_args, view=cgs_view):
    """op(*op_args), seen through view, against core(*core_args): the same
    value (repr tells -0.0 from 0.0 and NaN from None), or the same error."""
    try:
        expected = core(*core_args)
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)) as info:
            op(*op_args)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    assert repr(view(op(*op_args))) == repr(expected)
