"""The positivity guard's shortcut in solver._guarded_dt returns exactly
the dt the full guard computes."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gmshadow.solver import _guarded_dt  # noqa: E402


def _full_dt_limit(dt, vals, sup, dvals):
    """The growth clamp and the positivity guard, every pass taken."""
    mag = np.abs(dvals)
    dt = min(dt, 0.1 * (1.0 + sup) / (1.0 + float(mag.max())))
    return min(dt, 0.45 * float((vals / (mag + 1e-300)).min()))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


SIZE = st.integers(1, 40)
POSITIVE = st.floats(1e-12, 1e12)
SIGNED = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e12, 1e12))


@st.composite
def fields(draw):
    n = draw(SIZE)
    vals = draw(arrays(np.float64, n, elements=POSITIVE))
    dvals = draw(arrays(np.float64, n, elements=SIGNED))
    if draw(st.booleans()) and draw(st.booleans()):
        dvals[draw(st.integers(0, n - 1))] = math.nan
    # the solver passes u's minimum; any lower bound must do as well
    low = float(vals.min()) * draw(st.sampled_from([1.0, 1.0, 0.5, 0.0]))
    sup = float(vals.max()) if draw(st.booleans()) else draw(POSITIVE)
    dt = draw(st.floats(1e-12, 1.0))
    return dt, vals, sup, low, dvals


def _check(dt, vals, sup, low, dvals):
    # vals/1e-300 overflows to inf at a zero rate, which the guard allows
    with np.errstate(over="ignore"):
        got = _guarded_dt(dt, vals, sup, low, dvals.copy())
        assert _same(got, _full_dt_limit(dt, vals, sup, dvals))


@settings(max_examples=400, deadline=None)
@given(fields())
# the guard binds: u = 1e-6 against a rate of 1
@example((1e-3, np.array([1e-6, 1.0]), 1.0, 1e-6, np.array([-1.0, 0.5])))
# it binds where u's minimum and the largest |du| sit on one node
@example((1.0, np.array([0.01, 3.0]), 3.0, 0.01, np.array([-40.0, 1.0])))
# all-zero rates and a NaN rate
@example((1e-3, np.array([1.0, 2.0]), 2.0, 1.0, np.array([0.0, -0.0])))
@example((1e-3, np.array([1.0, 2.0]), 2.0, 1.0, np.array([math.nan, 1.0])))
def test_guard_shortcut_matches_the_full_guard_bit_for_bit(case):
    _check(*case)

