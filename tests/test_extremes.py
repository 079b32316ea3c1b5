"""The solver's extremes read at argmax/argmin equal numpy's reductions, and
the lower bound a step carries for min u is one."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from gmshadow.solver import _guarded_dt, _max, _min  # noqa: E402


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0])
ENTRIES = st.one_of(SPECIAL, st.floats(allow_nan=False, allow_infinity=False))
SHAPES = array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40)


@settings(max_examples=400, deadline=None)
@given(arrays(np.float64, SHAPES, elements=ENTRIES))
@example(np.array([1.0, math.nan, 3.0, math.nan]))
@example(np.array([[2.0, -math.inf], [math.inf, math.nan]]))
def test_extremes_match_numpys_reductions(x):
    # the transpose is a non-contiguous view of the 2-D arrays
    for a in (x, x.T):
        assert type(_max(a)) is type(_min(a)) is float
        assert _same(_max(a), float(np.max(a)))
        assert _same(_min(a), float(np.min(a)))


POSITIVE = st.floats(5e-324, 1e300)
FINITE = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e300, 1e300))


@st.composite
def updates(draw):
    n = draw(st.integers(1, 40))
    u = draw(arrays(np.float64, n, elements=POSITIVE))
    du = draw(arrays(np.float64, n, elements=FINITE))
    dt = draw(st.one_of(st.floats(5e-324, 1e3), st.sampled_from([1e-12, 0.5])))
    # any lower bound: the exact minimum, a fraction of it, or below zero
    low = float(u.min()) * draw(st.sampled_from([1.0, 1.0, 0.5, 0.0, -1.0]))
    return u, du, dt, low


@settings(max_examples=400, deadline=None)
@given(updates())
# one node holds both u's minimum and du's; another rounds the other way
@example((np.array([0.1, 0.3]), np.array([-0.7, 1e-17]), 0.1, 0.1))
@example((np.array([1e-300, 1.0]), np.array([-1e300, 0.0]), 1e3, 1e-300))
def test_carried_bound_is_below_the_new_minimum(case):
    u, du, dt, low = case
    with np.errstate(over="ignore"):
        # u + dt*du as the step forms it, in du's buffer
        new = du.copy()
        new *= dt
        new += u
        assert low + dt * float(np.min(du)) <= float(np.min(new))


@settings(max_examples=200, deadline=None)
@given(updates(), st.floats(1e-12, 1.0))
def test_guard_returns_min_du_and_a_tighter_lower_bound(case, dt):
    u, du, _, low = case
    sup = float(u.max())
    with np.errstate(over="ignore"):
        _, bound, dmin = _guarded_dt(dt, u, sup, low, du.copy())
    assert _same(dmin, float(np.min(du)))
    # the given bound where it passes the shortcut, else u's exact minimum
    mx = max(float(np.max(du)), -float(np.min(du)))
    clamped = min(dt, 0.1 * (1.0 + sup) / (1.0 + mx))
    passed = 0.45 * (low / (mx + 1e-300)) >= clamped
    assert bound == (low if passed else float(u.min()))
    assert low <= bound <= float(u.min())
