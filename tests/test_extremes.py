"""The solver's extremes read at argmax/argmin equal numpy's reductions."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import array_shapes, arrays  # noqa: E402

from gmshadow.solver import _max, _min  # noqa: E402


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
