import math
import re

import numpy as np
import pytest

from gmshadow import (
    Field,
    InitKind,
    InitSpec,
    RadialGrid,
    RectGrid,
    build_initial,
    mean,
)
from gmshadow.initdata import spike_profile


def test_cosine_profile():
    g = RectGrid(65, 65)
    f = build_initial(InitSpec(InitKind.COSINE_PLUS, c=2.0), g)
    assert f.values[0, 0] == pytest.approx(3.0)   # y = 0 row
    assert f.values[-1, 0] == pytest.approx(1.0)  # y = 1 row
    assert np.all(f.values > 0.0)
    assert np.max(np.abs(f.values[:, 3] - f.values[:, 40])) < 1e-15  # x-independent


def test_cosine_requires_offset_above_one():
    with pytest.raises(ValueError):
        InitSpec(InitKind.COSINE_PLUS, c=1.0)


@pytest.mark.parametrize("kind,name", [
    (InitKind.COSINE_PLUS, "c"), (InitKind.CONSTANT, "c"), (InitKind.SPIKY, "lam"),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_profile_rejects_a_non_finite_value(kind, name, value):
    # nan used to pass to advance() and end NON_FINITE after one sample
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        InitSpec(kind, **{name: value})


@pytest.mark.parametrize("kind, kw, message", [
    (InitKind.COSINE_PLUS, dict(c=1.0), "cosine profile needs c > 1 for positivity, got c=1.0"),
    (InitKind.CONSTANT, dict(c=0.0), "constant profile needs c > 0, got c=0.0"),
    (InitKind.SPIKY, dict(delta=0.0), "spiky profile needs 0 < delta < 1, got 0.0"),
    (InitKind.SPIKY, dict(delta=1.0), "spiky profile needs 0 < delta < 1, got 1.0"),
    (InitKind.SPIKY, dict(lam=0.0), "spiky profile needs lambda > 0, got 0.0"),
], ids=["cosine_c", "constant_c", "delta0", "delta1", "lambda"])
def test_range_checks_name_the_value(kind, kw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        InitSpec(kind, **kw)


def test_constant_profile():
    g = RadialGrid(3, 9)
    f = build_initial(InitSpec(InitKind.CONSTANT, c=1.5), g)
    assert np.all(f.values == 1.5)


def test_spiky_rejected_on_rectangle():
    with pytest.raises(ValueError):
        build_initial(InitSpec(InitKind.SPIKY, delta=0.5, lam=1.0), RectGrid(9, 9), p=4.0)


def test_spiky_needs_p():
    with pytest.raises(ValueError):
        build_initial(InitSpec(InitKind.SPIKY, delta=0.5, lam=1.0), RadialGrid(3, 9))


def test_spike_branch_values():
    # both branches agree at R=delta by construction
    assert spike_profile(np.array([0.5]), 0.5, 4.0)[0] == pytest.approx(0.5 ** (-2 / 3))
    # R=1 is lambda * 1
    g = RadialGrid(3, 6)  # has a node exactly at R=1
    f = build_initial(InitSpec(InitKind.SPIKY, delta=0.8, lam=0.1), g, p=4.0)
    assert f.values[-1] == pytest.approx(0.1)
    # R=0 cap value: lam * delta^-a * (1 + a/2)
    assert f.values[0] == pytest.approx(0.1547196277870926, rel=1e-12)


def test_spike_monotone_and_continuous():
    g = RadialGrid(3, 513)
    for delta, p in [(0.8, 4.0), (0.3, 3.0), (0.05, 5.0)]:
        v = spike_profile(g.R, delta, p)
        assert np.all(np.diff(v) <= 1e-14)
        assert np.all(v > 0.0)
        # nodal jumps stay O(h * local slope): no branch discontinuity
        jumps = np.abs(np.diff(v))
        a = 2.0 / (p - 1.0)
        slope_max = a * delta ** (-a - 1.0)
        assert np.max(jumps) <= 2.0 * slope_max * g.h


def test_spike_mean_converges():
    # ball average of psi_delta tends to N/(N - a) = 9/7 for N=3, p=4,
    # at rate O(delta^(N-a)) = O(delta^(7/3))
    g = RadialGrid(3, 4097)
    errs = []
    for delta in (0.2, 0.1, 0.05):
        f = Field(g, spike_profile(g.R, delta, 4.0))
        errs.append(abs(mean(f, 1.0) - 9.0 / 7.0))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 3e-4
    # consecutive halvings of delta shrink the error by about 2^(7/3) ~ 5
    assert 3.0 < errs[0] / errs[1] < 7.5


def test_spike_higher_moment_mean():
    # m = p = 4 with a = 2/3: limit N/(N - ma) = 3/(3 - 8/3) = 9, approached
    # at the slow rate O(delta^(N-ma)) = O(delta^(1/3)).  Exact ball average:
    # 9(1 - d^(1/3)) + 3 d^(1/3) * int_0^1 ((4 - x^2)/3)^4 x^2 dx
    g = RadialGrid(3, 8193)
    J = (256.0 / 3 - 256.0 / 5 + 96.0 / 7 - 16.0 / 9 + 1.0 / 11) / 81.0
    errs = []
    for delta in (0.02, 0.01):
        f = Field(g, spike_profile(g.R, delta, 4.0))
        got = mean(f, 4.0)
        exact = 9.0 * (1.0 - delta ** (1.0 / 3.0)) + 3.0 * J * delta ** (1.0 / 3.0)
        assert got == pytest.approx(exact, rel=1e-3)
        errs.append(9.0 - got)
    # halving delta shrinks the defect by about 2^(1/3)
    assert 1.1 < errs[0] / errs[1] < 1.5


def test_spike_slope_at_delta_converges():
    # one-sided slopes at R=delta approach -a * delta^(-a-1)
    delta, p = 0.5, 4.0
    a = 2.0 / (p - 1.0)
    target = -a * delta ** (-a - 1.0)
    errs = []
    for M in (513, 1025):
        g = RadialGrid(3, M)
        v = spike_profile(g.R, delta, p)
        i = int(round(delta / g.h))
        left = (v[i] - v[i - 1]) / g.h
        right = (v[i + 1] - v[i]) / g.h
        errs.append(max(abs(left - target), abs(right - target)))
    assert errs[1] < errs[0]
    assert errs[1] < 0.02 * abs(target)
