import math
import re

import pytest

from gmshadow import (
    EvolutionLaw,
    LawKind,
    Parameters,
    derive_indices,
    diffusion_blowup_condition,
    global_existence_condition,
    turing_condition,
)


def test_table1_indices():
    idx = derive_indices(Parameters(p=3, q=2, r=1, s=2))
    assert idx.gamma == pytest.approx(2.0 / 3.0, abs=0)
    assert idx.omega == pytest.approx(7.0 / 3.0, abs=0)
    assert idx.pi == 2.0


def test_zero_q_indices():
    idx = derive_indices(Parameters(p=2, q=0, r=1, s=0))
    assert idx.gamma == 0.0
    assert idx.omega == 2.0
    assert idx.pi == 1.0


def test_turing_regime_indices():
    idx = derive_indices(Parameters(p=4, q=4, r=2, s=1))
    assert idx.gamma == 2.0
    assert idx.omega == 0.0
    assert idx.pi == 1.5


@pytest.mark.parametrize(
    "kw",
    [dict(p=3, q=2, r=1, s=-1), dict(p=3, q=2, r=0, s=2), dict(p=3, q=2, r=-1, s=2)],
)
def test_rejects_bad_exponents(kw):
    with pytest.raises(ValueError):
        Parameters(**kw)


@pytest.mark.parametrize("field, value", [
    ("p", math.nan), ("q", math.inf), ("r", math.nan), ("s", math.nan),
    ("D1", math.inf), ("D2", math.nan), ("tau", math.inf),
])
def test_rejects_non_finite_fields(field, value):
    kw = dict(p=3, q=2, r=1, s=2, D1=1.0, D2=1.0, tau=0.01)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Parameters(**kw)


TABLE1 = dict(p=3, q=2, r=1, s=2)


@pytest.mark.parametrize("make, message", [
    (lambda: Parameters(**{**TABLE1, "s": -1.0}), "s must exceed -1 (gamma finite), got s=-1.0"),
    (lambda: Parameters(**{**TABLE1, "r": 0.0}), "r must be positive (pi finite), got r=0.0"),
    (lambda: Parameters(**{**TABLE1, "q": -0.5}), "q must be nonnegative, got q=-0.5"),
    (lambda: Parameters(**TABLE1, D1=0.0), "D1 must be positive, got D1=0.0"),
    (lambda: Parameters(**TABLE1, D2=-1.0), "D2 must be positive, got D2=-1.0"),
    (lambda: Parameters(**TABLE1, tau=-0.01), "tau must be nonnegative, got tau=-0.01"),
    (lambda: global_existence_condition(derive_indices(Parameters(**TABLE1)),
                                        Parameters(**TABLE1), 0),
     "dimension must be >= 1, got 0"),
    (lambda: global_existence_condition(derive_indices(Parameters(**TABLE1)),
                                        Parameters(**TABLE1), 2.5),
     "dimension must be an integer, got 2.5"),
    (lambda: global_existence_condition(derive_indices(Parameters(**TABLE1)),
                                        Parameters(**TABLE1), math.nan),
     "dimension must be an integer, got nan"),
    (lambda: diffusion_blowup_condition(derive_indices(Parameters(**TABLE1)),
                                        Parameters(**TABLE1), 2.5),
     "dimension must be an integer >= 1, got 2.5"),
    (lambda: diffusion_blowup_condition(derive_indices(Parameters(**TABLE1)),
                                        Parameters(**TABLE1), math.nan),
     "dimension must be an integer >= 1, got nan"),
    (lambda: diffusion_blowup_condition(derive_indices(Parameters(**TABLE1)),
                                        Parameters(**TABLE1), 0),
     "dimension must be an integer >= 1, got 0"),
    (lambda: EvolutionLaw(LawKind.STATIC, dimension=4), "dimension must be 1, 2 or 3, got 4"),
], ids=["s", "r", "q", "D1", "D2", "tau", "n_dim", "n_dim_fraction", "n_dim_nan",
        "blowup_n_dim_fraction", "blowup_n_dim_nan", "blowup_n_dim_zero", "law_dim"])
def test_range_checks_name_the_value(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_derive_indices_deterministic():
    p = Parameters(p=3, q=2, r=1, s=2)
    a, b = derive_indices(p), derive_indices(p)
    assert (a.gamma, a.omega, a.pi) == (b.gamma, b.omega, b.pi)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q,s", [(2.0, 2.0), (1.0, 0.5), (4.0, 1.0)])
def test_gamma_invariant_under_exponent_scaling(k, q, s):
    base = derive_indices(Parameters(p=3, q=q, r=1, s=s))
    scaled = derive_indices(Parameters(p=3, q=k * q, r=1, s=k * (s + 1) - 1))
    assert scaled.gamma == pytest.approx(base.gamma, rel=1e-15)


def test_turing_condition():
    assert turing_condition(derive_indices(Parameters(p=4, q=4, r=2, s=1)))
    assert not turing_condition(derive_indices(Parameters(p=3, q=2, r=1, s=2)))
    assert turing_condition(derive_indices(Parameters(p=1, q=1, r=1, s=0)))


@pytest.mark.parametrize("p,q,r,s", [(3, 2, 1, 2), (4, 4, 2, 1), (1, 2, 3, 2), (2, 1, 4, 1)])
def test_turing_is_exactly_omega_below_one(p, q, r, s):
    idx = derive_indices(Parameters(p=p, q=q, r=r, s=s))
    assert turing_condition(idx) == (idx.omega < 1.0)


def test_global_existence_condition():
    # exp2a parameters satisfy it, exp1 parameters do not
    ok = Parameters(p=1, q=2, r=3, s=2)
    assert global_existence_condition(derive_indices(ok), ok, 2)
    bad = Parameters(p=3, q=2, r=1, s=2)
    assert not global_existence_condition(derive_indices(bad), bad, 2)
    # pi=0.25 < min{1, 2/3, 0.375} and gamma=0.5
    p3 = Parameters(p=2, q=1, r=4, s=1)
    idx3 = derive_indices(p3)
    assert idx3.pi == 0.25 and idx3.gamma == 0.5
    assert global_existence_condition(idx3, p3, 3)


def test_diffusion_blowup_condition():
    p = Parameters(p=4, q=4, r=2, s=1)
    idx = derive_indices(p)
    assert diffusion_blowup_condition(idx, p, 3)
    # dimension gate: N < 3 is always false, including the N=2 pole of N/(N-2)
    assert not diffusion_blowup_condition(idx, p, 2)
    t1 = Parameters(p=3, q=2, r=1, s=2)
    assert not diffusion_blowup_condition(derive_indices(t1), t1, 2)
