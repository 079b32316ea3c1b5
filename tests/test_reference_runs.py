"""Runs measured against exact references.

Constant data on a 3x3 grid keeps u constant (the Neumann Laplacian of a
constant is exactly zero), so both non-local families integrate the
Bernoulli ODE F' = -Phi F + Psi F^omega exactly: the closed-form
bernoulli_bound(...).sigma_upper is the exact blow-up sigma, and the
closed-form mean threshold is exactly where the verdict switches.  The
inhibitor families reduce to the non-local one as D2 -> inf and tau -> 0.
"""

import math

import pytest

from gmshadow import (
    EvolutionLaw,
    InitKind,
    InitSpec,
    Parameters,
    RectGrid,
    RunConfig,
    SystemKind,
    Verdict,
    advance,
    bernoulli_bound,
    derive_indices,
    sigma_horizon,
)

EXP1 = Parameters(p=3, q=2, r=1, s=2)  # gamma = 2/3, omega = 7/3
C = 2.0
T_FAMILIES = ((SystemKind.NONLOCAL_SIGMA, math.inf), (SystemKind.NONLOCAL_T, 10.0))


def constant_run(system, law, **kw):
    return RunConfig(system=system, params=EXP1, law=law, grid=RectGrid(3, 3),
                     init=InitSpec(InitKind.CONSTANT, c=C), **kw)


def orders(errors, ratio):
    """Observed orders between successive errors, refined by `ratio`."""
    return [math.log(a / b) / math.log(ratio) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("law", [
    EvolutionLaw.static(2), EvolutionLaw.exp_growth(7.0), EvolutionLaw.exp_decay(0.1),
], ids=lambda law: law.kind.value)
@pytest.mark.parametrize("system", [SystemKind.NONLOCAL_SIGMA, SystemKind.NONLOCAL_T],
                         ids=lambda s: s.value)
def test_event_time_converges_at_order_one_to_the_exact_bernoulli_event(system, law):
    # measured: static 4.319e-3, 2.171e-3, 1.088e-3 (orders 0.992, 0.996);
    # exp_growth sigma-clock orders 0.944, 0.976, t-clock 0.969, 0.984
    exact = bernoulli_bound(law, derive_indices(EXP1), C).sigma_upper
    errors = []
    for dt_safety in (1.0, 0.5, 0.25):
        cfg = constant_run(system, law, dt=1e-3, end_time=10.0, blowup_threshold=1e8,
                           dt_safety=dt_safety)
        _, report, _ = advance(cfg)
        assert report.verdict is Verdict.BLOW_UP
        errors.append(report.event_time_sigma - exact)
    # forward Euler under-shoots a convex blow-up, so every run blows up late
    assert all(e > 0.0 for e in errors), errors
    assert all(0.9 <= k <= 1.1 for k in orders(errors, 2.0)), errors


@pytest.mark.parametrize("system, end_time", T_FAMILIES, ids=lambda x: getattr(x, "value", x))
def test_verdict_switches_at_the_critical_growth_rate(system, end_time):
    # the mean threshold (1 + 2 beta)^(1/4) reaches c = 2 at beta* = 7.5
    idx = derive_indices(EXP1)
    for beta in (7.425, 7.49, 7.51, 7.575):
        law = EvolutionLaw.exp_growth(beta)
        bound = bernoulli_bound(law, idx, C)
        _, report, _ = advance(constant_run(system, law, dt=1e-4, end_time=end_time))
        horizon = sigma_horizon(law)
        assert bound.applicable is (beta < 7.5)
        if beta < 7.5:
            # at 7.49: 0.066584 (sigma clock), 0.066479 (t clock), exact 0.066475
            assert report.verdict is Verdict.BLOW_UP, beta
            assert 0.0 < report.event_time_sigma - bound.sigma_upper < 5e-4, beta
        else:
            # the mean decays to the quench floor just short of the sigma horizon
            assert report.verdict is Verdict.QUENCH, beta
            assert 0.0 < horizon - report.event_time_sigma < 1e-4 * horizon, beta


def _event_t(system, **kw):
    params = dict(p=3, q=2, r=1, s=2, D1=0.01, **kw.pop("params", {}))
    cfg = RunConfig(system=system, params=Parameters(**params), law=EvolutionLaw.static(2),
                    grid=RectGrid(65, 65), init=InitSpec(InitKind.COSINE_PLUS, c=C),
                    dt=1e-4, end_time=2.0, **kw)
    _, report, _ = advance(cfg)
    assert report.verdict is Verdict.BLOW_UP, system
    return report.event_time_t


def test_shadow_reduction_chain_converges_at_measured_orders():
    # with one starting inhibitor, 2.0, for full_rd's v and shadow_tau's eta
    shadow = {tau: _event_t(SystemKind.SHADOW_TAU, params=dict(tau=tau), eta0=2.0)
              for tau in (0.1, 0.01, 0.001)}
    # full_rd -> shadow_tau as D2 -> inf: 1.644e-3, 1.682e-4, 1.690e-5
    gaps = [_event_t(SystemKind.FULL_RD, params=dict(tau=0.01, D2=d2), v0=2.0) - shadow[0.01]
            for d2 in (10.0, 100.0, 1000.0)]
    assert all(0.9 <= k <= 1.1 for k in orders(gaps, 10.0)), gaps
    # shadow_tau -> nonlocal_sigma as tau -> 0: 2.810e-2, 1.890e-3, 1.013e-4
    nonlocal_sigma = _event_t(SystemKind.NONLOCAL_SIGMA)
    gaps = [shadow[tau] - nonlocal_sigma for tau in (0.1, 0.01, 0.001)]
    assert all(k > 0.9 for k in orders(gaps, 10.0)), gaps
