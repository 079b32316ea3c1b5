import collections
import copy
import dataclasses
import functools
import inspect
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmshadow
from gmshadow import (
    BlowUpReport,
    EvolutionLaw,
    Field,
    InitKind,
    InitSpec,
    Parameters,
    RadialGrid,
    RectGrid,
    RunConfig,
    SystemKind,
    TimeSeries,
    Verdict,
    advance,
    derive_indices,
    detect_blowup,
    dilution_coefficient,
    dissipation_coeff,
    phi_squared,
    reaction_coeff,
    rhs,
    scale_factor,
    sigma_of_t,
    step,
)
from gmshadow import cli, mesh, solver
from gmshadow.evolution import clock_coefficients, clock_end
from gmshadow.initdata import build_initial
from gmshadow.solver import RunState, fast_pow

TABLE1 = Parameters(p=3, q=2, r=1, s=2, D1=1.0)
STATIC = EvolutionLaw.static(2)
DECAY = EvolutionLaw.exp_decay(0.1, 2)
GROWTH = EvolutionLaw.exp_growth(0.1, 2)

RHS_CONST2 = -2.0 + 2.0 ** (7.0 / 3.0)  # -c + c^omega at c=2


def small_cfg(**kw):
    base = dict(
        system=SystemKind.NONLOCAL_SIGMA,
        params=TABLE1,
        law=STATIC,
        grid=RectGrid(9, 9),
        init=InitSpec(InitKind.CONSTANT, c=2.0),
        dt=1e-3,
        end_time=1.0,
        blowup_threshold=1e6,
        quench_threshold=1e-4,
    )
    base.update(kw)
    return RunConfig(**base)


def const_field(grid, c):
    return Field(grid, np.full(grid.shape, float(c)))


# ----------------------------------------------------------------- rhs

def test_rhs_homogeneous_fixed_point():
    cfg = small_cfg()
    du, daux = rhs(cfg, const_field(cfg.grid, 1.0), None, 0.0)
    assert np.max(np.abs(du.values)) < 1e-12
    assert daux is None


def test_rhs_homogeneous_value():
    cfg = small_cfg()
    du, _ = rhs(cfg, const_field(cfg.grid, 2.0), None, 0.0)
    assert du.values == pytest.approx(np.full(cfg.grid.shape, RHS_CONST2), rel=1e-12)


def test_rhs_shadow_equilibrium():
    cfg = small_cfg(system=SystemKind.SHADOW_TAU,
                    params=Parameters(p=3, q=2, r=1, s=2, tau=0.1))
    du, deta = rhs(cfg, const_field(cfg.grid, 1.0), 1.0, 0.0)
    assert np.max(np.abs(du.values)) < 1e-12
    assert abs(deta) < 1e-12


def test_rhs_full_rd_equilibrium():
    cfg = small_cfg(system=SystemKind.FULL_RD,
                    params=Parameters(p=3, q=2, r=1, s=2, tau=0.01))
    v = np.ones(cfg.grid.shape)
    du, dv = rhs(cfg, const_field(cfg.grid, 1.0), v, 0.0)
    assert np.max(np.abs(du.values)) < 1e-12
    assert np.max(np.abs(dv)) < 1e-10


def test_rhs_rejects_nonpositive_eta():
    from gmshadow import NonPositiveStateError
    cfg = small_cfg(system=SystemKind.SHADOW_TAU,
                    params=Parameters(p=3, q=2, r=1, s=2, tau=0.1))
    with pytest.raises(NonPositiveStateError):
        rhs(cfg, const_field(cfg.grid, 1.0), 0.0, 0.0)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -1.0])
def test_rhs_rejects_a_nonpositive_or_nan_activator(bad):
    from gmshadow import NonPositiveStateError
    cfg = small_cfg()
    u = const_field(cfg.grid, 2.0)
    u.values[4, 4] = bad
    with pytest.raises(NonPositiveStateError, match=r"not positive \(or is NaN\)"):
        rhs(cfg, u, None, 0.0)


def test_rhs_rejects_a_nonlocal_mean_that_underflows_and_step_ends_it_non_finite():
    # u^2 of 1e-200 underflows to 0, so the mean is 0 though u is positive
    from gmshadow import NonPositiveStateError
    cfg = small_cfg(params=Parameters(p=3, q=2, r=2, s=2), quench_threshold=0.0)
    u = const_field(cfg.grid, 1e-200)
    with pytest.raises(NonPositiveStateError, match=re.escape("nonlocal mean of u^2 is 0.0")):
        rhs(cfg, u, None, 0.0)
    state = step(cfg, RunState(u=u.values, aux=None, clock=0.0))
    assert (state.verdict, state.steps, state.clock) == (Verdict.NON_FINITE, 0, 0.0)


def test_rhs_t_form_uses_dilution_coefficients():
    cfg = small_cfg(system=SystemKind.NONLOCAL_T, law=DECAY)
    t = 0.7
    du, _ = rhs(cfg, const_field(cfg.grid, 2.0), None, t)
    L = dilution_coefficient(DECAY, t)
    gamma = 2.0 / 3.0
    expect = -L * 2.0 + L**gamma * 8.0 / 2.0**gamma
    assert du.values == pytest.approx(np.full(cfg.grid.shape, expect), rel=1e-12)


def _per_family_rates(cfg, u, aux, clock):
    """Each family's rates written out on their own, as they stood before
    _rhs_arrays chose coefficients for one shared activator expression."""
    p, law, gamma = cfg.params, cfg.law, derive_indices(cfg.params).gamma
    lap = cfg.grid.laplacian_operator()(u)
    up = fast_pow(u, p.p)
    w = cfg.grid.quad_weights().ravel()
    mean_r = float(np.dot(w, fast_pow(u, p.r).ravel()))
    denom = mean_r**gamma if gamma != 0.0 else 1.0
    kind = cfg.system
    if kind is SystemKind.NONLOCAL_SIGMA:
        phi = dissipation_coeff(law, clock)
        psi = reaction_coeff(law, clock, gamma)
        return p.D1 * lap - phi * u + psi * up / denom, None
    if kind is SystemKind.SHADOW_TAU:
        phi = dissipation_coeff(law, clock)
        ph2 = phi_squared(law, clock)
        du = p.D1 * lap - phi * u + ph2 * up / aux**p.q
        return du, (-phi * aux + ph2 * mean_r / aux**p.s) / p.tau
    rho2 = scale_factor(law, clock) ** 2
    L = dilution_coefficient(law, clock)
    if kind is SystemKind.NONLOCAL_T:
        return (p.D1 / rho2) * lap - L * u + L**gamma * up / denom, None
    du = (p.D1 / rho2) * lap - L * u + up / fast_pow(aux, p.q)
    return du, (-L * aux + fast_pow(u, p.r) / fast_pow(aux, p.s)) / p.tau


LOGISTIC = EvolutionLaw.logistic(0.1, 1.5, 2)
KINETICS = Parameters(p=3, q=2, r=1, s=2, D1=0.37, D2=1.3, tau=0.05)
UNINHIBITED = Parameters(p=2.5, q=0, r=1.5, s=1, D1=0.37)  # gamma = 0
# p = 1: fast_pow(u, 1.0) is u itself, which the rate must never scale in place
LINEAR = Parameters(p=1, q=3, r=1.5, s=1, D1=0.37, D2=1.3, tau=0.05)  # gamma = 1.5
UNIT = Parameters(p=1, q=0, r=1.5, s=1)  # D1 = 1, gamma = 0: d = b = denom = 1


RECT_GRID = RectGrid(14, 11)
BALL_GRID = RadialGrid(3, 33)
# p = 4, r = 2: a step forms u^4 as the square of the mean's u^2
SHARED_POWER = Parameters(p=4, q=4, r=2, s=1, D1=0.37)
ZERO_GAMMA = Parameters(p=4, q=0, r=2, s=1, D1=0.37)  # gamma = 0: u^4 still squares the mean's u^2
RHS_CASES = [
    (SystemKind.NONLOCAL_SIGMA, STATIC, KINETICS, RECT_GRID),
    (SystemKind.NONLOCAL_SIGMA, GROWTH, KINETICS, RECT_GRID),
    (SystemKind.NONLOCAL_SIGMA, DECAY, UNINHIBITED, RECT_GRID),
    (SystemKind.SHADOW_TAU, GROWTH, KINETICS, RECT_GRID),
    (SystemKind.SHADOW_TAU, DECAY, KINETICS, RECT_GRID),
    (SystemKind.NONLOCAL_T, DECAY, KINETICS, RECT_GRID),
    (SystemKind.NONLOCAL_T, LOGISTIC, UNINHIBITED, RECT_GRID),
    (SystemKind.FULL_RD, GROWTH, KINETICS, RECT_GRID),
    (SystemKind.FULL_RD, LOGISTIC, KINETICS, RECT_GRID),
    (SystemKind.NONLOCAL_SIGMA, GROWTH, LINEAR, RECT_GRID),
    (SystemKind.SHADOW_TAU, DECAY, LINEAR, RECT_GRID),
    (SystemKind.NONLOCAL_T, STATIC, UNIT, RECT_GRID),
    (SystemKind.FULL_RD, GROWTH, LINEAR, RECT_GRID),
    (SystemKind.NONLOCAL_T, EvolutionLaw.static(3), SHARED_POWER, BALL_GRID),
    (SystemKind.NONLOCAL_T, EvolutionLaw.exp_decay(0.1, 3), SHARED_POWER, BALL_GRID),
    (SystemKind.NONLOCAL_SIGMA, EvolutionLaw.exp_growth(0.1, 3), KINETICS, BALL_GRID),
    (SystemKind.SHADOW_TAU, EvolutionLaw.exp_decay(0.1, 3), KINETICS, BALL_GRID),
    (SystemKind.NONLOCAL_SIGMA, EvolutionLaw.static(3), ZERO_GAMMA, BALL_GRID),
]


def _case_id(grid, *parts):
    """The parts joined by "-", with "ball" last on a RadialGrid."""
    return "-".join([*parts, *(["ball"] if isinstance(grid, RadialGrid) else [])])


@pytest.mark.parametrize("system, law, params, grid", RHS_CASES, ids=[
    _case_id(grid, system.value, law.kind.value, f"gamma{derive_indices(params).gamma:.3g}")
    for system, law, params, grid in RHS_CASES])
def test_rhs_matches_per_family_formula_bit_for_bit(system, law, params, grid):
    cfg = small_cfg(system=system, law=law, params=params, grid=grid)
    rng = np.random.default_rng(8)
    u = rng.uniform(0.5, 3.0, cfg.grid.shape)
    aux = {SystemKind.SHADOW_TAU: 1.7,
           SystemKind.FULL_RD: rng.uniform(0.5, 3.0, cfg.grid.shape)}.get(system)
    clock = 0.37
    du, daux = rhs(cfg, Field(cfg.grid, u), aux, clock)
    ref_du, ref_daux = _per_family_rates(cfg, u, aux, clock)
    assert np.array_equal(du.values, ref_du)
    if ref_daux is None:
        assert daux is None
    else:
        assert np.array_equal(daux, ref_daux)


def test_t_and_sigma_forms_agree_pointwise():
    # Psi/rho^2 = L^gamma: the two formulations are the same dynamics
    cfg_s = small_cfg(law=DECAY)
    cfg_t = small_cfg(system=SystemKind.NONLOCAL_T, law=DECAY)
    u = const_field(cfg_s.grid, 2.0)
    sigma = 0.31
    t = None
    from gmshadow import t_of_sigma
    t = t_of_sigma(DECAY, sigma)
    du_s, _ = rhs(cfg_s, u, None, sigma)
    du_t, _ = rhs(cfg_t, u, None, t)
    rho2 = scale_factor(DECAY, t) ** 2
    assert du_s.values == pytest.approx(rho2 * du_t.values, rel=1e-10)


# ---------------------------------------------------------------- step

def test_step_fixed_point_many_steps():
    cfg = small_cfg(init=InitSpec(InitKind.CONSTANT, c=1.0), quench_threshold=1e-6)
    state = RunState(u=np.ones(cfg.grid.shape), aux=None, clock=0.0)
    for _ in range(1000):
        state = step(cfg, state)
    assert state.verdict is None
    assert np.max(np.abs(state.u - 1.0)) < 1e-12


def test_step_euler_arithmetic():
    cfg = small_cfg()
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=None, clock=0.0)
    state = step(cfg, state)
    # dt is not capped on this coarse grid: h^2/4 = 3.9e-3 > 1e-3
    assert state.dt_last == pytest.approx(1e-3)
    assert state.u == pytest.approx(
        np.full(cfg.grid.shape, 2.0 + 1e-3 * RHS_CONST2), rel=1e-12
    )
    assert state.clock == pytest.approx(1e-3)


def test_step_stability_cap_engages():
    cfg = small_cfg(grid=RectGrid(65, 65), dt=5e-4)
    state = RunState(u=np.full((65, 65), 2.0), aux=None, clock=0.0)
    state = step(cfg, state)
    assert state.dt_last == pytest.approx((1 / 64) ** 2 / 4.0, rel=1e-12)


def test_step_refuses_to_cross_sigma_horizon():
    cfg = small_cfg(law=GROWTH, init=InitSpec(InitKind.CONSTANT, c=1.0),
                    end_time=10.0, quench_threshold=0.0)
    horizon = 5.0  # 1/(2 beta)
    state = RunState(u=np.ones(cfg.grid.shape), aux=None,
                     clock=horizon - 0.5 * cfg.dt)
    for _ in range(5000):
        state = step(cfg, state)
        assert state.clock < horizon
        if state.verdict is not None:
            break
    assert state.verdict is Verdict.HORIZON_REACHED
    assert state.clock >= horizon * (1.0 - 1e-8)


def test_step_flags_blowup_and_quench():
    cfg = small_cfg(blowup_threshold=10.0)
    state = RunState(u=np.full(cfg.grid.shape, 11.0), aux=None, clock=0.0)
    assert step(cfg, state).verdict is Verdict.BLOW_UP
    cfg2 = small_cfg(quench_threshold=1e-3)
    state2 = RunState(u=np.full(cfg2.grid.shape, 1e-4), aux=None, clock=0.0)
    assert step(cfg2, state2).verdict is Verdict.QUENCH


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_run_overflow_is_nonfinite_not_hang():
    cfg = small_cfg(blowup_threshold=math.inf, end_time=1e9)
    series, report, _ = advance(cfg)
    assert report.verdict is Verdict.NON_FINITE


# ------------------------------------------------------------- advance

def test_advance_validates_thresholds():
    with pytest.raises(ValueError):
        advance(small_cfg(blowup_threshold=1.0))  # below initial sup
    with pytest.raises(ValueError):
        advance(small_cfg(quench_threshold=3.0))  # above initial min


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg(law=EvolutionLaw.logistic(0.1, 1.5, 2))  # sigma-form + logistic
    with pytest.raises(ValueError):
        small_cfg(system=SystemKind.FULL_RD, grid=RadialGrid(2, 9),
                  params=Parameters(p=3, q=2, r=1, s=2, tau=0.01))
    with pytest.raises(ValueError):
        small_cfg(law=EvolutionLaw.static(3))  # dimension mismatch with RectGrid
    with pytest.raises(ValueError):
        small_cfg(dt=-1.0)


def test_homogeneous_matches_scalar_ode_sigma_form():
    cfg = small_cfg(law=DECAY, end_time=0.2)
    _, _, snaps = advance(cfg)
    final = snaps["final"].values
    idx = derive_indices(cfg.params)
    u, clock = 2.0, 0.0
    h2 = cfg.grid.h_min**2
    while clock < 0.2:
        phi = dissipation_coeff(DECAY, clock)
        psi = reaction_coeff(DECAY, clock, idx.gamma)
        du = -phi * u + psi * u ** idx.omega
        dt = min(cfg.dt, h2 / 4.0, 0.1 * (1 + u) / (1 + abs(du)),
                 0.45 * u / abs(du), 0.2 - clock)
        u += dt * du
        clock += dt
    assert np.max(np.abs(final - u)) < 1e-10


def test_homogeneous_matches_scalar_ode_logistic_t_form():
    law = EvolutionLaw.logistic(0.1, 1.5, 2)
    cfg = small_cfg(system=SystemKind.NONLOCAL_T, law=law, end_time=0.2)
    _, _, snaps = advance(cfg)
    final = snaps["final"].values
    idx = derive_indices(cfg.params)
    u, clock = 2.0, 0.0
    h2 = cfg.grid.h_min**2
    while clock < 0.2:
        L = dilution_coefficient(law, clock)
        rho2 = scale_factor(law, clock) ** 2
        du = -L * u + L**idx.gamma * u ** idx.omega
        dt = min(cfg.dt, h2 * rho2 / 4.0, 0.1 * (1 + u) / (1 + abs(du)),
                 0.45 * u / abs(du), 0.2 - clock)
        u += dt * du
        clock += dt
    assert np.max(np.abs(final - u)) < 1e-10


def test_positivity_lower_bound():
    # discrete analogue of the exponential lower bound, on a blow-up run:
    # min u >= (min u0) e^(-M_Phi sigma) (1 - C dt) while the run lives
    cfg = RunConfig(
        system=SystemKind.NONLOCAL_SIGMA,
        params=TABLE1,
        law=DECAY,
        grid=RectGrid(33, 33),
        init=InitSpec(InitKind.COSINE_PLUS, c=2.0),
        dt=5e-4,
        end_time=2.0,
        blowup_threshold=1e3,
    )
    state = RunState(u=np.cos(np.pi * cfg.grid.y)[:, None] * np.ones((1, 33)) + 2.0,
                     aux=None, clock=0.0)
    m_phi_sup = 0.8  # M_Phi for this decay law on [0, inf)
    min0 = 1.0
    while state.verdict is None and state.steps < 20000:
        state = step(cfg, state)
        bound = min0 * math.exp(-m_phi_sup * state.clock) * (1.0 - 10.0 * cfg.dt)
        assert np.min(state.u) > 0.0
        assert np.min(state.u) >= bound * (1.0 - 1e-12)
    assert state.verdict is Verdict.BLOW_UP


def test_advance_samples_and_snapshots():
    cfg = small_cfg(end_time=0.05, sample_stride=5, snapshot_times=(0.02,))
    series, report, snaps = advance(cfg)
    assert report.verdict is Verdict.HORIZON_REACHED
    assert "final" in snaps and any(k.startswith("clock") for k in snaps)
    t = np.array(series.t)
    assert t[0] == 0.0 and t[-1] == pytest.approx(0.05)
    assert np.all(np.diff(t) > 0.0)
    sig = np.array(series.sigma)
    for ti, si in zip(t[::7], sig[::7]):
        assert si == pytest.approx(sigma_of_t(cfg.law, ti), rel=1e-10, abs=1e-14)


def test_quench_run():
    cfg = small_cfg(init=InitSpec(InitKind.CONSTANT, c=0.5), dt=5e-3,
                    end_time=30.0, quench_threshold=1e-3)
    series, report, _ = advance(cfg)
    assert report.verdict is Verdict.QUENCH
    sup = np.array(series.sup_norm)
    assert np.all(np.diff(sup) <= 1e-14)
    assert sup[-1] <= 1e-3 * (1 + 1e-9)


def test_blowup_run_detects_and_extrapolates():
    cfg = small_cfg(grid=RectGrid(17, 17), dt=1e-3,
                    init=InitSpec(InitKind.CONSTANT, c=2.0), blowup_threshold=1e4)
    series, report, _ = advance(cfg)
    assert report.verdict is Verdict.BLOW_UP
    # homogeneous run: the blow-up time approaches the closed-form sigma_1
    assert report.event_time_sigma == pytest.approx(0.37919234475132, rel=0.02)
    assert report.extrapolated_sigma == pytest.approx(0.37919234475132, rel=0.02)
    assert report.event_time_sigma <= 0.37919234475132 + 0.02


def test_clock_consistency_t_vs_sigma():
    # same ExpDecay problem integrated in both clocks: blow-up times agree
    # within 3% after conversion
    common = dict(
        params=TABLE1,
        law=DECAY,
        grid=RectGrid(49, 49),
        init=InitSpec(InitKind.COSINE_PLUS, c=2.0),
        dt=5e-4,
        end_time=3.0,
        blowup_threshold=1e3,
    )
    _, rep_s, _ = advance(RunConfig(system=SystemKind.NONLOCAL_SIGMA, **common))
    _, rep_t, _ = advance(RunConfig(system=SystemKind.NONLOCAL_T, **common))
    assert rep_s.verdict is Verdict.BLOW_UP and rep_t.verdict is Verdict.BLOW_UP
    assert rep_t.event_time_sigma == pytest.approx(rep_s.event_time_sigma, rel=0.03)
    assert rep_s.event_time_t == pytest.approx(rep_t.event_time_t, rel=0.03)


def test_dt_halving_stability():
    common = dict(
        system=SystemKind.NONLOCAL_SIGMA,
        params=TABLE1,
        law=STATIC,
        grid=RectGrid(49, 49),
        init=InitSpec(InitKind.COSINE_PLUS, c=2.0),
        dt=5e-4,
        end_time=2.0,
        blowup_threshold=1e3,
    )
    _, rep1, _ = advance(RunConfig(**common))
    _, rep2, _ = advance(RunConfig(**common, dt_safety=0.5))
    assert rep1.verdict is Verdict.BLOW_UP and rep2.verdict is Verdict.BLOW_UP
    assert rep2.event_time_sigma == pytest.approx(rep1.event_time_sigma, rel=0.05)


def test_shadow_limit_small_tau():
    # tau -> 0 shadow runs match the non-local equation within 5% up to 90%
    # of the blow-up time
    common = dict(
        params=Parameters(p=3, q=2, r=1, s=2, D1=1.0, tau=1e-3),
        law=STATIC,
        grid=RectGrid(49, 49),
        init=InitSpec(InitKind.COSINE_PLUS, c=2.0),
        dt=5e-4,
        end_time=2.0,
        blowup_threshold=1e3,
    )
    ser_n, rep_n, _ = advance(RunConfig(system=SystemKind.NONLOCAL_SIGMA, **common))
    ser_s, rep_s, _ = advance(RunConfig(system=SystemKind.SHADOW_TAU, **common))
    assert rep_n.verdict is Verdict.BLOW_UP and rep_s.verdict is Verdict.BLOW_UP
    cut = 0.9 * min(rep_n.event_time_sigma, rep_s.event_time_sigma)
    grid_sigma = np.linspace(0.0, cut, 60)
    f_n = np.interp(grid_sigma, ser_n.sigma, ser_n.sup_norm)
    f_s = np.interp(grid_sigma, ser_s.sigma, ser_s.sup_norm)
    assert np.max(np.abs(f_s - f_n) / f_n) < 0.05


def test_comparison_with_bernoulli_mean():
    # sampled mean dominates the Bernoulli solution (Jensen), static law
    from gmshadow import bernoulli_profile_static
    cfg = RunConfig(
        system=SystemKind.NONLOCAL_SIGMA,
        params=TABLE1,
        law=STATIC,
        grid=RectGrid(49, 49),
        init=InitSpec(InitKind.COSINE_PLUS, c=2.0),
        dt=5e-4,
        end_time=2.0,
        blowup_threshold=1e3,
    )
    series, report, _ = advance(cfg)
    sig = np.array(series.sigma)
    mu = np.array(series.mean_u)
    keep = sig < 0.999 * report.event_time_sigma
    F = bernoulli_profile_static(sig[keep], 2.0, 7.0 / 3.0)
    assert np.all(mu[keep] >= F * 0.98)


def test_fast_pow_matches_power():
    rng = np.random.default_rng(0)
    u = rng.uniform(0.1, 3.0, 64)
    for e in (0.0, 1.0, 2.0, 3.0, 4.0, 1.4, -1.0, 2.5):
        assert fast_pow(u, e) == pytest.approx(np.power(u, e), rel=1e-14)


def test_radial_dirichlet_toggle_pins_boundary():
    grid = RadialGrid(3, 65, outer_bc="dirichlet")
    cfg = RunConfig(
        system=SystemKind.NONLOCAL_T,
        params=Parameters(p=4, q=4, r=2, s=1, D1=1.0),
        law=EvolutionLaw.static(3),
        grid=grid,
        init=InitSpec(InitKind.SPIKY, delta=0.8, lam=0.1),
        dt=5e-4,
        end_time=0.01,
        quench_threshold=1e-6,
    )
    _, _, snaps = advance(cfg)
    assert snaps["final"].values[-1] == pytest.approx(0.1, rel=1e-12)


def test_internal_stencil_matches_mesh_laplacians():
    # the solver's array-level hot path must agree with the mesh operators
    from gmshadow.solver import _Ctx
    from gmshadow import laplacian_rect, laplacian_radial
    rng = np.random.default_rng(9)
    cfg = small_cfg(grid=RectGrid(14, 11))
    u = rng.uniform(0.5, 2.0, cfg.grid.shape)
    lap = _Ctx(cfg).layout(u.shape).laplacian
    assert np.array_equal(lap(u), laplacian_rect(Field(cfg.grid, u)).values)
    gr = RadialGrid(3, 41)
    cfgr = small_cfg(system=SystemKind.NONLOCAL_T, law=EvolutionLaw.static(3), grid=gr,
                     init=InitSpec(InitKind.SPIKY, delta=0.5, lam=1.0),
                     params=Parameters(p=4, q=4, r=2, s=1))
    ur = rng.uniform(0.5, 2.0, gr.shape)
    lap = _Ctx(cfgr).layout(ur.shape).laplacian
    assert np.array_equal(lap(ur), laplacian_radial(Field(gr, ur)).values)
    grd = RadialGrid(3, 41, outer_bc="dirichlet")
    cfgd = small_cfg(system=SystemKind.NONLOCAL_T, law=EvolutionLaw.static(3), grid=grd,
                     init=InitSpec(InitKind.SPIKY, delta=0.5, lam=1.0),
                     params=Parameters(p=4, q=4, r=2, s=1))
    lap = _Ctx(cfgd).layout(ur.shape).laplacian
    assert np.array_equal(lap(ur), laplacian_radial(Field(grd, ur)).values)


def test_config_rejects_nan():
    for name in ("dt", "end_time", "blowup_threshold", "quench_threshold"):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            small_cfg(**{name: math.nan})
    small_cfg(blowup_threshold=math.inf)  # a run may be left to overflow


@pytest.mark.parametrize("system", [SystemKind.SHADOW_TAU, SystemKind.FULL_RD],
                         ids=lambda k: k.value)
def test_inhibitor_families_need_positive_tau_at_construction(system):
    # tau = 0 used to reach step() as a ZeroDivisionError (shadow_tau) or a
    # NON_FINITE run after 0 steps (full_rd); advance() alone checked it
    with pytest.raises(ValueError, match=f"{system.value} needs tau > 0, got 0.0"):
        small_cfg(system=system, params=TABLE1)
    small_cfg(system=system, params=TAU)
    small_cfg(system=SystemKind.NONLOCAL_T, params=TABLE1)  # no inhibitor, no tau


@pytest.mark.parametrize("name", ["eta0", "v0"])
@pytest.mark.parametrize("value", [math.nan, -1.0, 0.0, math.inf],
                         ids=["nan", "negative", "zero", "inf"])
def test_config_rejects_a_bad_initial_inhibitor(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite positive number"):
        small_cfg(system=SystemKind.SHADOW_TAU, params=TAU, **{name: value})
    with pytest.raises(ValueError, match=name):
        small_cfg(**{name: value})  # checked also where the family ignores it


def test_config_keeps_unused_initial_inhibitor_keys():
    # None picks the default; a family that has no use for a key accepts it
    small_cfg(system=SystemKind.SHADOW_TAU, params=TAU, eta0=None, v0=None)
    small_cfg(system=SystemKind.SHADOW_TAU, params=TAU, eta0=0.7, v0=1.5)


def test_time_series_columns_drive_append_and_csv(tmp_path):
    series = TimeSeries()
    series.append(0.0, 0.0, 3.0, 2.0, 2.5, 1.0 / 3.0, math.nan)
    series.append(0.1, 0.09, 3.5, 2.1, 2.6, 0.3, 1e-300)
    assert len(series) == 2
    assert series.w_moment == [1.0 / 3.0, 0.3]
    assert series.eta_or_supv[1] == 1e-300
    with pytest.raises(ValueError):
        series.append(0.2, 0.18, 4.0)  # one value per column
    assert all(len(getattr(series, name)) == 2 for name in series.columns)
    path = tmp_path / "series.csv"
    series.to_csv(str(path))
    assert path.read_text() == (
        "t,sigma,sup_norm,mean_u,zeta,w_moment,eta_or_supv\n"
        "0.0,0.0,3.0,2.0,2.5,0.3333333333333333,nan\n"
        "0.1,0.09,3.5,2.1,2.6,0.3,1e-300\n"
    )


@pytest.mark.parametrize("system, law", [
    *[(system, law) for system in (SystemKind.NONLOCAL_T, SystemKind.FULL_RD)
      for law in (STATIC, GROWTH, DECAY, LOGISTIC)],
    *[(system, law) for system in (SystemKind.NONLOCAL_SIGMA, SystemKind.SHADOW_TAU)
      for law in (STATIC, DECAY)],
], ids=lambda x: x.value if isinstance(x, SystemKind) else x.kind.value)
def test_config_rejects_an_end_time_that_never_ends(system, law):
    # a bounded run to end_time = inf used to step forever without a verdict
    with pytest.raises(ValueError, match="end_time=inf never ends"):
        small_cfg(system=system, params=TAU, law=law, end_time=math.inf)
    # a finite end_time is accepted; in t, an evolving law keeps rho^2 and
    # sigma in float range only up to a finite end_time
    in_range = law is STATIC or not system.t_native
    small_cfg(system=system, params=TAU, law=law, end_time=1e9 if in_range else 1e3)


@pytest.mark.parametrize("system, law, end_time", [
    # rho^2 = e^(2 beta t) overflows at t = 47.3, with the mean held at 2
    (SystemKind.NONLOCAL_T, EvolutionLaw.exp_growth(7.5), 50.0),
    # sigma = expm1(2 beta t)/(2 beta) overflows
    (SystemKind.FULL_RD, EvolutionLaw.exp_decay(0.1), 4000.0),
], ids=["exp_growth", "exp_decay"])
def test_config_rejects_an_end_time_beyond_the_float_range_of_its_clock(system, law, end_time):
    kw = dict(system=system, params=TAU, law=law, grid=RectGrid(3, 3))
    with pytest.raises(ValueError, match=re.escape(
            f"end_time={end_time} takes rho^2 or sigma out of float range "
            f"under {law.kind.value} with beta={law.beta}")):
        small_cfg(**kw, end_time=end_time)
    # the closed forms are monotone in t, so end_time bounds every step's clock
    small_cfg(**kw, end_time=0.85 * end_time)


LATE_LOGISTIC = EvolutionLaw.logistic(0.5, 2.0)


def test_config_accepts_a_logistic_end_time_past_the_growth_factor_overflow():
    # e^(beta t) overflows at beta t = 709.78, where rho^2 = m^2 = 4 and
    # sigma = 376.25 are in range; rho^2 or sigma out of range still rejects
    for system in (SystemKind.NONLOCAL_T, SystemKind.FULL_RD):
        small_cfg(system=system, params=TAU, law=LATE_LOGISTIC, grid=RectGrid(3, 3),
                  end_time=1500.0)
    with pytest.raises(ValueError, match=re.escape("takes rho^2 or sigma out of float range")):
        small_cfg(system=SystemKind.NONLOCAL_T, law=EvolutionLaw.logistic(0.5, 0.5),
                  end_time=1e308)


@pytest.mark.parametrize("system", [SystemKind.NONLOCAL_T, SystemKind.FULL_RD],
                         ids=lambda s: s.value)
def test_step_runs_a_logistic_law_past_the_growth_factor_overflow_to_a_verdict(system):
    # u = 1 is stationary once L = 1, as under the static law
    cfg = small_cfg(system=system, params=TAU, law=LATE_LOGISTIC, dt=0.01, end_time=1500.0,
                    init=InitSpec(InitKind.CONSTANT, c=1.0))
    state = RunState.initial(cfg)
    state.clock = 1499.0
    while state.verdict is None:
        state = step(cfg, state)
    assert state.verdict is Verdict.HORIZON_REACHED
    assert state.clock == pytest.approx(1500.0, abs=1e-9)
    assert np.all(np.isfinite(state.u))


BALL = dict(law=EvolutionLaw.static(3), grid=RadialGrid(3, 17))


@pytest.mark.parametrize("kw, message", [
    (dict(BALL, init=InitSpec(InitKind.COSINE_PLUS, c=2.0)),
     "cosine profile is defined on the unit square"),
    (dict(init=InitSpec(InitKind.SPIKY)), "spiky profile is defined on the radial ball"),
    (dict(BALL, params=Parameters(p=1, q=2, r=3, s=2), init=InitSpec(InitKind.SPIKY)),
     "needs p > 1, got p=1"),
], ids=["cosine_on_radial", "spiky_on_rect", "spiky_with_p_1"])
def test_config_rejects_an_initial_profile_the_grid_cannot_hold(kw, message):
    # rejected at construction, not first inside advance()
    with pytest.raises(ValueError, match=message):
        small_cfg(**kw)


def test_sigma_clock_exp_growth_to_end_time_inf_stops_at_the_horizon():
    small_cfg(system=SystemKind.SHADOW_TAU, params=TAU, law=GROWTH, end_time=math.inf)
    cfg = small_cfg(law=GROWTH, end_time=math.inf, init=InitSpec(InitKind.CONSTANT, c=0.5),
                    dt=0.05, quench_threshold=1e-300)
    series, report, _ = advance(cfg)
    assert report.verdict is Verdict.HORIZON_REACHED
    assert series.sigma[-1] == clock_end(GROWTH, math.inf, False) < 1.0 / (2.0 * GROWTH.beta)


@pytest.mark.parametrize("times", [(-0.1,), (math.nan,), (0.1, -1e-9), (0.1, math.inf)],
                         ids=["negative", "nan", "one_negative", "inf"])
def test_config_rejects_bad_snapshot_times(times):
    # an infinite time is a snapshot that advance() would never write
    with pytest.raises(ValueError, match="snapshot_times"):
        small_cfg(snapshot_times=times)
    small_cfg(snapshot_times=(0.0, 0.5))


@pytest.mark.parametrize("stride", [math.nan, 2.5, 20.0, 0, -3, True],
                         ids=["nan", "fraction", "float", "zero", "negative", "bool"])
def test_config_rejects_a_sample_stride_that_is_not_a_positive_integer(stride):
    with pytest.raises(ValueError, match=re.escape(
            f"sample_stride must be an integer >= 1, got {stride!r}")):
        small_cfg(sample_stride=stride)
    small_cfg(sample_stride=1)
    small_cfg(sample_stride=np.int64(7))


@pytest.mark.parametrize("system, params", [
    (SystemKind.NONLOCAL_T, TABLE1),
    (SystemKind.FULL_RD, Parameters(p=3, q=2, r=1, s=2, D1=0.01, tau=0.01)),
    (SystemKind.NONLOCAL_SIGMA, TABLE1),
], ids=["nonlocal_t", "full_rd", "nonlocal_sigma"])
def test_step_evaluates_rho_once(system, params, monkeypatch):
    # rho(clock) feeds the diffusion coefficient, the diffusion cap and the
    # inhibitor solve; a t-clock step evaluates it once, a sigma-clock never
    calls = []

    def counted(law, t):
        calls.append(t)
        return scale_factor(law, t)

    cfg = small_cfg(system=system, params=params, law=DECAY, v0=2.0,
                    init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.02)
    monkeypatch.setattr(solver, "scale_factor", counted)
    state = _step_loop(cfg)
    assert state.steps > 10
    # plus one at end_time when step() builds its context, whose config
    # validation checks that rho^2 stays in float range
    assert len(calls) == (state.steps + 1 if system.t_native else 0)


def _step_loop(cfg):
    """Drive cfg to its verdict through the public step(), from
    RunState.initial."""
    state = RunState.initial(cfg)
    while state.verdict is None:
        step(cfg, state)
    return state


BALL_DECAY = EvolutionLaw.exp_decay(0.1, 3)
SPIKE = InitSpec(InitKind.SPIKY, delta=0.8, lam=0.1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("cfg, verdict", [
    (small_cfg(system=SystemKind.NONLOCAL_T, grid=RectGrid(14, 11), law=DECAY,
               init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.1),
     Verdict.HORIZON_REACHED),
    (small_cfg(system=SystemKind.SHADOW_TAU, params=Parameters(p=3, q=2, r=1, s=2, tau=0.1),
               law=DECAY, grid=RectGrid(11, 14), eta0=0.7,
               init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.2),
     Verdict.BLOW_UP),
    (small_cfg(system=SystemKind.FULL_RD,
               params=Parameters(p=3, q=2, r=1, s=2, D1=0.01, D2=1.0, tau=0.01),
               law=DECAY, grid=RectGrid(17, 13), v0=2.0,
               init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.05),
     Verdict.HORIZON_REACHED),
    (small_cfg(system=SystemKind.NONLOCAL_T, params=Parameters(p=4, q=4, r=2, s=1),
               law=EvolutionLaw.static(3), grid=RadialGrid(3, 65, outer_bc="dirichlet"),
               init=InitSpec(InitKind.SPIKY, delta=0.8, lam=0.1), dt=5e-4,
               end_time=0.01, quench_threshold=1e-6),
     Verdict.HORIZON_REACHED),
    (small_cfg(system=SystemKind.NONLOCAL_SIGMA, law=DECAY, grid=RectGrid(13, 16),
               init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.1),
     Verdict.HORIZON_REACHED),
    (small_cfg(law=BALL_DECAY, grid=RadialGrid(3, 33), init=SPIKE, end_time=0.01,
               quench_threshold=1e-6),
     Verdict.HORIZON_REACHED),
    (small_cfg(system=SystemKind.SHADOW_TAU, params=Parameters(p=3, q=2, r=1, s=2, tau=0.1),
               law=BALL_DECAY, grid=RadialGrid(3, 33), eta0=0.7, init=SPIKE,
               end_time=0.01, quench_threshold=1e-6),
     Verdict.HORIZON_REACHED),
    (small_cfg(law=EvolutionLaw.static(3), grid=RadialGrid(3, 9), init=SPIKE, dt=5e-3,
               end_time=30.0, quench_threshold=1e-3),
     Verdict.QUENCH),
    (small_cfg(init=InitSpec(InitKind.COSINE_PLUS, c=2.0), blowup_threshold=math.inf,
               end_time=1e9),
     Verdict.NON_FINITE),
    # the default inhibitors: eta0 at the ODE balance, v0 = 2.0
    (small_cfg(system=SystemKind.SHADOW_TAU, params=Parameters(p=3, q=2, r=1, s=2, tau=0.1),
               law=DECAY, grid=RectGrid(11, 14),
               init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.2),
     Verdict.HORIZON_REACHED),
    (small_cfg(system=SystemKind.FULL_RD,
               params=Parameters(p=3, q=2, r=1, s=2, D1=0.01, D2=1.0, tau=0.01),
               law=DECAY, grid=RectGrid(17, 13),
               init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.05),
     Verdict.HORIZON_REACHED),
], ids=["rect_nonlocal_t", "shadow_tau", "full_rd", "radial_dirichlet", "nonlocal_sigma",
        "ball_nonlocal_sigma", "ball_shadow_tau", "ball_quench", "overflow",
        "shadow_tau_balanced_eta0", "full_rd_default_v0"])
def test_advance_matches_step_loop(cfg, verdict, monkeypatch):
    # advance() carries each step's max and min into the next; step() takes
    # both from the state on every call
    states = []

    class Recorded(RunState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(solver, "RunState", Recorded)
    _, report, snaps = advance(cfg)
    monkeypatch.undo()
    (run,) = states
    ref = _step_loop(cfg)
    assert run.steps == ref.steps > 10
    assert run.clock == ref.clock
    assert run.verdict is ref.verdict is verdict
    assert report.verdict is ref.verdict
    event = (solver._clocks(cfg, ref.clock)
             if ref.verdict in (Verdict.BLOW_UP, Verdict.QUENCH) else (None, None))
    assert (report.event_time_t, report.event_time_sigma) == event
    assert run.u.tobytes() == ref.u.tobytes()
    assert np.array_equal(run.aux, ref.aux)
    assert snaps["final"].values.tobytes() == ref.u.tobytes()


@pytest.mark.parametrize("cfg", [
    small_cfg(grid=RectGrid(17, 17), blowup_threshold=1e4, snapshot_times=(0.02, 0.1)),
    small_cfg(system=SystemKind.FULL_RD,
              params=Parameters(p=3, q=2, r=1, s=2, D1=0.01, D2=1.0, tau=0.01),
              law=DECAY, grid=RectGrid(17, 13), v0=2.0, snapshot_times=(0.01, 0.03),
              init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.05),
    small_cfg(law=EvolutionLaw.static(3), grid=RadialGrid(3, 33, outer_bc="dirichlet"),
              init=SPIKE, end_time=0.01, quench_threshold=1e-6, snapshot_times=(0.002,)),
], ids=["rect_blowup", "full_rd", "ball_dirichlet"])
def test_advance_snapshots_match_the_step_loop_at_their_steps(cfg):
    # advance() keeps state.u itself as a snapshot, so a step that wrote into
    # an array it had handed out would change an earlier snapshot
    _, _, snaps = advance(cfg)
    state, kept = RunState.initial(cfg), {}
    pending = list(cfg.snapshot_times)
    while step(cfg, state).verdict is None:
        while pending and state.clock >= pending[0]:
            kept[f"clock{pending.pop(0)!r}"] = state.u.copy()
    assert len(kept) == len(cfg.snapshot_times) and kept.keys() < snaps.keys()
    for label, u in kept.items():
        assert snaps[label].values.tobytes() == u.tobytes(), label
    assert snaps["final"].values.tobytes() == state.u.tobytes()


@pytest.mark.parametrize("cfg", [
    small_cfg(system=SystemKind.NONLOCAL_T, grid=RectGrid(9, 7), law=DECAY,
              init=InitSpec(InitKind.COSINE_PLUS, c=2.0), end_time=0.01,
              snapshot_times=(0.0,)),
    small_cfg(law=EvolutionLaw.static(3), grid=RadialGrid(3, 33, outer_bc="dirichlet"),
              init=SPIKE, end_time=0.01, quench_threshold=1e-6, snapshot_times=(0.0,)),
], ids=["rect_column", "ball_dirichlet"])
def test_advance_snapshot_at_the_start_clock_is_u0(cfg):
    _, _, snaps = advance(cfg)
    assert snaps["clock0.0"].values.tobytes() == RunState.initial(cfg).u.tobytes()


def _one_tall_node(shape, low, high):
    u = np.full(shape, low)
    u[shape[0] // 2, shape[1] // 2] = high
    return u


DIRICHLET_BALL = small_cfg(law=EvolutionLaw.static(3),
                           grid=RadialGrid(3, 33, outer_bc="dirichlet"), blowup_threshold=1e3)


@pytest.mark.parametrize("cfg, u0", [
    # the positivity guard binds at the tall node's neighbours, which sit at
    # the minimum and take its largest inflow
    (small_cfg(), _one_tall_node((9, 9), 0.01, 3.0)),
    # the pinned outer node holds the minimum while every rate is positive
    (DIRICHLET_BALL, np.full(DIRICHLET_BALL.grid.shape, 2.0)),
], ids=["rect_tall_node", "ball_dirichlet_growth"])
def test_step_carries_the_max_and_a_positive_lower_bound_on_the_min(cfg, u0):
    # _step driven as advance() drives it, from u0: it returns the exact
    # extremes of the u it leaves, the next step's sup and low
    ctx = solver._Ctx(cfg)
    lay = ctx.layout(u0.shape)
    state = RunState(u=u0.copy(), aux=None, clock=0.0)
    sup, low = float(u0.max()), float(u0.min())
    while state.verdict is None:
        sup, low = solver._step(ctx, lay, state, sup, low)
        assert sup == state.u.max()
        assert low == state.u.min() > 0.0
    assert state.verdict is not Verdict.NON_FINITE


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("cfg, verdict", [
    (small_cfg(grid=RectGrid(17, 17), blowup_threshold=1e4), Verdict.BLOW_UP),
    (small_cfg(init=InitSpec(InitKind.CONSTANT, c=0.5), dt=5e-3, end_time=30.0,
               quench_threshold=1e-3), Verdict.QUENCH),
    (small_cfg(end_time=0.05), Verdict.HORIZON_REACHED),
    (small_cfg(blowup_threshold=math.inf, end_time=1e9), Verdict.NON_FINITE),
], ids=["blowup", "quench", "horizon", "overflow"])
def test_advance_report_is_the_steppers_verdict(cfg, verdict):
    # the verdict and event come from the stepper; analysis only refines a
    # BlowUp, so detect_blowup on the series agrees wherever it applies
    series, report, _ = advance(cfg)
    assert report.verdict is verdict
    if verdict in (Verdict.BLOW_UP, Verdict.QUENCH):
        expected = detect_blowup(series, cfg.params.p, cfg.blowup_threshold,
                                 cfg.quench_threshold)
        assert dataclasses.asdict(report) == dataclasses.asdict(expected)
        assert type(report.event_time_t) is type(report.event_time_sigma) is float
        assert (report.extrapolated_sigma is None) is (verdict is Verdict.QUENCH)
    else:
        assert dataclasses.asdict(report) == dataclasses.asdict(BlowUpReport(verdict))


COSINE = InitSpec(InitKind.COSINE_PLUS, c=2.0)
SNAPSHOTS = (0.02, 0.05)


def _count_stencils(monkeypatch):
    """Calls of the rectangle's 2-D and column stencils, by builder name."""
    calls = collections.Counter()
    for name in ("laplacian_operator", "column_laplacian_operator"):
        def build(self, original=getattr(RectGrid, name), name=name):
            lap = original(self)

            def counted(u):
                calls[name] += 1
                return lap(u)
            return counted
        monkeypatch.setattr(RectGrid, name, build)
    return calls


def _nudged(u):
    """A copy of u with one node of its last column one ulp higher."""
    u = u.copy()
    u[u.shape[0] // 2, -1] = np.nextafter(u[u.shape[0] // 2, -1], math.inf)
    return u


def _nudged_initial(spec, grid, *, p):
    """build_initial with one node of the last column one ulp higher."""
    return Field(grid, _nudged(build_initial(spec, grid, p=p).values))


def _artifacts(run):
    series, report, snaps = run
    return ([np.array(getattr(series, c)).tobytes() for c in series.columns],
            dataclasses.asdict(report), {k: f.values.tobytes() for k, f in snaps.items()})


FULL_RD_COLUMN = small_cfg(system=SystemKind.FULL_RD,
                           params=Parameters(p=3, q=2, r=1, s=2, D1=0.01, D2=1.0, tau=0.01),
                           law=DECAY, grid=RectGrid(17, 13), v0=2.0, init=COSINE,
                           end_time=0.05, snapshot_times=SNAPSHOTS)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("cfg, nudge, stencil", [
    (small_cfg(system=SystemKind.NONLOCAL_T, grid=RectGrid(14, 11), law=DECAY, init=COSINE,
               end_time=0.1, snapshot_times=SNAPSHOTS), False, "column_laplacian_operator"),
    (small_cfg(grid=RectGrid(13, 16), law=DECAY, init=COSINE, end_time=0.1,
               snapshot_times=SNAPSHOTS), False, "column_laplacian_operator"),
    (small_cfg(system=SystemKind.SHADOW_TAU, params=Parameters(p=3, q=2, r=1, s=2, tau=0.1),
               law=DECAY, grid=RectGrid(11, 14), eta0=0.7, init=COSINE, end_time=0.2,
               snapshot_times=SNAPSHOTS), False, "column_laplacian_operator"),
    # non-integer powers go through np.power, on the column as on the grid
    (small_cfg(system=SystemKind.NONLOCAL_T, params=Parameters(p=2.5, q=2, r=1.5, s=1.5),
               grid=RectGrid(12, 9), law=GROWTH, init=COSINE, end_time=0.1,
               snapshot_times=SNAPSHOTS), False, "column_laplacian_operator"),
    (small_cfg(init=COSINE, blowup_threshold=math.inf, end_time=1e9), False,
     "column_laplacian_operator"),
    (small_cfg(grid=RectGrid(13, 16), law=DECAY, init=COSINE, end_time=0.1,
               snapshot_times=SNAPSHOTS), True, "laplacian_operator"),
    (FULL_RD_COLUMN, False, "column_laplacian_operator"),
    (FULL_RD_COLUMN, True, "laplacian_operator"),
], ids=["nonlocal_t", "nonlocal_sigma", "shadow_tau", "nonlocal_t_fractional_powers",
        "overflow", "x_dependent_u0", "full_rd", "full_rd_x_dependent_u0"])
def test_advance_steps_only_x_invariant_nonlocal_rectangle_runs_on_one_column(
        cfg, nudge, stencil, monkeypatch):
    # an x-invariant rectangle run of any family steps its (ny, 1) column
    # (FULL_RD's v with it); a u0 one ulp off x-invariance steps the grid
    if nudge:
        monkeypatch.setattr(solver, "build_initial", _nudged_initial)
    calls = _count_stencils(monkeypatch)
    run = advance(cfg)
    taken = dict(calls)
    assert list(taken) == [stencil] and taken[stencil] > 10
    if not nudge:
        assert mesh._x_invariant(run[2]["final"].values)
    # the same run forced onto the grid: the same artifacts, bit for bit
    monkeypatch.setattr(solver, "_x_invariant", lambda u: False)
    calls.clear()
    assert _artifacts(advance(cfg)) == _artifacts(run)
    assert dict(calls) == {"laplacian_operator": taken[stencil]}
    # and the public step() loop ends on the same u
    assert run[2]["final"].values.tobytes() == _step_loop(cfg).u.tobytes()


STEP_COLUMN_CASES = {
    "nonlocal_t": small_cfg(system=SystemKind.NONLOCAL_T, grid=RectGrid(14, 11), law=DECAY,
                            init=COSINE, end_time=0.1),
    "nonlocal_sigma": small_cfg(grid=RectGrid(13, 16), law=GROWTH, init=COSINE,
                                end_time=0.1),
    "shadow_tau": small_cfg(system=SystemKind.SHADOW_TAU,
                            params=Parameters(p=3, q=2, r=1, s=2, tau=0.1), law=DECAY,
                            grid=RectGrid(11, 14), eta0=0.7, init=COSINE, end_time=0.2),
    "nonlocal_t_fractional_powers": small_cfg(
        system=SystemKind.NONLOCAL_T, params=Parameters(p=2.5, q=2, r=1.5, s=1.5),
        grid=RectGrid(12, 9), law=GROWTH, init=COSINE, end_time=0.1),
    "full_rd": FULL_RD_COLUMN,
}


def _stepped(cfg, u, aux, steps):
    """The state `steps` public step() calls take from (u, aux) at clock 0."""
    state = RunState(u=u.copy(), aux=copy.copy(aux), clock=0.0)
    while state.verdict is None and state.steps < steps:
        step(cfg, state)
    return state


@pytest.mark.parametrize("cfg", STEP_COLUMN_CASES.values(), ids=STEP_COLUMN_CASES.keys())
def test_step_steps_an_x_invariant_state_on_its_column(cfg, monkeypatch):
    # 40 column steps, each expanded to (ny, nx), end on the 2-D steps' state
    # bit for bit
    start = RunState.initial(cfg)
    calls = _count_stencils(monkeypatch)
    run = _stepped(cfg, start.u, start.aux, 40)
    assert dict(calls) == {"column_laplacian_operator": 40}
    assert run.u.shape == cfg.grid.shape and mesh._x_invariant(run.u)
    monkeypatch.setattr(solver, "_x_invariant", lambda u: False)
    calls.clear()
    ref = _stepped(cfg, start.u, start.aux, 40)
    assert dict(calls) == {"laplacian_operator": 40}
    assert (run.steps, run.clock, run.dt_last, run.verdict) == (
        ref.steps, ref.clock, ref.dt_last, ref.verdict)
    assert run.u.tobytes() == ref.u.tobytes()
    assert np.array_equal(run.aux, ref.aux)


@pytest.mark.parametrize("nudge", ["u", "v"])
def test_full_rd_steps_the_grid_unless_both_fields_are_x_invariant(nudge, monkeypatch):
    start = RunState.initial(FULL_RD_COLUMN)
    u = _nudged(start.u) if nudge == "u" else start.u
    v = _nudged(start.aux) if nudge == "v" else start.aux
    calls = _count_stencils(monkeypatch)
    _stepped(FULL_RD_COLUMN, u, v, 10)
    assert dict(calls) == {"laplacian_operator": 10}


def test_step_a_float32_x_invariant_state_on_the_grid(monkeypatch):
    # only float64 bits are tested for x-invariance; a float32 u steps the
    # grid, as it always did, and the float64 u that step leaves then steps
    # its column
    cfg = small_cfg(grid=RectGrid(9, 7), init=COSINE)
    u = RunState.initial(cfg).u.astype(np.float32)
    assert (u == u[:, :1]).all()
    calls = _count_stencils(monkeypatch)
    run = _stepped(cfg, u, None, 5)
    assert dict(calls) == {"laplacian_operator": 1, "column_laplacian_operator": 4}
    assert run.u.dtype == np.float64
    # every mean and step on the grid, with the blocked weighted sum
    monkeypatch.setattr(solver, "_x_invariant", lambda u: False)
    monkeypatch.setattr(mesh, "_x_invariant", lambda u: False)
    ref = _stepped(cfg, u, None, 5)
    assert run.steps == ref.steps == 5 and run.clock == ref.clock
    assert run.u.tobytes() == ref.u.tobytes()


@pytest.mark.parametrize("cfg", [STEP_COLUMN_CASES["nonlocal_sigma"], FULL_RD_COLUMN],
                         ids=["nonlocal_sigma", "full_rd"])
def test_step_widens_its_column_into_fresh_writable_arrays(cfg):
    start = RunState.initial(cfg)
    state = RunState(u=start.u.copy(), aux=copy.copy(start.aux), clock=0.0)

    def fields():
        return [state.u, *([state.aux] if cfg.system is SystemKind.FULL_RD else [])]

    held = [(x, x.copy()) for x in fields()]
    for _ in range(3):
        step(cfg, state)
        lay = state._ctx.layout((cfg.grid.ny, 1))
        workspace = [lay.ur, lay.up, lay.scratch]
        for x in fields():
            assert x.shape == cfg.grid.shape and x.dtype == np.float64
            assert x.flags.writeable and x.flags.c_contiguous and x.flags.owndata
            assert mesh._x_invariant(x)
            assert not any(np.shares_memory(x, y) for y, _ in held)
            assert not any(np.shares_memory(x, y) for y in workspace)
        held += [(x, x.copy()) for x in fields()]
    # no array a caller held was written
    for x, copied in held:
        assert x.tobytes() == copied.tobytes()


def test_step_takes_the_grid_after_an_in_place_edit_breaks_x_invariance(monkeypatch):
    cfg = STEP_COLUMN_CASES["nonlocal_sigma"]
    state = RunState.initial(cfg)
    calls = _count_stencils(monkeypatch)
    step(cfg, state)
    assert dict(calls) == {"column_laplacian_operator": 1}
    state.u[5, -1] += 1e-3  # the fresh u step() returned, edited in place
    edited = copy.deepcopy(state)
    calls.clear()
    step(cfg, state)
    assert dict(calls) == {"laplacian_operator": 1}
    # the same step as the forced-2-D path's, bit for bit
    monkeypatch.setattr(solver, "_x_invariant", lambda u: False)
    step(cfg, edited)
    assert (state.clock, state.dt_last) == (edited.clock, edited.dt_last)
    assert state.u.tobytes() == edited.u.tobytes()


@pytest.mark.parametrize("inf", [math.inf, -math.inf], ids=["+inf", "-inf"])
@pytest.mark.parametrize("system", [SystemKind.NONLOCAL_SIGMA, SystemKind.SHADOW_TAU],
                         ids=["nonlocal_sigma", "shadow_tau"])
def test_step_ends_an_x_invariant_infinite_state_non_finite_as_the_grid_does(
        system, inf, monkeypatch):
    # the column stencil differs from the 2-D one on an infinity, but a step
    # ends such a state before either stencil runs
    cfg = small_cfg(system=system, params=TAU, law=DECAY, init=COSINE, eta0=0.7)
    u = RunState.initial(cfg).u
    u[3] = inf
    assert mesh._x_invariant(u)
    results = []
    for forced in (False, True):
        if forced:
            monkeypatch.setattr(solver, "_x_invariant", lambda u: False)
        state = RunState(u=u, aux=0.7 if system is SystemKind.SHADOW_TAU else None,
                         clock=0.0)
        step(cfg, state)
        assert state.u is u
        results.append((state.verdict, state.steps, state.clock, state.dt_last))
    assert results[0] == results[1] == (Verdict.NON_FINITE, 0, 0.0, 0.0)


def test_step_on_a_terminated_run_raises():
    cfg = small_cfg(end_time=0.05)
    state = _step_loop(cfg)
    assert state.verdict is Verdict.HORIZON_REACHED
    with pytest.raises(RuntimeError, match="^run already terminated$"):
        step(cfg, state)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_step_ends_non_finite_when_the_update_overflows_on_grid_and_column():
    # a finite u whose update overflows: at 1e308 the stencil is -inf and
    # u^3 is inf, so the rate there is NaN, and so is the new u
    cfg = small_cfg(grid=RectGrid(3, 3), blowup_threshold=math.inf)
    grid_u, column_u = np.ones((3, 3)), np.ones((3, 3))
    grid_u[1, 1] = 1e308
    column_u[1] = 1e308
    assert not mesh._x_invariant(grid_u) and mesh._x_invariant(column_u)
    results = []
    for u in (grid_u, column_u):
        state = step(cfg, RunState(u=u, aux=None, clock=0.0))
        assert np.isnan(state.u).any()
        results.append((state.verdict, state.steps, state.clock, state.dt_last))
    assert results[0] == results[1]
    assert results[0][:2] == (Verdict.NON_FINITE, 1)


SIGMA_PAIR_CASES = {
    f"{system.value}-{law.kind.value}": small_cfg(
        system=system, params=Parameters(p=3, q=2, r=1, s=2, tau=0.1), law=law, grid=RectGrid(11, 14), init=COSINE,
        end_time=0.15)
    for system in (SystemKind.NONLOCAL_SIGMA, SystemKind.SHADOW_TAU)
    for law in (GROWTH, DECAY)
}


@pytest.mark.parametrize("cfg", SIGMA_PAIR_CASES.values(), ids=SIGMA_PAIR_CASES.keys())
def test_sigma_clock_steps_with_the_built_once_pair_as_with_clock_coefficients(
        cfg, monkeypatch):
    run = _step_loop(cfg)
    assert run.steps > 50
    calls = []

    def per_step_pair(law, e, t_clock):
        def pair(sigma):
            calls.append(sigma)
            return clock_coefficients(law, sigma, e, t_clock)
        return pair

    monkeypatch.setattr(solver, "_clock_pair", per_step_pair)
    ref = _step_loop(cfg)
    assert len(calls) == ref.steps
    assert (run.steps, run.clock, run.dt_last, run.verdict) == (
        ref.steps, ref.clock, ref.dt_last, ref.verdict)
    assert run.u.tobytes() == ref.u.tobytes()
    assert np.array_equal(run.aux, ref.aux)


@pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_copied_state_rebuilds_its_sigma_pair(copier):
    cfg = SIGMA_PAIR_CASES["shadow_tau-exp_growth"]
    state = RunState.initial(cfg)
    step(cfg, state)
    twin = copier(state)
    pair, twin_pair = state._ctx.coefficients, twin._ctx.coefficients
    assert twin_pair is not pair
    e = state._ctx.e
    for sigma in (0.0, state.clock, 0.1, clock_end(GROWTH, math.inf, False)):
        assert twin_pair(sigma) == pair(sigma) == clock_coefficients(GROWTH, sigma, e, False)


def test_rhs_rejects_a_sigma_at_or_beyond_the_exp_growth_horizon():
    # the context's pair takes the clock unchecked; rhs() still checks it
    cfg = small_cfg(law=GROWTH)
    u = const_field(cfg.grid, 2.0)
    rhs(cfg, u, None, 4.999)
    for sigma in (5.0, 7.0):
        with pytest.raises(ValueError, match="at or beyond the exp_growth horizon 5.0"):
            rhs(cfg, u, None, sigma)


# ------------------------------------------------------- step's context

TAU = Parameters(p=3, q=2, r=1, s=2, tau=0.1)


def _count_quad_weights(monkeypatch):
    """Calls of RectGrid.quad_weights, which every context build makes once."""
    calls = []
    original = RectGrid.quad_weights

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RectGrid, "quad_weights", counted)
    return calls


def test_step_builds_its_context_once(monkeypatch):
    calls = _count_quad_weights(monkeypatch)
    cfg = small_cfg()
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=None, clock=0.0)
    for _ in range(25):
        step(cfg, state)
    assert state.steps == 25
    assert len(calls) == 1


def _edit_dt(cfg, state):
    cfg.dt = 5e-4
    return 5e-4


def _edit_params(cfg, state):
    cfg.params = Parameters(p=3, q=2, r=1, s=2, D1=4.0)
    return (1 / 8) ** 2 / 16.0  # the diffusion cap h^2/(4 D1) now binds


def _edit_grid(cfg, state):
    cfg.grid = RectGrid(65, 65)
    state.u = np.full(cfg.grid.shape, 2.0)
    return (1 / 64) ** 2 / 4.0


@pytest.mark.parametrize("edit", [_edit_dt, _edit_params, _edit_grid],
                         ids=["dt", "params", "grid"])
def test_step_rebuilds_its_context_after_an_in_place_edit(edit, monkeypatch):
    calls = _count_quad_weights(monkeypatch)
    cfg = small_cfg()
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=None, clock=0.0)
    step(cfg, state)
    assert state.dt_last == 1e-3
    expected_dt = edit(cfg, state)
    step(cfg, state)
    assert len(calls) == 2
    assert state.dt_last == pytest.approx(expected_dt, rel=1e-12)
    assert state.u.shape == cfg.grid.shape
    step(cfg, state)
    assert len(calls) == 2


def test_new_and_replaced_states_have_no_context():
    cfg = small_cfg()
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=None, clock=0.0)
    assert state._ctx is None
    step(cfg, state)
    assert state._ctx is not None
    assert dataclasses.replace(state)._ctx is None
    assert "_ctx" not in repr(state)


@pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("cfg", [
    small_cfg(system=SystemKind.SHADOW_TAU, params=TAU, law=DECAY, eta0=0.7,
              init=InitSpec(InitKind.COSINE_PLUS, c=2.0)),
    small_cfg(system=SystemKind.FULL_RD,
              params=Parameters(p=3, q=2, r=1, s=2, D1=0.01, D2=1.0, tau=0.01),
              law=DECAY, grid=RectGrid(17, 13), v0=2.0,
              init=InitSpec(InitKind.COSINE_PLUS, c=2.0)),
], ids=["shadow_tau", "full_rd"])
def test_copied_state_steps_on_bit_identically(cfg, copier):
    state = RunState.initial(cfg)
    for _ in range(5):
        step(cfg, state)
    twin = copier(state)
    ctx = twin._ctx
    assert ctx is not None and ctx is not state._ctx
    for _ in range(20):
        step(cfg, state)
        step(cfg, twin)
    assert twin._ctx is ctx
    column = (cfg.grid.ny, 1)
    assert ctx.layout(column).laplacian is not state._ctx.layout(column).laplacian
    assert twin.steps == state.steps == 25
    assert twin.clock == state.clock
    assert np.array_equal(twin.u, state.u)
    assert np.array_equal(twin.aux, state.aux)


@pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
@pytest.mark.parametrize("cfg", [STEP_COLUMN_CASES["nonlocal_sigma"], FULL_RD_COLUMN],
                         ids=["nonlocal_sigma", "full_rd"])
def test_copied_state_with_a_column_twin_steps_on_bit_identically(cfg, copier):
    # the copy's context is rebuilt from the config alone and builds its
    # own column layout when it first steps
    state = RunState.initial(cfg)
    step(cfg, state)
    twin = copier(state)
    ctx = twin._ctx
    for _ in range(20):
        step(cfg, state)
        step(cfg, twin)
    column = (cfg.grid.ny, 1)
    assert twin._ctx is ctx
    assert ctx.layout(column).laplacian is not state._ctx.layout(column).laplacian
    assert (twin.steps, twin.clock, twin.dt_last) == (state.steps, state.clock, state.dt_last)
    assert twin.steps == 21
    assert twin.u.tobytes() == state.u.tobytes()
    assert np.array_equal(twin.aux, state.aux)


def _count_builds(monkeypatch):
    """Builds of the rectangle's grid and column operators, by builder name."""
    builds = collections.Counter()
    for name in ("laplacian_operator", "column_laplacian_operator",
                 "resolvent_operator", "column_resolvent_operator"):
        def build(self, original=getattr(RectGrid, name), name=name):
            builds[name] += 1
            return original(self)
        monkeypatch.setattr(RectGrid, name, build)
    return builds


def _layout_builds(cfg, *, column):
    """The builds of one layout of cfg: its Laplacian and FULL_RD's solve."""
    prefix = "column_" if column else ""
    names = ["laplacian_operator"]
    if cfg.system is SystemKind.FULL_RD:
        names.append("resolvent_operator")
    return {prefix + name: 1 for name in names}


@pytest.mark.parametrize("family, nudge", [
    ("nonlocal_t", False), ("nonlocal_sigma", False), ("shadow_tau", False),
    ("full_rd", False), ("full_rd", True),
], ids=["nonlocal_t", "nonlocal_sigma", "shadow_tau", "full_rd", "full_rd_x_dependent_u0"])
def test_advance_builds_only_the_layout_it_steps_once(family, nudge, monkeypatch):
    cfg = STEP_COLUMN_CASES[family]
    if nudge:
        monkeypatch.setattr(solver, "build_initial", _nudged_initial)
    builds = _count_builds(monkeypatch)
    advance(cfg)
    assert dict(builds) == _layout_builds(cfg, column=not nudge)


@pytest.mark.parametrize("cfg", [STEP_COLUMN_CASES["nonlocal_sigma"], FULL_RD_COLUMN],
                         ids=["nonlocal_sigma", "full_rd"])
def test_step_builds_each_layout_once_per_context(cfg, monkeypatch):
    state = RunState.initial(cfg)
    builds = _count_builds(monkeypatch)
    column = _layout_builds(cfg, column=True)
    both = {**column, **_layout_builds(cfg, column=False)}

    def three_steps(x_invariant):
        for _ in range(3):
            step(cfg, state)
        assert mesh._x_invariant(state.u) is x_invariant

    three_steps(True)
    assert dict(builds) == column
    state.u[cfg.grid.ny // 2, -1] += 1e-3
    three_steps(False)
    assert dict(builds) == both
    # back to x-invariance: u (and v) widened from their first column
    state.u = mesh._widen(state.u[:, :1].copy(), cfg.grid.shape)
    if cfg.system is SystemKind.FULL_RD:
        state.aux = mesh._widen(state.aux[:, :1].copy(), cfg.grid.shape)
    three_steps(True)
    assert dict(builds) == both


@pytest.mark.parametrize("copier", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
                         ids=["pickle", "deepcopy"])
def test_a_copied_state_builds_nothing_until_it_steps(copier, monkeypatch):
    state = RunState.initial(FULL_RD_COLUMN)
    step(FULL_RD_COLUMN, state)
    builds = _count_builds(monkeypatch)
    twin = copier(state)
    assert not builds
    step(FULL_RD_COLUMN, twin)
    assert dict(builds) == _layout_builds(FULL_RD_COLUMN, column=True)


@pytest.mark.parametrize("name, value, message", [
    ("dt", -1.0, "dt must be positive, got -1.0"),
    ("dt_safety", 5.0, "dt_safety must be in (0, 1], got 5.0"),
], ids=["dt", "dt_safety"])
def test_step_revalidates_an_edited_config(name, value, message):
    cfg = small_cfg()
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=None, clock=0.0)
    step(cfg, state)
    setattr(cfg, name, value)
    with pytest.raises(ValueError, match=re.escape(message)):
        step(cfg, state)
    assert state.steps == 1


def test_advance_revalidates_an_edited_config():
    cfg = small_cfg()
    cfg.end_time = -1.0
    with pytest.raises(ValueError, match=re.escape("end_time must be positive, got -1.0")):
        advance(cfg)


SHAPE = re.escape("u has shape (10, 10), the grid (9, 9)")
OTHER_GRID = re.escape("u is on RectGrid(nx=10, ny=10), the config on RectGrid(nx=9, ny=9)")


@pytest.mark.parametrize("system, params, grid, aux, dtype, step_message, rhs_message", [
    (SystemKind.NONLOCAL_SIGMA, TABLE1, RectGrid(10, 10), None, float, SHAPE, OTHER_GRID),
    (SystemKind.SHADOW_TAU, TAU, RectGrid(9, 9), None, float,
     "shadow_tau needs a float eta, got None", None),
    (SystemKind.NONLOCAL_SIGMA, TABLE1, RectGrid(9, 9), np.ones((9, 9)), float,
     re.escape("nonlocal_sigma needs no inhibitor (aux=None), got an array of shape (9, 9)"),
     None),
    (SystemKind.NONLOCAL_T, TABLE1, RectGrid(9, 9), 1.0, float,
     re.escape("nonlocal_t needs no inhibitor (aux=None), got 1.0"), None),
    (SystemKind.FULL_RD, TAU, RectGrid(9, 9), 2.0, float,
     re.escape("full_rd needs an array v of shape (9, 9), got 2.0"), None),
    (SystemKind.FULL_RD, TAU, RectGrid(9, 9), np.ones((9, 8)), float,
     re.escape("full_rd needs an array v of shape (9, 9), got an array of shape (9, 8)"),
     None),
    (SystemKind.SHADOW_TAU, TAU, RectGrid(9, 9), math.inf, float,
     "shadow_tau needs a finite eta, got inf", None),
    (SystemKind.SHADOW_TAU, TAU, RectGrid(9, 9), math.nan, float,
     "shadow_tau needs a finite eta, got nan", None),
    (SystemKind.NONLOCAL_SIGMA, TABLE1, RectGrid(9, 9), None, int,
     "u has dtype int64, not a float dtype", None),
    (SystemKind.FULL_RD, TAU, RectGrid(9, 9), np.full((9, 9), 2), float,
     "v has dtype int64, not a float dtype", None),
    (SystemKind.FULL_RD, TAU, RectGrid(9, 9), np.full((9, 9), 2 + 0j), float,
     "v has dtype complex128, not a float dtype", None),
], ids=["u_shape", "shadow_tau_no_eta", "nonlocal_sigma_array", "nonlocal_t_float",
        "full_rd_float", "full_rd_v_shape", "shadow_tau_inf_eta", "shadow_tau_nan_eta",
        "int_u", "int_v", "complex_v"])
def test_step_and_rhs_reject_a_state_that_does_not_fit(
        system, params, grid, aux, dtype, step_message, rhs_message):
    cfg = small_cfg(system=system, params=params)
    u = np.full(grid.shape, 2, dtype=dtype)
    state = RunState(u=u, aux=aux, clock=0.0)
    with pytest.raises(ValueError, match=step_message):
        step(cfg, state)
    assert state.steps == 0 and state.verdict is None
    field = const_field(grid, 2.0)
    field.values = u  # a Field stores floats; hand rhs the raw array
    with pytest.raises(ValueError, match=rhs_message or step_message):
        rhs(cfg, field, aux, 0.0)


@pytest.mark.parametrize("law", [STATIC, DECAY], ids=lambda law: law.kind.value)
@pytest.mark.parametrize("clock", [-1e-3, math.nan], ids=["negative", "nan"])
def test_step_and_rhs_reject_a_clock_that_is_not_a_nonnegative_number(law, clock):
    # a static law's coefficients never read the clock, so the state check must
    cfg = small_cfg(system=SystemKind.NONLOCAL_T, law=law)
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=None, clock=clock)
    message = f"clock must be a nonnegative number, got {clock}"
    with pytest.raises(ValueError, match=message):
        step(cfg, state)
    assert state.steps == 0 and state.verdict is None
    with pytest.raises(ValueError, match=message):
        rhs(cfg, const_field(cfg.grid, 2.0), None, clock)


def test_step_ends_a_nan_inhibitor_v_non_finite_before_stepping():
    cfg = small_cfg(system=SystemKind.FULL_RD, params=TAU, v0=2.0)
    v = np.full(cfg.grid.shape, 2.0)
    v[4, 3] = math.nan
    state = RunState(u=np.full(cfg.grid.shape, 2.0), aux=v, clock=0.0)
    step(cfg, state)
    assert state.verdict is Verdict.NON_FINITE
    assert state.steps == 0 and state.clock == 0.0


# ------------------------------------------------- the mean and the rate

_PRINT_EXP1_AVERAGES = """
import numpy as np
from gmshadow import cli, mesh, solver
from gmshadow.initdata import build_initial
cfg = cli.PRESETS["exp1"]()["static"]
u0 = build_initial(cfg.init, cfg.grid, p=cfg.params.p)
rng = np.random.default_rng(15)
x_invariant = np.broadcast_to(rng.uniform(0.5, 3.0, (128, 1)), (128, 128)).copy()
lay = solver._Ctx(cfg).layout(cfg.grid.shape)
for u in (u0.values, x_invariant, rng.uniform(0.5, 3.0, (128, 128))):
    print([repr(lay.average(u, e)) for e in (1.0, 3.0, -1.0)])
    print([repr(mesh.mean(mesh.Field(cfg.grid, u), e)) for e in (1.0, 3.0, -1.0)])
"""


_PRINT_128_SOLVES = """
import numpy as np
from gmshadow import RectGrid
g = RectGrid(128, 128)
solve = g.resolvent_operator()
rng = np.random.default_rng(14)
x_invariant = np.broadcast_to(rng.uniform(0.1, 5.0, (g.ny, 1)), g.shape).copy()
for v in (x_invariant, rng.uniform(0.1, 5.0, g.shape)):
    print(repr(solve(v, 0.1).tolist()))
"""


def _printed_at_one_and_two_blas_threads(code: str) -> list[str]:
    """What `code` prints in a fresh process at OPENBLAS_NUM_THREADS 1 and 2;
    OpenBLAS reads its thread count when numpy loads."""
    src = str(Path(gmshadow.__file__).resolve().parents[1])
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        printed.append(done.stdout)
    return printed


def test_average_does_not_depend_on_the_blas_thread_count():
    # the solver's and mesh.mean's means of 128x128 fields: the exp1/static
    # datum and a random one, both x-invariant, and an x-dependent one
    printed = _printed_at_one_and_two_blas_threads(_PRINT_EXP1_AVERAGES)
    assert len(printed[0].splitlines()) == 6
    assert printed[0] == printed[1]


def test_resolvent_does_not_depend_on_the_blas_thread_count():
    # the 128x128 inhibitor solve, of an x-invariant and an x-dependent v
    printed = _printed_at_one_and_two_blas_threads(_PRINT_128_SOLVES)
    assert len(printed[0].splitlines()) == 2
    assert printed[0] == printed[1]


@pytest.mark.parametrize("grid", [RectGrid(14, 11), RectGrid(90, 91), RectGrid(64, 128),
                                  RadialGrid(3, 512)], ids=str)
def test_average_is_one_dot_product_up_to_the_block_size(grid):
    # at most 8,192 entries: exactly the single np.dot the mean always was
    cfg = small_cfg(grid=grid, law=EvolutionLaw.static(2 if isinstance(grid, RectGrid) else 3))
    u = np.random.default_rng(10).uniform(0.5, 3.0, grid.shape)
    w = grid.quad_weights().ravel()
    lay = solver._Ctx(cfg).layout(grid.shape)
    for e in (1.0, 3.0, -1.0, 1.4):
        dot = float(np.dot(w, fast_pow(u, e).ravel()))
        assert lay.average(u, e) == dot
        assert mesh.mean(Field(grid, u), e) == dot


MEAN_POWERS = (0.5, 1.0, 1.4, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("grid", [RectGrid(128, 128), RectGrid(49, 49), RectGrid(33, 20)],
                         ids=str)
def test_an_x_invariant_field_is_averaged_on_its_column(grid):
    # mesh.mean and the grid and column layouts' averages are all the one
    # dot of the column with the normalised y-trapezoid weights
    cfg = small_cfg(grid=grid)
    column = np.random.default_rng(12).uniform(0.5, 3.0, grid.ny)
    u = np.broadcast_to(column[:, None], grid.shape).copy()
    ctx = solver._Ctx(cfg)
    wy = grid.column_weights()
    assert wy.sum() == pytest.approx(1.0, rel=1e-15)
    for e in MEAN_POWERS:
        dot = float(np.dot(wy, fast_pow(column, e)))
        assert mesh.mean(Field(grid, u), e) == dot
        assert ctx.layout(grid.shape).average(u, e) == dot
        assert ctx.layout((grid.ny, 1)).average(u[:, :1].copy(), e) == dot


@pytest.mark.parametrize("grid", [RectGrid(128, 128), RectGrid(33, 20)], ids=str)
def test_a_field_one_ulp_off_x_invariance_is_the_blocked_weighted_sum(grid):
    cfg = small_cfg(grid=grid)
    column = np.random.default_rng(13).uniform(0.5, 3.0, grid.ny)
    u = _nudged(np.broadcast_to(column[:, None], grid.shape).copy())
    w = grid.quad_weights().ravel()
    lay = solver._Ctx(cfg).layout(grid.shape)
    off = [e for e in MEAN_POWERS if not mesh._x_invariant(fast_pow(u, e))]
    # a power can round the ulp away (u^0.5 does here), and then the field
    # it averages is x-invariant again
    assert 1.0 in off and len(off) >= 4
    for e in off:
        total = mesh._weighted_sum(w, fast_pow(u, e).ravel())
        assert mesh.mean(Field(grid, u), e) == total
        assert lay.average(u, e) == total


def _preset_initial_fields():
    """Each distinct initial field of the presets, with a config starting from it."""
    fields = {}
    for name, make in cli.PRESETS.items():
        for run, cfg in make().items():
            u0 = build_initial(cfg.init, cfg.grid, p=cfg.params.p).values
            key = (cfg.grid, u0.tobytes())
            fields.setdefault(key, pytest.param(cfg, u0, id=f"{name}/{run}"))
    return list(fields.values())


@pytest.mark.parametrize("e", [0.5, 1.0, 1.4, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("cfg, u0", _preset_initial_fields())
def test_mesh_mean_is_the_solver_average_on_every_preset_field(cfg, u0, e):
    assert mesh.mean(Field(cfg.grid, u0), e) == solver._Ctx(cfg).layout(u0.shape).average(u0, e)


def test_an_exp1_run_samples_mesh_mean_as_its_first_mean_u():
    cfg = dataclasses.replace(cli.PRESETS["exp1"]()["static"], end_time=1e-3)
    u0 = build_initial(cfg.init, cfg.grid, p=cfg.params.p)
    series, _, _ = advance(cfg)
    assert series.t[0] == 0.0
    assert series.mean_u[0] == mesh.mean(u0, 1.0)


UNCHANGED_CASES = [
    (SystemKind.NONLOCAL_SIGMA, LINEAR),
    (SystemKind.SHADOW_TAU, LINEAR),
    (SystemKind.NONLOCAL_T, UNIT),
    (SystemKind.FULL_RD, LINEAR),
    (SystemKind.NONLOCAL_SIGMA, Parameters(p=0, q=2, r=1, s=2, D1=0.37)),
    (SystemKind.FULL_RD, Parameters(p=0, q=1, r=1, s=2, D1=0.37, tau=0.05)),
    (SystemKind.NONLOCAL_T, SHARED_POWER),
]


_UNCHANGED = [(system, params, RECT_GRID) for system, params in UNCHANGED_CASES] + [
    (system, params, BALL_GRID) for system, params in UNCHANGED_CASES
    if system is not SystemKind.FULL_RD]


@pytest.mark.parametrize("system, params, grid", _UNCHANGED, ids=[
    _case_id(grid, system.value, f"p{params.p:g}") for system, params, grid in _UNCHANGED])
def test_rhs_and_step_leave_the_callers_u_unchanged(system, params, grid):
    law = GROWTH if isinstance(grid, RectGrid) else EvolutionLaw.exp_growth(0.1, 3)
    cfg = small_cfg(system=system, params=params, law=law, grid=grid, eta0=1.7, v0=1.3)
    u = np.random.default_rng(11).uniform(0.5, 3.0, cfg.grid.shape)
    aux = {SystemKind.SHADOW_TAU: 1.7,
           SystemKind.FULL_RD: np.full(cfg.grid.shape, 1.3)}.get(system)
    before = u.copy()
    rhs(cfg, Field(cfg.grid, u), aux, 0.37)
    assert np.array_equal(u, before)
    state = RunState(u=u, aux=aux, clock=0.0)
    step(cfg, state)
    assert state.steps == 1 and state.u is not u
    assert np.array_equal(u, before)
    # the workspace is shared by every step; the u a caller holds is not
    held, kept = state.u, state.u.copy()
    step(cfg, state)
    assert state.steps == 2 and state.u is not held
    assert np.array_equal(held, kept)


# --------------------------------------- what perfbench's tracer charges


def _public_mesh_functions():
    """mesh's public module-level functions, selected as perfbench's tracer
    selects a layer's entry points."""
    return {name: obj for name, obj in vars(mesh).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == mesh.__name__}


@pytest.mark.parametrize("system", list(SystemKind), ids=lambda k: k.value)
def test_no_public_mesh_function_runs_per_step(system, monkeypatch):
    # the tracer times every public mesh function, wherever it is bound, as
    # the mesh layer; one called per step would charge solver time to mesh
    calls = collections.Counter()

    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    functions = _public_mesh_functions()
    assert "mean" in functions and "laplacian" in functions
    modules = [m for name, m in list(sys.modules.items())
               if name == "gmshadow" or name.startswith("gmshadow.")]
    for name, fn in functions.items():
        wrapper = counted(name, fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, wrapper)
    cfg = small_cfg(system=system, params=TAU, law=DECAY, dt=1e-3, sample_stride=5)
    counts, samples = [], []
    for end_time in (0.01, 0.03):
        calls.clear()
        series, report, _ = advance(dataclasses.replace(cfg, end_time=end_time))
        assert report.verdict is Verdict.HORIZON_REACHED
        counts.append(dict(calls))
        samples.append(len(series))
    assert samples[0] < samples[1]
    assert counts[0] == counts[1]
