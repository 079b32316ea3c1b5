"""The grid's cap on the non-local equation's sup when omega < 1, measured.

On a fixed grid a spike's own cell bounds the non-local mean from below,
<u^r> >= w_i u_i^r, so the semi-discrete equation cannot blow up when
omega < 1 (the Hypothesis property in test_nonlocal_cap.py checks the
rigorous bound on the rectangle).  On the ball, a spike on node 0 loses
2N D1 u_0/h^2 to diffusion; balancing that against the capped reaction
u^omega/w_0^gamma gives the estimate (h^2/(2N D1 w_0^gamma))^(1/(1-omega)).
"""

import numpy as np
import pytest

from gmshadow import (
    EvolutionLaw,
    Field,
    InitKind,
    InitSpec,
    Parameters,
    RadialGrid,
    RectGrid,
    RunConfig,
    RunState,
    SystemKind,
    Verdict,
    advance,
    derive_indices,
    solver,
    step,
)

# exp3's kinetics: gamma = 2, omega = 0
EXP3 = Parameters(p=4.0, q=4.0, r=2.0, s=1.0, D1=1.0)


def _ball_peak_ratio(M):
    """exp3/static's data on RadialGrid(3, M) with no reachable threshold,
    stepped to t = 0.3: the peak sup over the run against the diffusion
    estimate h^2/(2N D1 w_0^gamma), and the verdict."""
    grid = RadialGrid(3, M)
    cfg = RunConfig(system=SystemKind.NONLOCAL_SIGMA, params=EXP3,
                    law=EvolutionLaw.static(3), grid=grid,
                    init=InitSpec(InitKind.SPIKY, delta=0.8, lam=0.1), dt=5e-4,
                    end_time=0.3, blowup_threshold=1e300)
    state = RunState.initial(cfg)
    peak = state.u.max()
    while state.verdict is None:
        state = step(cfg, state)
        peak = max(peak, state.u.max())
    gamma = derive_indices(EXP3).gamma
    w0 = grid.quad_weights()[0]
    estimate = grid.h**2 / (2 * grid.dim * EXP3.D1 * w0**gamma)
    return peak / estimate, state.verdict


def test_ball_peak_sup_is_the_same_share_of_the_diffusion_estimate_at_two_grids():
    # measured 0.9055 at M = 64 and 0.9042 at M = 128 (0.9069 at M = 32,
    # 0.9032 at M = 256): the peak grows like h^-4, as the estimate does
    ratios = {}
    for M in (64, 128):
        ratios[M], verdict = _ball_peak_ratio(M)
        assert verdict is Verdict.HORIZON_REACHED
        assert 0.89 < ratios[M] < 0.92
    assert abs(ratios[64] - ratios[128]) < 0.003


def test_rect_threshold_above_the_grid_cap_never_ends_blowup(monkeypatch):
    # the least-weighted node raised to 1e-3 of the cap w_min^(-gamma/(1-omega));
    # with D1 = 1e-4 its diffusion loss is small and it climbs to 0.975 of
    # the cap, so a threshold at 0.9 of the cap ends BlowUp and one just
    # above the cap cannot
    grid = RectGrid(9, 9)
    w = grid.quad_weights()
    params = Parameters(p=4.0, q=4.0, r=2.0, s=1.0, D1=1e-4)
    idx = derive_indices(params)
    cap = w.min() ** (-idx.gamma / (1.0 - idx.omega))
    build = solver.build_initial

    def raised(spec, g, p=None):
        u0 = build(spec, g, p=p).values.copy()
        u0.flat[np.argmin(w)] = 1e-3 * cap
        return Field(g, u0)

    monkeypatch.setattr(solver, "build_initial", raised)

    def run(threshold):
        cfg = RunConfig(system=SystemKind.NONLOCAL_SIGMA, params=params,
                        law=EvolutionLaw.static(2), grid=grid,
                        init=InitSpec(InitKind.COSINE_PLUS, c=2.0), dt=1e-2,
                        end_time=20.0, blowup_threshold=threshold)
        series, report, _ = advance(cfg)
        return report.verdict, max(series.sup_norm)

    assert run(0.9 * cap)[0] is Verdict.BLOW_UP
    verdict, peak = run(np.nextafter(cap, np.inf))
    assert verdict is Verdict.HORIZON_REACHED
    assert peak == pytest.approx(0.975 * cap, rel=1e-3)
    assert peak <= cap
