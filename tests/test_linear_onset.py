"""The paper's diffusion-driven instability at its linear onset, on both grids.

On a static domain in the sigma form, u* = 1 is a stationary state of
NONLOCAL_SIGMA.  With p, q, r, s = 4, 4, 2, 1 (gamma = 2, omega = 0, the
Turing regime) a zero-mean grid eigenmode phi, Lap phi = -mu phi, has the
linear rate p - 1 - D1 mu, where mu is the discrete eigenvalue: the mode
grows below D1* = (p - 1)/mu_1 and decays above it.  Started from
u0 = 1 + 1e-7 phi_1, forward Euler multiplies the mode's amplitude by
1 + dt (p - 1 - D1 mu_1) per step, up to terms of relative size 1e-7.
"""

import math

import numpy as np
import pytest

from gmshadow import (
    EvolutionLaw,
    InitKind,
    InitSpec,
    Parameters,
    RadialGrid,
    RectGrid,
    RunConfig,
    RunState,
    SystemKind,
    derive_indices,
    step,
    turing_condition,
)

P_MINUS_1 = 3.0
STEPS = 50


def _rect_mode():
    """cos(pi x) on 33^2 nodes and its eigenvalue (4/h^2) sin^2(pi h/2)."""
    g = RectGrid(33, 33)
    phi = np.cos(np.pi * g.x)[None, :] * np.ones((g.ny, 1))
    return g, phi, 4.0 / g.hx**2 * math.sin(math.pi * g.hx / 2.0) ** 2


def _ball_mode():
    """The first nonconstant eigenvector of the N = 3 ball's stencil, M = 33,
    from a dense eigendecomposition: the stencil is symmetric in the
    cell-volume inner product, so W^(1/2) L W^(-1/2) is symmetric."""
    g = RadialGrid(3, 33)
    lap = g.laplacian_operator()
    L = np.column_stack([lap(e) for e in np.eye(g.M)])
    sw = np.sqrt(g.quad_weights())
    S = sw[:, None] * L / sw[None, :]
    lam, vecs = np.linalg.eigh((S + S.T) / 2.0)
    k = np.argsort(-lam)[1]
    phi = vecs[:, k] / sw
    return g, phi / np.abs(phi).max(), -lam[k]


@pytest.mark.parametrize("mode, mu1_expected", [
    (_rect_mode, 9.861680), (_ball_mode, 20.157591)], ids=["rect", "ball"])
@pytest.mark.parametrize("fraction", [0.5, 1.5])
def test_first_mode_grows_below_and_decays_above_the_critical_diffusion(
        mode, mu1_expected, fraction):
    # D1 = fraction * D1*; on the rectangle, 1.5 D1* makes the diffusion
    # cap h^2/(4 D1) set dt
    grid, phi, mu1 = mode()
    assert mu1 == pytest.approx(mu1_expected, abs=1e-6)
    assert np.max(np.abs(grid.laplacian_operator()(phi) + mu1 * phi)) < 1e-9
    D1 = fraction * P_MINUS_1 / mu1
    params = Parameters(p=4, q=4, r=2, s=1, D1=D1)
    assert turing_condition(derive_indices(params))
    law = EvolutionLaw.static(2 if isinstance(grid, RectGrid) else grid.dim)
    cfg = RunConfig(system=SystemKind.NONLOCAL_SIGMA, params=params, law=law, grid=grid,
                    init=InitSpec(InitKind.CONSTANT, c=1.0), dt=1e-3, end_time=1.0)
    w = grid.quad_weights()

    def amplitude(u):
        return np.sum(w * (u - 1.0) * phi) / np.sum(w * phi * phi)

    state = RunState(u=1.0 + 1e-7 * phi, aux=None, clock=0.0)
    a0 = amplitude(state.u)
    rate = P_MINUS_1 - D1 * mu1
    factor = 1.0
    for _ in range(STEPS):
        step(cfg, state)
        factor *= 1.0 + state.dt_last * rate
    assert state.steps == STEPS and state.verdict is None
    assert (state.dt_last < cfg.dt) == (isinstance(grid, RectGrid) and fraction > 1.0)
    assert amplitude(state.u) / a0 == pytest.approx(factor, rel=1e-6)
    # the mode grows exactly when D1 < D1*
    assert (factor > 1.0) == (fraction < 1.0)
