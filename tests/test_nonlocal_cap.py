"""On a fixed grid the non-local equation's sup is capped when omega < 1.

With normalised quadrature weights w and positive u, <u^r> >= w_i u_i^r at
every node i, and the Laplacian is <= 0 at the node of the maximum, so
there u' <= -Phi u + Psi u^omega / w_i^gamma.  Under the static law
(Phi = Psi = 1) that is negative once u exceeds w_min^(-gamma/(1-omega)),
so sup u never exceeds the larger of sup u0 and that bound.

The forward-Euler step keeps the bound where every row of its update is a
convex combination, as on the rectangle at the diffusion cap
dt = h^2/(4 D1).  The ball's origin row weighs its neighbour by
2N D1 dt/h^2 = N/2, which exceeds 1 for N = 3, so a dip at the origin
overshoots the sup of its neighbours there (origin 4.76 among 10s, with
p, q, r, s = 1, 0.5, 8, 1 and D1 = 1, reaches 10.2 on the N = 3, M = 33
ball); the ball is left out until that step keeps the bound.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from gmshadow import (  # noqa: E402
    EvolutionLaw,
    InitKind,
    InitSpec,
    Parameters,
    RectGrid,
    RunConfig,
    RunState,
    SystemKind,
    step,
)

GRID = RectGrid(9, 9)
STEPS = 200


@st.composite
def cases(draw):
    """Kinetics with gamma > 0 and omega < 1, the grid's bound
    w_min^(-gamma/(1-omega)), and positive data: log-uniform in [1e-2, 1e2]
    with one node, often the least-weighted, raised to a fraction of the
    bound (of at most 1e8), where the reaction is strongest."""
    # p, gamma and omega chosen, r = (p - omega)/gamma > 0 solved for
    p = draw(st.floats(1.0, 4.0))
    gamma = draw(st.floats(0.1, 2.0))
    omega = draw(st.floats(-1.0, 0.9))
    params = Parameters(p=p, q=2.0 * gamma, r=(p - omega) / gamma, s=1.0,
                        D1=draw(st.floats(0.1, 2.0)))
    w = GRID.quad_weights()
    bound = w.min() ** (-gamma / (1.0 - omega))
    u0 = 10.0 ** draw(arrays(np.float64, GRID.shape, elements=st.floats(-2.0, 2.0)))
    node = draw(st.one_of(st.just(int(np.argmin(w))), st.integers(0, w.size - 1)))
    u0.flat[node] = min(bound, 1e8) * 10.0 ** draw(st.floats(-2.0, 0.0))
    return params, bound, u0


@settings(max_examples=100, deadline=None)
@given(cases())
def test_nonlocal_sup_never_exceeds_the_grid_cap_on_the_rectangle(case):
    params, bound, u0 = case
    cfg = RunConfig(system=SystemKind.NONLOCAL_SIGMA, params=params,
                    law=EvolutionLaw.static(2), grid=GRID,
                    init=InitSpec(InitKind.CONSTANT, c=1.0), dt=1e-2, end_time=1e3,
                    blowup_threshold=np.inf, quench_threshold=0.0)
    cap = max(u0.max(), bound)
    state = RunState(u=u0.copy(), aux=None, clock=0.0)
    for _ in range(STEPS):
        state = step(cfg, state)
        if state.verdict is not None:
            break
        assert state.u.max() <= cap
