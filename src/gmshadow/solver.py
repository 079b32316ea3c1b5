"""Forward-Euler time integration of the four equation families.

Families and their native clocks:

  NONLOCAL_SIGMA  u_s = D1 Lap u - Phi(s) u + Psi(s) u^p / (avg u^r)^gamma
  SHADOW_TAU      the above with explicit inhibitor eta:
                  u_s = D1 Lap u - Phi u + phi^2 u^p / eta^q,
                  tau eta' = -Phi eta + phi^2 (avg u^r) / eta^s
  NONLOCAL_T      u_t = (D1/rho^2) Lap u - L(t) u + L(t)^gamma u^p / (avg u^r)^gamma
  FULL_RD         u_t = (D1/rho^2) Lap u - L u + u^p/v^q,
                  tau v_t = (D2/rho^2) Lap v - L v + u^r/v^s

The t-form reaction coefficient L^gamma is the exact image of the
sigma-form Psi under the clock change (Psi/rho^2 = L^gamma), so the two
formulations integrate the same dynamics.

_rhs_arrays writes the activator rate once for all four families,

  d Lap u - a u + b u^p / denom,    d = D1/rho^2 (rho = 1 in the sigma clock),

choosing only the coefficients: (a, b) is evolution.clock_coefficients in
the family's clock, with e = gamma for the non-local families and e = 0
with an inhibitor, so a = Phi(s) or L(t) and b = Psi, phi^2, L^gamma or 1;
denom = (avg u^r)^gamma, eta^q or v^q.  The inhibitors reuse the same a.
The rate is formed in the Laplacian's fresh output array, in that order,
and a multiply by a coefficient d, a or b equal to 1.0 is skipped.  The
sigma-clock families stop at evolution.clock_end.  Every weighted mean is
_Layout.average or mesh.mean, and both call the grid's average_operator():
on the ball mesh._weighted_sum, BLAS dot products over blocks of at most
8,192 entries summed left to right; on the rectangle one dot of ny entries
with the normalised y-trapezoid weights for a float64 field constant
along x, and for a column, and _weighted_sum for every other field.  So
no dot is split across BLAS threads, the mean is the same at every thread
count, and a column has the mean of the field it stands for.

The effective step is min(dt, h^2/(4 D_eff), relative growth clamp); the
clamp keeps each update below ~10% of the solution scale so runs terminate
cleanly at the blow-up threshold instead of overflowing.  The stiff linear
diffusion of the FULL_RD inhibitor (D2/tau is large in the regimes of
interest) is advanced with an exact cosine-spectral implicit solve; its
kinetics and the whole activator equation remain forward Euler.  The solve
(RectGrid.resolvent_operator) applies a type-I DCT basis built once per
run by four small matmuls per step instead of calling an FFT: on 128
nodes the DCT-I is an FFT of length 2(N-1) = 254, and its prime factor
127 makes that about ten times slower than the matmuls.  On a v constant
along x it is two matvecs on the column, exactly constant along x.

A step allocates one array, the new u: the rate is formed in the
Laplacian's fresh output and u + dt*du in that same buffer, so state.u is
always a fresh array and no array a caller holds is written.  Every other
temporary lives in the context's workspace (below), but for the
positivity guard's |du|, made on the few steps its shortcut fails.  Every extreme a step
takes is read at argmax/argmin (_max, _min): the same float as
ndarray.max()/min(), NaN included, for less (about 1 us against 2.3 us on
512 entries, 2-vCPU host).  A step takes the max and min of du, which give
max |du| for dt, and the exact max and min of the new u, which give its
finiteness test and the next step's sup and low; advance() and step()
thus step alike.  The positivity guard's shortcut bounds the guard
min(u/|du|) below by min u/max |du|; when that already allows dt, the
guard cannot bind and its passes are skipped.  FULL_RD adds the same
reductions on v and daux; its inhibitor update (the kinetics and the
spectral solve, which dominates its step) forms v^q once when q = s, and
aux + dt*daux in daux's fresh array.

A rectangle state whose u (and FULL_RD's v) is float64 and constant along
x, every column equal to the first bit for bit (mesh._x_invariant: one
pass over the bits after a one-node pre-check), is stepped on its (ny, 1)
column, as the cosine datum of every config-driven rectangle run is;
_on_column makes that choice for advance() and step() alike.  A step keeps
such a field constant along x: every operation but the stencil, the means
and FULL_RD's inhibitor solve is pointwise, the stencil's x-term
((u - 2u) + u)/hx^2 is the same at every node of a row, the mean of an
x-invariant field is its column's, and the solve of an x-invariant v is
its column's solve, widened.  So the column steps through the same _step,
with the column layout: the column stencil
RectGrid.column_laplacian_operator (the 2-D stencil's y-term plus +0.0,
the 2-D x-term being +0.0 on a finite column, so its result bit for bit on
every state a step reaches the stencil with), FULL_RD's column solve
RectGrid.column_resolvent_operator and a column workspace.  Every step,
dt, sample and verdict is then the 2-D run's bit for bit, at a sixth to a
seventh of the cost per step on 128x128, and a tenth for FULL_RD (2-vCPU
host).  mesh._widen writes a column into a fresh (ny, nx) array: the new u
(and v) of a step() call, advance()'s snapshots and the state a run ends
with.  Any other array a caller passes, and every rhs() call, takes the
whole grid.  step() keeps the column it widened, with its sup and low, on
the context, and steps it again when the next state's u (and v) has the
bytes of the one it returned, skipping _on_column's pass and the extremes
(see step()).  On one CPU of a 2-vCPU host a step() call costs about
37-38 us on exp1's x-invariant 128x128 datum, against about 220 us for a
whole-grid step, and 22-23 us on shadow_step's 49x49 sigma-clock states,
whose column _step is 16-17 us (best of five rounds, CPU time).

_step alone decides a run's verdict and ends it at the terminal clock,
which advance() samples last; the report takes that verdict and, for
BlowUp and Quench, the event times from that sample, and analysis only
refines a BlowUp.

The per-run machinery lives in a _Ctx: indices, the grid's average,
coefficient exponent and clock end, the family flags, and what the config
fixes.  rho^2 is 1 in the sigma clock and under the static law, and worked
out once per step otherwise.  (a, b) comes from evolution._clock_pair,
built once per context, as the Bernoulli oracle builds it: fixed under the
static law and, in t, under an exponential law (L = 1 + N r); in the sigma
clock, where an evolving law is exponential, (L, L**e)/(1 - 2 r sigma)
with L**e worked out, so a step does two divides; under the logistic law,
L and L**e at each t.  The clock end, and the config's rejection of an end
that never stops or leaves the float range, are evolution.clock_end's.
rhs() still checks its sigma clock against the exp_growth horizon, through
clock_coefficients, and its t clock against that float-range rule.  What
is bound to the shape of the arrays a step takes is a _Layout: the
Laplacian, FULL_RD's inhibitor solve and the step workspace, which holds
the mean's power of u (u^r in a step), u^p, a*u, and the Laplacian's own
buffers (the rectangle's ghost frame, the ball's zero-padded fluxes), all
overwritten by every step.  Every family forms u^r
before u^p (the mean, or FULL_RD's kinetics), so with r = 2 and p = 4 the
step squares that u^2 for u^4, the product fast_pow would form.
_Ctx.layout builds a layout, the whole grid's or the column's, the first
time _on_column or rhs() asks for that shape, and keeps it on the context,
so a run builds only the layouts it steps: every config-driven rectangle
run, the column's alone.  advance() builds one context per run; step()
keeps one on the RunState and rebuilds it only when the config no longer
equals the snapshot the context was built from, so an in-place edit of a
RunConfig between calls takes effect, and each build re-runs the config's
validation.  Because of the workspace, use one RunState per thread:
copy.copy(state) shares the context, and with it the kept column, while
copy.deepcopy and pickle rebuild it from its config, without a layout or
a kept column until the copy steps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .analysis import BlowUpReport, Verdict, _event_report
from .evolution import (
    EvolutionLaw,
    LawKind,
    _check_dilution,
    _clock_pair,
    _out_of_range,
    _require_nonnegative,
    clock_coefficients,
    clock_end,
    scale_factor,
    sigma_of_t,
    t_of_sigma,
)
from .initdata import InitSpec, _check_fits, build_initial
from .mesh import Field, Grid, RadialGrid, RectGrid, _widen, _x_invariant, mean
from .mesh import _fast_pow as fast_pow
from .params import Parameters, _check_integer, derive_indices

POSITIVITY_FLOOR = 1e-12


class SystemKind(Enum):
    NONLOCAL_T = "nonlocal_t"
    NONLOCAL_SIGMA = "nonlocal_sigma"
    SHADOW_TAU = "shadow_tau"
    FULL_RD = "full_rd"

    @property
    def t_native(self) -> bool:
        return self in (SystemKind.NONLOCAL_T, SystemKind.FULL_RD)


_INHIBITOR_FAMILIES = (SystemKind.SHADOW_TAU, SystemKind.FULL_RD)


class NonPositiveStateError(RuntimeError):
    """Raised when the non-local mean, eta or v loses positivity."""


@dataclass
class RunConfig:
    system: SystemKind
    params: Parameters
    law: EvolutionLaw
    grid: Grid
    init: InitSpec
    dt: float = 5e-4
    end_time: float = 1.0
    blowup_threshold: float = 1e6
    quench_threshold: float = 1e-3
    sample_stride: int = 20
    eta0: float | None = None
    v0: float | None = None
    dt_safety: float = 1.0
    snapshot_times: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for name in ("dt", "end_time", "blowup_threshold", "quench_threshold"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must be a number, got nan")
        for t in self.snapshot_times:
            # written so that NaN fails too; a run never reaches an infinite time
            if not 0.0 <= t < math.inf:
                raise ValueError(
                    f"snapshot_times must be finite nonnegative numbers, got {t}"
                )
        for name in ("dt", "end_time"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        _check_integer("sample_stride", self.sample_stride, 1)
        if not 0.0 < self.dt_safety <= 1.0:
            raise ValueError(f"dt_safety must be in (0, 1], got {self.dt_safety}")
        for name in ("eta0", "v0"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value}")
        if self.system in _INHIBITOR_FAMILIES and self.params.tau <= 0.0:
            raise ValueError(f"{self.system.value} needs tau > 0, got {self.params.tau}")
        if self.law.kind is LawKind.LOGISTIC and not self.system.t_native:
            raise ValueError("logistic evolution is integrated in t-form only")
        clock_end(self.law, self.end_time, self.system.t_native, "end_time")
        _check_dilution(self.law)
        if self.system is SystemKind.FULL_RD and not isinstance(self.grid, RectGrid):
            raise ValueError("the full two-species system runs on the rectangle grid")
        grid_dim = 2 if isinstance(self.grid, RectGrid) else self.grid.dim
        if self.law.dimension != grid_dim:
            raise ValueError(
                f"evolution dimension {self.law.dimension} != grid dimension {grid_dim}"
            )
        _check_fits(self.init, self.grid, self.params.p)


class TimeSeries:
    """Sampled scalar diagnostics along a run."""

    columns = ("t", "sigma", "sup_norm", "mean_u", "zeta", "w_moment", "eta_or_supv")

    def __init__(self) -> None:
        for name in self.columns:
            setattr(self, name, [])

    def append(self, *values: float) -> None:
        """One sample: a value for each of `columns`, in that order; a wrong
        count raises ValueError before any column grows."""
        for name, value in list(zip(self.columns, values, strict=True)):
            getattr(self, name).append(value)

    def __len__(self) -> int:
        return len(self.t)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(",".join(self.columns) + "\n")
            for row in zip(*(getattr(self, name) for name in self.columns)):
                fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _max(x: np.ndarray) -> float:
    """x.max() as a float, read at x.argmax(): a NaN still propagates, as
    argmax returns the first NaN, and only the sign of a zero maximum can
    differ."""
    return x.item(x.argmax())


def _min(x: np.ndarray) -> float:
    """x.min() as a float, read at x.argmin(); see _max."""
    return x.item(x.argmin())


@dataclass
class RunState:
    u: np.ndarray
    aux: float | np.ndarray | None
    clock: float
    steps: int = 0
    verdict: Verdict | None = None
    dt_last: float = 0.0
    # step()'s context; rebuilt whenever the config passed to step() changes
    _ctx: _Ctx | None = field(default=None, init=False, compare=False, repr=False)

    @classmethod
    def initial(cls, config: RunConfig) -> RunState:
        """The clock-0 state every run starts from: u0 from config.init, eta0
        or else the ODE balance (b/a avg u0^r)^(1/(s+1)), v0 or else 2.0 (not
        balanced).  Raises ValueError unless u0 lies between the thresholds."""
        p = config.params
        u0 = build_initial(config.init, config.grid, p=p.p)
        sup, low = _max(u0.values), _min(u0.values)
        high, quench = config.blowup_threshold, config.quench_threshold
        if high <= sup:
            raise ValueError(f"blowup_threshold {high} must exceed initial sup {sup}")
        if quench >= low:
            raise ValueError(f"quench_threshold {quench} must be below initial min {low}")
        aux = None
        if config.system is SystemKind.SHADOW_TAU:
            aux = None if config.eta0 is None else float(config.eta0)
            if aux is None:
                a, b = clock_coefficients(config.law, 0.0, 0.0, config.system.t_native)
                aux = (b / a * mean(u0, p.r)) ** (1.0 / (p.s + 1.0))
        elif config.system is SystemKind.FULL_RD:
            aux = np.full(config.grid.shape, 2.0 if config.v0 is None else config.v0)
        return cls(u=u0.values, aux=aux, clock=0.0)


class _Ctx:
    """The shape-free per-run machinery: what the config fixes (a validated
    snapshot), the indices, the grid's average, the family flags, the
    coefficient exponent and clock end, what the config fixes of rho^2
    and h^2, and the family's (a, b) as a function of the clock
    (coefficients, fixed or built once where the law allows).

    The shape-bound part, a _Layout, is built by layout() the first time a
    step or rhs() asks for arrays of that shape, the whole grid's or the
    (ny, 1) column's, and kept."""

    def __init__(self, config: RunConfig):
        # a shallow snapshot: it re-runs RunConfig's validation, and step()
        # compares it with the caller's config to see an in-place edit
        self.cfg = cfg = replace(config)
        p, law, kind = cfg.params, cfg.law, cfg.system
        self.idx = derive_indices(p)
        g = cfg.grid
        self.quadrature = g.average_operator()
        self.pin_outer = isinstance(g, RadialGrid) and g.outer_bc == "dirichlet"
        self.h2 = g.h_min**2
        self.shadow = kind is SystemKind.SHADOW_TAU
        self.full_rd = kind is SystemKind.FULL_RD
        self.e = 0.0 if kind in _INHIBITOR_FAMILIES else self.idx.gamma
        self.end = clock_end(law, cfg.end_time, kind.t_native)
        # rho is 1 in the sigma clock and under the static law; None where
        # the clock moves it
        self.rho2 = 1.0 if not kind.t_native or law.kind is LawKind.STATIC else None
        self.coefficients = _clock_pair(law, self.e, kind.t_native)
        # fast_pow forms u^4 as (u^2)^2, so with r = 2 the u^r that every
        # step forms for the mean or FULL_RD's kinetics is u^4's factor
        self.up_from_ur = p.r == 2.0 and p.p == 4.0
        self._layouts: dict[tuple[int, ...], _Layout] = {}
        # step()'s last column step: (_content of the state it returned, its
        # u and FULL_RD's v columns, and their sup and low); None otherwise
        self.kept = None

    def __reduce__(self):
        # the operators are closures; a copy builds its own layouts, with
        # their own buffers, when it first steps
        return (_Ctx, (self.cfg,))

    def layout(self, shape: tuple[int, ...]) -> _Layout:
        """The layout for arrays of `shape`, the grid's or the (ny, 1)
        column's: built on first use and kept."""
        if shape not in self._layouts:
            self._layouts[shape] = _Layout(self, shape)
        return self._layouts[shape]

    def rho_squared(self, clock: float) -> float:
        """rho(clock)^2 for the t-clock families; 1 for the sigma-clock ones,
        whose equations carry no rho."""
        if self.rho2 is not None:
            return self.rho2
        return scale_factor(self.cfg.law, clock) ** 2


class _Layout:
    """A context's shape-bound part, for the whole grid or for the (ny, 1)
    column of a rectangle field constant along x: the Laplacian, FULL_RD's
    inhibitor solve (I - nu*Lap)^-1, exact in the grid's cosine basis, and
    the workspace, overwritten by every step: the mean's power of u (u^r in
    a step), u^p, and a*u (then b*u^p/denom when u^p is u).  The grid's
    average takes a column too, so both layouts share it."""

    def __init__(self, ctx: _Ctx, shape: tuple[int, ...]):
        g = ctx.cfg.grid
        grid = shape == g.shape
        self.laplacian = g.laplacian_operator() if grid else g.column_laplacian_operator()
        if ctx.full_rd:
            self.diffuse_inhibitor = (g.resolvent_operator() if grid
                                      else g.column_resolvent_operator())
        self.quadrature = ctx.quadrature
        self.ur, self.up, self.scratch = np.empty((3, *shape))

    def average(self, u: np.ndarray, power: float) -> float:
        """The quadrature average of u^power by mesh.mean's kernel, so equal
        to mesh.mean bit for bit, on the grid and on the column alike;
        u^power is left in self.ur."""
        return self.quadrature(fast_pow(u, power, self.ur))

    def nonlocal_mean(self, u: np.ndarray, power: float) -> float:
        m = self.average(u, power)
        if m <= 0.0:
            raise NonPositiveStateError(f"nonlocal mean of u^{power} is {m}")
        return m


def rhs(
    config: RunConfig,
    u: Field,
    aux: float | np.ndarray | None,
    clock: float,
) -> tuple[Field, float | np.ndarray | None]:
    """Right-hand side of the selected family at the given native-clock time.

    Returns the pointwise activator rate and, when an inhibitor is present,
    its rate (for FULL_RD: the kinetic part only; the inhibitor diffusion is
    applied inside step() by an exact spectral solve).  Raises ValueError
    when u, aux or the clock does not fit the config: a t clock fits while
    rho(clock)^2 stays in (0, inf) (evolution._out_of_range, the rule
    clock_end applies to an end), a sigma clock short of the exp_growth
    horizon.

    Each call builds its own context: rhs() has no state to keep one on,
    and a context shared between calls would share its workspace across
    threads.
    """
    if u.grid != config.grid:
        raise ValueError(f"u is on {u.grid}, the config on {config.grid}")
    _check_state(config, u.values, aux, clock)
    ctx = _Ctx(config)
    if not config.system.t_native:
        # the public pair rejects a sigma at or beyond the exp_growth
        # horizon; the context's takes the clock unchecked
        clock_coefficients(config.law, clock, ctx.e, False)
    elif _out_of_range(config.law, clock, sigma=False):
        # D1/rho^2 would divide by zero or overflow
        raise ValueError(f"clock={clock} takes rho^2 out of float range under "
                         f"{config.law.kind.value} with beta={config.law.beta}")
    du, daux, _ = _rhs_arrays(ctx, ctx.layout(u.values.shape), u.values, aux, clock,
                              _min(u.values), ctx.rho_squared(clock))
    return Field(u.grid, du), daux


def _check_state(cfg: RunConfig, u: np.ndarray, aux, clock: float) -> None:
    """Reject a u, aux or clock that does not fit cfg; no pass over the arrays."""
    if u.shape != cfg.grid.shape:
        raise ValueError(f"u has shape {u.shape}, the grid {cfg.grid.shape}")
    if u.dtype.kind != "f":
        raise ValueError(f"u has dtype {u.dtype}, not a float dtype")
    _require_nonnegative("clock", clock)
    kind = cfg.system
    if kind is SystemKind.SHADOW_TAU:
        fits, want = isinstance(aux, numbers.Real), "a float eta"
        if fits and not math.isfinite(aux):
            fits, want = False, "a finite eta"
    elif kind is SystemKind.FULL_RD:
        fits = isinstance(aux, np.ndarray) and aux.shape == cfg.grid.shape
        want = f"an array v of shape {cfg.grid.shape}"
        if fits and aux.dtype.kind != "f":
            raise ValueError(f"v has dtype {aux.dtype}, not a float dtype")
    else:
        fits, want = aux is None, "no inhibitor (aux=None)"
    if not fits:
        got = f"an array of shape {aux.shape}" if isinstance(aux, np.ndarray) else repr(aux)
        raise ValueError(f"{kind.value} needs {want}, got {got}")


def _rhs_arrays(ctx: _Ctx, lay: _Layout, u, aux, clock, low: float, rho2: float):
    """Rates of the family at u, whose minimum `low` and the clock's
    ctx.rho_squared `rho2` the caller supplies, and the minimum of
    FULL_RD's v (None for the other families).  The activator's
    temporaries are in the workspace of lay, u's layout, and its rate is
    the Laplacian's fresh output; FULL_RD's daux is a fresh array."""
    p = ctx.cfg.params
    v_low = None
    # written so that a NaN minimum fails too
    if not low > 0.0:
        raise NonPositiveStateError(f"activator minimum {low} is not positive (or is NaN)")
    # the activator rate is d Lap u - a u + b u^p / denom, with d = D1/rho2
    a, b = ctx.coefficients(clock)
    if ctx.shadow:
        eta = aux
        # written so that NaN fails too
        if not eta > POSITIVITY_FLOOR:
            raise NonPositiveStateError(f"inhibitor eta nonpositive: {eta}")
        denom = eta**p.q
        daux = (-a * eta + b * lay.nonlocal_mean(u, p.r) / eta**p.s) / p.tau
    elif ctx.full_rd:
        v = aux
        v_low = _min(v)
        if not v_low > POSITIVITY_FLOOR:
            raise NonPositiveStateError("inhibitor v nonpositive")
        denom = fast_pow(v, p.q)
        vs = denom if p.s == p.q else fast_pow(v, p.s)
        daux = (-a * v + fast_pow(u, p.r, lay.ur) / vs) / p.tau
    else:
        denom = lay.nonlocal_mean(u, p.r) ** ctx.idx.gamma
        daux = None
    # formed in the Laplacian's fresh output in the order of
    # ((d*Lap u) - a*u) + ((b*u^p)/denom), skipping the exact identity x*1.0;
    # u^p is u itself when p = 1, so it is never scaled in place
    du = lay.laplacian(u)
    d = p.D1 / rho2
    if d != 1.0:
        du *= d
    du -= u if a == 1.0 else np.multiply(u, a, out=lay.scratch)
    if ctx.up_from_ur:
        up = np.multiply(lay.ur, lay.ur, out=lay.up)
    else:
        up = fast_pow(u, p.p, lay.up)
    out = lay.scratch if up is u else up
    if b != 1.0:
        up = np.multiply(up, b, out=out)
    du += np.divide(up, denom, out=out)
    return du, daux, v_low


def _guarded_dt(dt: float, vals, sup: float, low: float, dvals) -> float:
    """dt limited by the relative growth clamp and the positivity guard, which
    keeps a positive explicit-Euler update of vals (maximum sup, minimum
    low) comfortably positive.  Any lower bound on vals as low gives the
    same dt.

    max |dvals| is taken as the larger of max dvals and -min dvals (NaN
    when any entry is).  The guard min(vals/(|dvals| + 1e-300)) is at least
    low/(max |dvals| + 1e-300), as rounding is monotone, so when that bound
    already allows dt the guard cannot bind; only otherwise do the guard's
    four passes run.
    """
    mx = max(_max(dvals), -_min(dvals))
    dt = min(dt, 0.1 * (1.0 + sup) / (1.0 + mx))
    if 0.45 * (low / (mx + 1e-300)) < dt:
        mag = np.abs(dvals)
        mag += 1e-300
        np.divide(vals, mag, out=mag)
        dt = min(dt, 0.45 * _min(mag))
    return dt


def step(config: RunConfig, state: RunState) -> RunState:
    """One forward-Euler update; advances clocks, re-checks positivity,
    and sets the verdict on threshold crossing, horizon or overflow.

    The context is kept on the state and rebuilt, with the config's
    validation, only when config differs from the one it was built from.
    A float64 rectangle state constant along x (u, and FULL_RD's v with
    it) is stepped on its (ny, 1) column (_on_column), as advance() steps
    it, and the new u (and v) widened to (ny, nx): the 2-D step's numbers
    bit for bit.

    A call that steps a column, updates the state and leaves no verdict
    keeps on the context the bytes of the u (and v) it returns, the
    columns it widened and their sup and low.  The next call whose u (and
    v) is float64 with those bytes steps the kept columns with the kept
    sup and low, without _on_column's x-invariance pass, the column copy
    or the extremes; any other state takes _on_column.  Equal bytes are
    equal bits at every entry in C order, whatever the memory order, NaN
    payloads and signed zeros included, and _step never writes the
    columns, which no caller holds: so a hit steps exactly the columns
    _on_column would cut, and an in-place edit of the returned u, or any
    array of other content, misses.  A copy.copy of the state shares the
    context and its kept columns, and stays exact because the key is
    content; copy.deepcopy and pickle keep none.
    Raises ValueError when the config is invalid or the state does not
    fit it.
    """
    if state.verdict is not None:
        raise RuntimeError("run already terminated")
    ctx = state._ctx
    if ctx is None or ctx.cfg != config:
        ctx = state._ctx = _Ctx(config)
    u, aux, steps = state.u, state.aux, state.steps
    _check_state(ctx.cfg, u, aux, state.clock)
    # taken off the context first, so no error can leave it kept
    kept, ctx.kept = ctx.kept, None
    if kept is not None and kept[0] == _content(ctx, u, aux):
        _, state.u, column_aux, sup, low = kept
        if ctx.full_rd:
            state.aux = column_aux
        lay = ctx.layout(state.u.shape)
    else:
        lay = _on_column(ctx, state)
        sup, low = _max(state.u), _min(state.u)
    sup, low = _step(ctx, lay, state, sup, low)
    if state.steps == steps:
        # ended before the update: the caller's arrays stay
        state.u, state.aux = u, aux
    else:
        column_u, column_aux = state.u, state.aux
        state.u = _widen(column_u, u.shape)
        if ctx.full_rd:
            state.aux = _widen(column_aux, u.shape)
        if state.u is not column_u and state.verdict is None:
            ctx.kept = (_content(ctx, state.u, state.aux), column_u, column_aux, sup, low)
    return state


def _content(ctx: _Ctx, u: np.ndarray, aux) -> tuple[bytes, ...] | None:
    """The key of a kept column: the bytes of u, and of FULL_RD's v, in C
    order, when they are float64; None otherwise."""
    if u.dtype != np.float64:
        return None
    if not ctx.full_rd:
        return (u.tobytes(),)
    return (u.tobytes(), aux.tobytes()) if aux.dtype == np.float64 else None


def _on_column(ctx: _Ctx, state: RunState) -> _Layout:
    """The layout that steps `state`, from ctx.layout(): the column's, with
    state.u (and FULL_RD's v) cut to a fresh copy of its (ny, 1) column,
    when the grid is a rectangle and u (and v) pass _x_invariant; the
    grid's, and the state as it is, otherwise."""
    if (isinstance(ctx.cfg.grid, RectGrid) and _x_invariant(state.u)
            and (not ctx.full_rd or _x_invariant(state.aux))):
        state.u = state.u[:, :1].copy()
        if ctx.full_rd:
            state.aux = state.aux[:, :1].copy()
    return ctx.layout(state.u.shape)


def _step(ctx: _Ctx, lay: _Layout, state: RunState, sup: float,
          low: float) -> tuple[float, float]:
    """step() on the maximum `sup` and minimum `low` of state.u, whose
    layout is lay; returns the same pair for state.u as it leaves it."""
    cfg = ctx.cfg
    u, aux, clock = state.u, state.aux, state.clock
    if not math.isfinite(sup):
        state.verdict = Verdict.NON_FINITE
        return sup, low
    if sup >= cfg.blowup_threshold:
        state.verdict = Verdict.BLOW_UP
        return sup, low
    if sup <= cfg.quench_threshold:
        state.verdict = Verdict.QUENCH
        return sup, low
    end = ctx.end
    if clock >= end * (1.0 - 1e-14):
        state.verdict = Verdict.HORIZON_REACHED
        return sup, low
    rho2 = ctx.rho_squared(clock)
    try:
        du, daux, v_low = _rhs_arrays(ctx, lay, u, aux, clock, low, rho2)
    except NonPositiveStateError:
        state.verdict = Verdict.NON_FINITE
        return sup, low
    # the diffusion cap, the growth clamp and the positivity guards, scaled
    # by dt_safety and clipped to the end of the run
    dt = min(cfg.dt, ctx.h2 / (4.0 * (cfg.params.D1 / rho2)))
    dt = _guarded_dt(dt, u, sup, low, du)
    if ctx.shadow:
        dt = min(dt, 0.45 * aux / (abs(daux) + 1e-300))
    elif ctx.full_rd:
        dt = _guarded_dt(dt, aux, _max(aux), v_low, daux)
    dt = min(dt * cfg.dt_safety, end - clock)
    if not math.isfinite(dt) or dt <= 0.0:
        state.verdict = Verdict.NON_FINITE
        return sup, low
    # u + dt*du, formed in du's buffer
    u_new = du
    u_new *= dt
    u_new += u
    if ctx.pin_outer:
        u_new[-1] = u[-1]
    if ctx.shadow:
        aux_new = aux + dt * daux
    elif ctx.full_rd:
        nu = dt * cfg.params.D2 / (cfg.params.tau * rho2)
        # aux + dt*daux, formed in daux's fresh buffer
        daux *= dt
        daux += aux
        aux_new = lay.diffuse_inhibitor(daux, nu)
    else:
        aux_new = None
    state.u = u_new
    state.aux = aux_new
    state.clock = clock + dt
    state.steps += 1
    state.dt_last = dt
    sup, low = _max(u_new), _min(u_new)
    # both are finite exactly when every entry is
    if not (math.isfinite(sup) and math.isfinite(low)) or low <= 0.0:
        state.verdict = Verdict.NON_FINITE
    return sup, low


def _clocks(cfg: RunConfig, clock: float) -> tuple[float, float]:
    if cfg.system.t_native:
        return clock, sigma_of_t(cfg.law, clock)
    return t_of_sigma(cfg.law, clock), clock


def advance(config: RunConfig) -> tuple[TimeSeries, BlowUpReport, dict[str, Field]]:
    """Run the configured system until a verdict or the horizon.

    Samples diagnostics every sample_stride steps, whenever the sup norm has
    grown by 5% since the last sample (so the blow-up tail is resolved), and
    at termination.  Snapshots hold state.u itself, which no later step
    writes, at the first state reaching each requested time, the start
    state included, and at the end.
    The report's verdict is _step's; a BlowUp or Quench is reported by
    analysis._event_report at the last sample, the terminal clock.

    A rectangle run whose u0 (and FULL_RD's v0) has every column equal to
    the first, bit for bit, steps that (ny, 1) column alone (_on_column;
    see the module docstring).  The fields stay constant along x and each
    step forms the 2-D step's numbers, so the run is the 2-D run bit for
    bit.  Its snapshots, and the u and v it ends with, are widened to
    (ny, nx).
    """
    p = config.params
    state = RunState.initial(config)
    ctx = _Ctx(config)
    lay = _on_column(ctx, state)
    sup, low = _max(state.u), _min(state.u)
    shape = config.grid.shape
    series = TimeSeries()
    snapshots: dict[str, Field] = {}
    pending = sorted(config.snapshot_times)

    def sample(sup: float) -> None:
        t, sigma = _clocks(config, state.clock)
        u = state.u
        mu = lay.average(u, 1.0)
        zeta = lay.average(u, p.r)
        wmom = lay.average(u, p.r + 1.0 - p.p)
        a = math.nan if state.aux is None else float(np.max(state.aux))
        series.append(t, sigma, sup, mu, zeta, wmom, a)

    sample(sup)
    last_sup, last_clock = sup, state.clock
    while state.verdict is None:
        # the snapshots due at the state a step is about to leave, so a
        # time at the start clock holds u0
        while pending and state.clock >= pending[0]:
            label = f"clock{float(pending.pop(0))!r}"
            snapshots[label] = Field(config.grid, _widen(state.u, shape))
        sup, low = _step(ctx, lay, state, sup, low)
        if state.verdict is None and (
                state.steps % config.sample_stride == 0 or sup >= 1.05 * last_sup):
            sample(sup)
            last_sup, last_clock = sup, state.clock
    if state.clock != last_clock:
        sample(sup)
    state.u = _widen(state.u, shape)
    if ctx.full_rd:
        state.aux = _widen(state.aux, shape)
    snapshots["final"] = Field(config.grid, state.u)

    report = BlowUpReport(state.verdict)
    if state.verdict in (Verdict.BLOW_UP, Verdict.QUENCH):
        report = _event_report(state.verdict, series, p.p, len(series) - 1)
    return series, report, snapshots
