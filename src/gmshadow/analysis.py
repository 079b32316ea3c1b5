"""Executable forms of the blow-up theory: closed-form and numeric bounds on
the blow-up time of the mean, moment-based blow-up criteria, blow-up
detection and extrapolation from sampled series, rate fitting, and spatial
localisation of the singularity.

The central object is the Bernoulli comparison ODE

    F' = -Phi(sigma) F + Psi(sigma) F^omega,   F(0) = mean of u0,

whose solution lower-bounds the evolving mean whenever p >= r (Jensen).
Its explicit blow-up time upper-bounds the PDE blow-up time.  This module
writes only that ODE's own closed forms; every closed form of a law (rho,
L, sigma, and the logistic int_0^t L) is evolution's, which also owns their
float-range rule.

threshold_integral's logistic branch is one of the package's two scipy
users (a quadrature); the other is evolution.t_of_sigma.  Each imports
scipy where it is called, so the static and exponential laws never load it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evolution import (
    EvolutionLaw,
    LawKind,
    CoefficientBounds,
    _clock_pair,
    _exp_rate,
    _int_L,
    _require_nonnegative,
    clock_coefficients,
    clock_end,
    dilution_coefficient,
    sigma_horizon,
    sigma_of_t,
    t_of_sigma,
)
from .mesh import Field, RadialGrid, mean
from .params import DerivedIndices, Parameters


class Verdict(Enum):
    BLOW_UP = "BlowUp"
    QUENCH = "Quench"
    BOUNDED = "Bounded"
    HORIZON_REACHED = "HorizonReached"
    NON_FINITE = "NonFinite"


@dataclass
class BlowUpReport:
    """Outcome of a run or of series analysis.

    Event times are the first threshold crossing in both clocks.
    extrapolated_sigma refines the blow-up time by linearising
    sup^-(p-1) against sigma over the last pre-threshold samples
    (a straight line hitting zero at the blow-up time).
    """

    verdict: Verdict
    event_time_t: float | None = None
    event_time_sigma: float | None = None
    extrapolated_sigma: float | None = None
    extrapolated_sigma_err: float | None = None
    fitted_rate_exponent: float | None = None


@dataclass(frozen=True)
class BoundReport:
    """Closed-form blow-up bound for the mean, when the hypotheses hold."""

    integral: float
    mean_threshold: float
    sigma_upper: float | None
    applicable: bool


def _check_u0_mean(u0_mean: float) -> None:
    if not 0.0 <= u0_mean < math.inf:
        raise ValueError(f"u0_mean must be a finite nonnegative number, got {u0_mean}")


def threshold_integral(
    law: EvolutionLaw, idx: DerivedIndices, sigma_max: float = math.inf
) -> float:
    """I(Sigma) = int_0^Sigma Psi(theta) exp((1-omega) int_0^theta Phi) dtheta.

    Closed forms for static/exponential laws; adaptive quadrature (in the
    t variable, where the integrand is L^gamma exp((1-omega) int L)) for
    the logistic law.  Requires omega > 1.  Raises ValueError unless
    sigma_max is >= 0 (inf included).
    """
    _require_nonnegative("sigma_max", sigma_max)
    w, g = idx.omega, idx.gamma
    if w <= 1.0:
        raise ValueError(f"threshold integral needs omega > 1, got omega={w}")
    k = law.kind
    if k is LawKind.STATIC:
        return (1.0 - math.exp((1.0 - w) * sigma_max)) / (w - 1.0)
    if k is LawKind.LOGISTIC:
        t_max = math.inf if math.isinf(sigma_max) else t_of_sigma(law, sigma_max)
        # imported here so that `import gmshadow` does not load scipy
        from scipy.integrate import quad

        val, _ = quad(
            lambda t: clock_coefficients(law, t, g, True)[1]
            * math.exp((1.0 - w) * _int_L(law, t)),
            0.0,
            t_max,
            limit=200,
        )
        return val
    # exponential: Phi = a/(1 - 2 r sigma), Psi = a^gamma/(1 - 2 r sigma)
    r = _exp_rate(law)
    a = dilution_coefficient(law, 0.0)
    full = a ** (g - 1.0) / (w - 1.0)
    if sigma_max >= sigma_horizon(law):
        return full
    return full * (1.0 - (1.0 - 2.0 * r * sigma_max) ** (a * (w - 1.0) / (2.0 * r)))


def mean_threshold(
    law: EvolutionLaw, idx: DerivedIndices, sigma_max: float = math.inf
) -> float:
    """Initial-mean threshold ((omega-1) I)^(1/(1-omega)) above which the
    Bernoulli comparison guarantees finite-time blow-up of the mean; +inf
    where I is 0, as at sigma_max = 0."""
    return _threshold(idx.omega, threshold_integral(law, idx, sigma_max))


def _threshold(omega: float, I: float) -> float:
    """((omega-1) I)^(1/(1-omega)) for omega > 1: +inf, its limit, where
    (omega-1) I is 0, and where the power overflows."""
    try:
        return ((omega - 1.0) * I) ** (1.0 / (1.0 - omega))
    except (ZeroDivisionError, OverflowError):
        return math.inf


def logistic_mean_threshold(
    idx: DerivedIndices, beta: float, m: float, dimension: int
) -> float:
    """Blow-up threshold for a logistically evolving domain (t-form).

    Quadrature of L^gamma exp((1-omega) int L) composed exactly like the
    static/exponential thresholds.
    """
    return mean_threshold(EvolutionLaw.logistic(beta, m, dimension), idx)


def bernoulli_bound(
    law: EvolutionLaw, idx: DerivedIndices, u0_mean: float
) -> BoundReport:
    """Closed-form upper bound for the blow-up time of the mean.

    applicable is False when omega <= 1, gamma outside (0,1), or the
    initial mean does not exceed the threshold (then no bound exists and
    sigma_upper is None).  The mean comparison additionally assumes p >= r
    on the kinetic side; callers in that regime get a rigorous bound.
    sigma_upper is reported only for laws with a closed form (static and
    exponential); a logistic law yields the threshold but no closed bound.
    Raises ValueError unless u0_mean is finite and >= 0.
    """
    _check_u0_mean(u0_mean)
    w, g = idx.omega, idx.gamma
    if w <= 1.0:
        return BoundReport(math.nan, math.nan, None, False)
    I = threshold_integral(law, idx)
    thr = _threshold(w, I)
    ok = (0.0 < g < 1.0) and u0_mean > thr
    if not ok:
        return BoundReport(I, thr, None, False)
    z = u0_mean ** (1.0 - w)
    if law.kind is LawKind.STATIC:
        sigma_upper = math.log(1.0 - z) / (1.0 - w)
    elif law.kind is LawKind.LOGISTIC:
        sigma_upper = None
    else:
        r = _exp_rate(law)
        a = dilution_coefficient(law, 0.0)
        sigma_upper = (1.0 - (1.0 - a ** (1.0 - g) * z) ** (2.0 * r / ((w - 1.0) * a))) / (
            2.0 * r
        )
    return BoundReport(I, thr, sigma_upper, True)


@dataclass
class OracleResult:
    """Numerically integrated Bernoulli trajectory, sampled in sigma."""

    sigma: np.ndarray
    values: np.ndarray
    blowup_sigma: float | None


def bernoulli_oracle(
    law: EvolutionLaw,
    idx: DerivedIndices,
    u0_mean: float,
    dt: float = 1e-4,
    sigma_max: float = 50.0,
) -> OracleResult:
    """Integrate F' = -Phi F + Psi F^omega with step-halving error control.

    Uses Euler step doubling with Richardson correction; a step is retried
    at half the length when it fails the error test, or when its half-step
    stage F + h/2 F' is negative (near the exp_growth horizon Phi grows
    without bound, so a decaying F can overshoot zero).  At F >= 1e10 the
    analytic tail F^(1-omega)/((omega-1) Psi) is added to the reported
    blow-up time.  The logistic law is integrated in the t clock (where its
    coefficients are closed-form), to t(sigma_max), and reported in sigma.
    The coefficient pair, built once per call, and the sigma-horizon stop
    are evolution._clock_pair and clock_end, the ones the solver uses.
    Serves as the independent oracle for every closed-form bound.

    Raises ValueError, before integrating, unless dt > 0, u0_mean is finite
    and >= 0, and sigma_max is >= 0 and finite, or infinite under
    exp_growth, whose sigma horizon ends the integration.
    """
    # written so that NaN fails too
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_u0_mean(u0_mean)
    _require_nonnegative("sigma_max", sigma_max)
    w, g = idx.omega, idx.gamma
    in_t = law.kind is LawKind.LOGISTIC
    end = clock_end(law, sigma_max, in_t)
    if math.isinf(end):
        raise ValueError(
            f"sigma_max={sigma_max} never ends the integration under "
            f"{law.kind.value}; only exp_growth stops at its sigma horizon"
        )
    if in_t:
        end = t_of_sigma(law, end)
    pair = _clock_pair(law, g, in_t)

    def rhs(clock: float, F: float) -> float:
        phi, psi = pair(clock)
        return -phi * F + psi * F**w

    clock, F = 0.0, float(u0_mean)
    h = dt
    rtol = 1e-8
    out_c, out_f = [0.0], [F]
    blow = None
    while clock < end:
        h = min(h, end - clock)
        f1 = rhs(clock, F)
        full = F + h * f1
        half = F + 0.5 * h * f1
        if half < 0.0:
            # F**omega of a negative stage is complex or of the wrong sign;
            # as h -> 0 the stage tends to F >= 0
            h *= 0.5
            continue
        half = half + 0.5 * h * rhs(clock + 0.5 * h, half)
        err = abs(half - full)
        scale = rtol * max(abs(half), 1.0)
        if err > scale and h > 1e-15:
            h *= 0.5
            continue
        F = 2.0 * half - full
        clock += h
        out_c.append(clock)
        out_f.append(F)
        if err < scale / 16.0:
            h = min(2.0 * h, dt)
        if not math.isfinite(F) or F >= 1e10:
            psi = pair(clock)[1]
            tail = (F ** (1.0 - w) / ((w - 1.0) * psi)
                    if w > 1.0 and math.isfinite(F) else 0.0)
            blow = clock + tail
            break
        if F <= 0.0:
            break
    if in_t:
        sig = np.array([sigma_of_t(law, c) for c in out_c])
        blow_sigma = sigma_of_t(law, blow) if blow is not None else None
    else:
        sig = np.array(out_c)
        blow_sigma = blow
    return OracleResult(sig, np.array(out_f), blow_sigma)


def bernoulli_profile_static(sigma: np.ndarray, u0_mean: float, omega: float) -> np.ndarray:
    """Closed-form F(sigma) for the static law (Phi = Psi = 1)."""
    g = u0_mean ** (1.0 - omega) - (1.0 - np.exp((1.0 - omega) * np.asarray(sigma)))
    with np.errstate(invalid="ignore"):
        return np.exp(-np.asarray(sigma)) * np.power(g, 1.0 / (1.0 - omega))


@dataclass(frozen=True)
class MomentCriteria:
    """Initial-moment blow-up criteria based on zeta(0) and w(0)."""

    applicable: bool
    condition1: bool
    condition2: bool
    zeta0: float
    w0: float


def moment_blowup_check(
    u0: Field,
    idx: DerivedIndices,
    bounds: CoefficientBounds,
    params: Parameters,
) -> MomentCriteria:
    """Evaluate the invariant-region blow-up criteria on the initial data.

    zeta(0) is the r-th moment, w(0) the (r+1-p)-th.  Applicability needs
    0 < gamma < 1 and r <= 1 < (p-1)/r.  Condition 1:
    w(0) < (m_Psi/M_Phi) zeta(0)^(1-gamma).  Condition 2: (p-1)/r >= 2 and
    w(0) < 1.  Either one implies finite-time blow-up.
    """
    zeta0 = mean(u0, params.r)
    w0 = mean(u0, params.r + 1.0 - params.p)
    applicable = (0.0 < idx.gamma < 1.0) and (params.r <= 1.0 < idx.pi)
    cond1 = w0 < (bounds.m_psi / bounds.M_phi) * zeta0 ** (1.0 - idx.gamma)
    cond2 = idx.pi >= 2.0 and w0 < 1.0
    return MomentCriteria(applicable, cond1, cond2, zeta0, w0)


def detect_blowup(
    series,
    p: float,
    threshold: float,
    quench_floor: float = 1e-3,
) -> BlowUpReport:
    """Classify a sampled sup-norm series and refine the blow-up time.

    BlowUp: the first sample at or above threshold is the event.  Quench:
    the first sample at or below the floor is the event.  Bounded
    otherwise.  The report is _event_report's.  Raises ValueError when
    threshold or quench_floor is NaN.
    """
    for name, value in (("threshold", threshold), ("quench_floor", quench_floor)):
        if math.isnan(value):
            raise ValueError(f"{name} must be a number, got nan")
    sup = np.asarray(series.sup_norm, dtype=float)
    above = np.nonzero(sup >= threshold)[0]
    verdict = Verdict.BLOW_UP
    if above.size == 0:
        above = np.nonzero(sup <= quench_floor)[0]
        verdict = Verdict.QUENCH
        if above.size == 0:
            return BlowUpReport(Verdict.BOUNDED)
    return _event_report(verdict, series, p, int(above[0]))


def _event_report(verdict: Verdict, series, p: float, i: int) -> BlowUpReport:
    """The report of an event at sample i: its t and sigma and, for a
    BlowUp, the extrapolation and rate from the non-NaN samples before it.
    Those (>= 5 required) are fitted with sup^-(p-1) linear in sigma, whose
    root is the extrapolated blow-up."""
    rep = BlowUpReport(verdict, float(series.t[i]), float(series.sigma[i]))
    sup = np.asarray(series.sup_norm[:i], dtype=float)
    keep = ~np.isnan(sup)
    if verdict is not Verdict.BLOW_UP or np.count_nonzero(keep) < 5:
        return rep
    sig = np.asarray(series.sigma[:i], dtype=float)[keep]
    fitted = _linearized_root(sig, sup[keep], p)
    if fitted is not None:
        rep.extrapolated_sigma, rep.extrapolated_sigma_err = fitted
        rep.fitted_rate_exponent = fit_rate(series, fitted[0], sigma_star_err=fitted[1])
    return rep


def _linearized_root(sig, sup, p):
    """Zero crossing of sup^-(p-1) vs sigma over the last 8 pre-threshold
    samples, widening the window to 32, 128 and then all of them when the
    trailing samples are too tightly clustered in sigma for a stable fit."""
    for k in (8, 32, 128, sup.size):
        x = sig[-k:]
        y = sup[-k:] ** (-(p - 1.0))
        if np.ptp(x) <= 0.0:
            continue
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                (slope, intercept), cov = np.polyfit(x, y, 1, cov=True)
        except (np.linalg.LinAlgError, ValueError):
            continue
        if not np.all(np.isfinite(cov)) or slope >= 0.0:
            continue
        root = -intercept / slope
        if root <= x[-1]:
            continue
        var = (cov[1, 1] + root**2 * cov[0, 0] + 2.0 * root * cov[0, 1]) / slope**2
        return float(root), float(math.sqrt(max(var, 0.0)))
    return None


def fit_rate(
    series,
    sigma_star: float,
    window: tuple[float, float] = (1e2, 1e5),
    sigma_star_err: float | None = None,
) -> float | None:
    """Least-squares slope of log sup against log(sigma_star - sigma).

    Samples are taken with sup inside the window; trailing samples whose
    remaining time to sigma_star is smaller than the uncertainty of
    sigma_star itself (or than float resolution) are dropped, since their
    abscissae are numerically meaningless.  Returns None when fewer than
    three usable points remain.
    """
    sup = np.asarray(series.sup_norm, dtype=float)
    sig = np.asarray(series.sigma, dtype=float)
    guard = 64.0 * np.finfo(float).eps * abs(sigma_star)
    if sigma_star_err is not None:
        guard = max(guard, 50.0 * sigma_star_err)
    rem = sigma_star - sig
    mask = (sup >= window[0]) & (sup <= window[1]) & (rem > guard)
    if mask.sum() < 3:
        return None
    x = np.log(rem[mask])
    y = np.log(sup[mask])
    if np.ptp(x) == 0.0:
        return None
    return float(np.polyfit(x, y, 1)[0])


@dataclass(frozen=True)
class BlowUpLocation:
    """Peak node of a near-blow-up radial snapshot plus envelope exponent."""

    node_index: int
    R_peak: float
    envelope_exponent: float | None


def locate_blowup(snapshot: Field) -> BlowUpLocation:
    """Argmax node of a radial snapshot and the exponent e of u ~ C R^-e
    fitted over R in [2h, 0.5] (log-log least squares)."""
    grid = snapshot.grid
    if not isinstance(grid, RadialGrid):
        raise TypeError("locate_blowup expects a radial snapshot")
    u = snapshot.values
    i = int(np.argmax(u))
    R = grid.R
    mask = (R >= 2.0 * grid.h) & (R <= 0.5) & (u > 0.0)
    expo = None
    if mask.sum() >= 3:
        x = np.log(R[mask])
        y = np.log(u[mask])
        if np.ptp(x) > 0.0:
            expo = float(-np.polyfit(x, y, 1)[0])
    return BlowUpLocation(i, float(R[i]), expo)
