"""Isotropic domain-evolution laws and the induced time-dependent coefficients.

The domain evolves as x = rho(t)*xi with rho(0) = 1.  On the reference
domain the equations pick up the dilution factor L(t) = 1 + N*rho'/rho and,
after the clock change sigma(t) = int_0^t rho(theta)^-2 dtheta, the
sigma-form coefficients

    Phi(sigma) = phi^2 + N*phi'/phi = rho^2 * L,
    Psi(sigma) = phi^(2(1-gamma)) * Phi^gamma = rho^2 * L^gamma,

where phi(sigma) = rho(t(sigma)).  Everything below uses per-law closed
forms; nothing differentiates rho numerically.  reaction_coeff is the one
body of the three: phi^2 and Phi are its gamma = 0 and gamma = 1 cases.
The solver and the Bernoulli oracle take their coefficient pair from
_clock_pair, the one place that decides whether a law's pair is fixed,
built once or worked out per clock; each builds it once, per solver
context or oracle call.  Their sigma-horizon stop is clock_end.  Under the
exponential laws the sigma-clock pair's closed form, (L, L**e)/(1 - 2 r
sigma), is written once, in _exp_sigma_pair, a callable of sigma with L**e
worked out when it is built: reaction_coeff, and so clock_coefficients,
call it after checking sigma, and _clock_pair returns it for the sigma
clock, the same bits with no check.

This module alone evaluates a law's time dependence: rho, L, sigma and,
for the logistic law, int_0^t L (_int_L, which analysis.threshold_integral
integrates).  The exponential L = 1 + N r is dilution_coefficient's, which
_exp_sigma_pair and analysis's closed forms call.  The logistic growth
factor e^(beta t) is evaluated once, in _growth, which rho, L and int L
share; where math.exp overflows it is +inf.  Where the growth factor, or
its quotient by m < 1, leaves the float range, rho, L and int L take their
limits m, 1 and t + N log m, as at t = inf, finite at every finite t;
elsewhere each keeps its bits.  A conversion between the clocks that
leaves the float range raises OverflowError: logistic sigma_of_t when a
finite t gives an infinite sigma, and t_of_sigma when its bracket on t
overflows.

exp_growth and exp_decay are one law, rho = e^(r t), with the signed rate
r = +beta or -beta (_exp_rate); each closed form is written once in r and
rounds to the same bits as the two per-sign forms.  sigma_of_t alone keeps
two branches: 1 - exp(-2 beta t) and expm1(2 beta t) are not the same
floating-point value.

t_of_sigma's logistic branch is one of the package's two scipy users (a
root-find); the other is analysis.threshold_integral.  Each imports scipy
where it is called, so the static and exponential laws never load it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

from .params import _check_integer, _require_finite


class LawKind(Enum):
    STATIC = "static"
    EXP_GROWTH = "exp_growth"
    EXP_DECAY = "exp_decay"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class EvolutionLaw:
    """One isotropic evolution law: rho(0)=1 in every case.

    beta is the rate (unused for STATIC), m the logistic carrying ratio
    (rho -> m as t -> inf; m>1 grows, m<1 shrinks), dimension the ambient
    spatial dimension N entering the dilution term.
    """

    kind: LawKind
    beta: float = 0.0
    m: float = 1.0
    dimension: int = 2

    def __post_init__(self) -> None:
        _check_integer("dimension", self.dimension)
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        _require_finite(self, ("beta", "m"))
        if self.kind is not LawKind.STATIC and self.beta <= 0.0:
            raise ValueError(f"{self.kind.value} requires beta > 0, got {self.beta}")
        if self.kind is LawKind.EXP_DECAY and self.beta >= 1.0 / self.dimension:
            raise ValueError(
                f"exp_decay requires beta < 1/N so 1-N*beta > 0, got beta={self.beta}"
            )
        if self.kind is LawKind.LOGISTIC:
            if self.m <= 0.0 or self.m == 1.0:
                raise ValueError(f"logistic requires m > 0 and m != 1, got m={self.m}")
            # sigma_of_t's expanded square has the terms (1 - 1/m)^2,
            # 2(1 - 1/m)/m and (1/m)^2: an overflow in the first two (the
            # second is the larger for m < 1), or an underflow in the last
            # times t = inf, makes it -inf or NaN
            a, c = 1.0 - 1.0 / self.m, 1.0 / self.m
            if math.isinf(2.0 * a * c) or c * c < sys.float_info.min:
                raise ValueError(
                    f"logistic m={self.m} is out of range: 2(1 - 1/m)/m or (1/m)^2 "
                    "leaves the normal float range, so the closed forms are not "
                    "finite; m must lie between about 1.1e-154 and 6.7e153"
                )

    @staticmethod
    def static(dimension: int = 2) -> "EvolutionLaw":
        return EvolutionLaw(LawKind.STATIC, dimension=dimension)

    @staticmethod
    def exp_growth(beta: float, dimension: int = 2) -> "EvolutionLaw":
        return EvolutionLaw(LawKind.EXP_GROWTH, beta=beta, dimension=dimension)

    @staticmethod
    def exp_decay(beta: float, dimension: int = 2) -> "EvolutionLaw":
        return EvolutionLaw(LawKind.EXP_DECAY, beta=beta, dimension=dimension)

    @staticmethod
    def logistic(beta: float, m: float, dimension: int = 2) -> "EvolutionLaw":
        return EvolutionLaw(LawKind.LOGISTIC, beta=beta, m=m, dimension=dimension)


@dataclass(frozen=True)
class CoefficientBounds:
    """Infimum/supremum of Phi and Psi over a stated sigma interval."""

    m_phi: float
    M_phi: float
    m_psi: float
    M_psi: float


def _exp_rate(law: EvolutionLaw) -> float:
    """The signed rate r of an exponential law rho = e^(r t): +beta, -beta."""
    return law.beta if law.kind is LawKind.EXP_GROWTH else -law.beta


def _require_nonnegative(name: str, value: float) -> None:
    # written so that NaN fails too; +inf passes
    if not value >= 0.0:
        raise ValueError(f"{name} must be a nonnegative number, got {value}")


def _growth(law: EvolutionLaw, t: float) -> float:
    """e^(beta t), the logistic law's growth factor: the one evaluation that
    rho, L and int L share; +inf, its limit, where math.exp overflows."""
    try:
        return math.exp(law.beta * t)
    except OverflowError:
        return math.inf


def scale_factor(law: EvolutionLaw, t: float) -> float:
    """rho(t), the isotropic scale factor; rho(0) = 1."""
    _require_nonnegative("t", t)
    k = law.kind
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.LOGISTIC:
        # rho = m, the limit, where 1 + (e^(beta t) - 1)/m leaves the float
        # range (e^(beta t) = inf, at t = inf or by overflow; e/m, for m < 1)
        e = _growth(law, t)
        den = 1.0 + (e - 1.0) / law.m
        return law.m if math.isinf(den) else e / den
    return math.exp(_exp_rate(law) * t)


def dilution_coefficient(law: EvolutionLaw, t: float) -> float:
    """L(t) = 1 + N*rho'(t)/rho(t), the volume-dilution factor."""
    _require_nonnegative("t", t)
    k, b, n = law.kind, law.beta, law.dimension
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.LOGISTIC:
        # rho' = beta*rho*(1 - rho/m), so N*rho'/rho = N*beta*(1-1/m) / (1+(e^{bt}-1)/m)
        return 1.0 + n * b * (1.0 - 1.0 / law.m) / (1.0 + (_growth(law, t) - 1.0) / law.m)
    return 1.0 + n * _exp_rate(law)


def _int_L(law: EvolutionLaw, t: float) -> float:
    """int_0^t L(eta) deta for the logistic law, in closed form."""
    b, n, m = law.beta, law.dimension, law.m
    x = 1.0 - 1.0 / m + _growth(law, t) / m
    if math.isinf(x):
        # log x = beta t - log m to within 1/e^(beta t), below rounding
        return t + n * math.log(m)
    return (1.0 + n * b) * t - n * math.log(x)


def sigma_horizon(law: EvolutionLaw) -> float:
    """Supremum of attainable sigma: 1/(2*beta) for exponential growth, else inf."""
    if law.kind is LawKind.EXP_GROWTH:
        return 1.0 / (2.0 * law.beta)
    return math.inf


def sigma_of_t(law: EvolutionLaw, t: float) -> float:
    """sigma(t) = int_0^t rho(theta)^-2 dtheta, strictly increasing, sigma(0)=0."""
    _require_nonnegative("t", t)
    k, b = law.kind, law.beta
    if k is LawKind.STATIC:
        return t
    if k is LawKind.EXP_GROWTH:
        return (1.0 - math.exp(-2.0 * b * t)) / (2.0 * b)
    if k is LawKind.EXP_DECAY:
        return (math.expm1(2.0 * b * t)) / (2.0 * b)
    if math.isinf(t):
        # the c*c*t term; the others, finite in exact arithmetic, can overflow
        # with opposite signs for a small m
        return math.inf
    # logistic: 1/rho = (1-1/m)e^{-bt} + 1/m, expand the square and integrate
    a, c = 1.0 - 1.0 / law.m, 1.0 / law.m
    sigma = (
        a * a * (1.0 - math.exp(-2.0 * b * t)) / (2.0 * b)
        + 2.0 * a * c * (1.0 - math.exp(-b * t)) / b
        + c * c * t
    )
    if math.isinf(sigma):
        raise OverflowError(f"sigma at t = {t!r} overflows a float")
    return sigma


def t_of_sigma(law: EvolutionLaw, sigma: float) -> float:
    """Inverse of sigma_of_t.  Rejects sigma outside the attainable range."""
    _require_nonnegative("sigma", sigma)
    if sigma >= sigma_horizon(law):
        raise ValueError(
            f"sigma={sigma} is at or beyond the horizon {sigma_horizon(law)} "
            f"for {law.kind.value}"
        )
    k = law.kind
    if k is LawKind.STATIC:
        return sigma
    if k is LawKind.LOGISTIC:
        if sigma == 0.0:
            return 0.0
        # bracket then solve the monotone closed form
        hi = 1.0
        while sigma_of_t(law, hi) < sigma:
            hi *= 2.0
            if math.isinf(hi):
                raise OverflowError(f"t at sigma = {sigma!r} overflows a float")
        # imported here so that `import gmshadow` does not load scipy
        from scipy.optimize import brentq

        return brentq(
            lambda t: sigma_of_t(law, t) - sigma, 0.0, hi, xtol=1e-14, rtol=8.9e-16
        )
    # sigma = (1 - e^{-2rt}) / (2r)
    r = _exp_rate(law)
    return -math.log1p(-2.0 * r * sigma) / (2.0 * r)


def reaction_coeff(law: EvolutionLaw, sigma: float, gamma: float) -> float:
    """Psi(sigma) = phi^(2(1-gamma)) * Phi^gamma = rho^2(t) * L(t)^gamma.

    The one body of all three sigma-form coefficients: gamma = 0 gives
    phi^2 and gamma = 1 gives Phi.
    """
    _require_nonnegative("sigma", sigma)
    k = law.kind
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.LOGISTIC:
        if math.isinf(sigma):
            return law.m ** 2
        t = t_of_sigma(law, sigma)
        return scale_factor(law, t) ** 2 * dilution_coefficient(law, t) ** gamma
    # only the exp_growth horizon is singular; exp_decay tends to 0 as sigma -> inf
    if law.kind is LawKind.EXP_GROWTH and sigma >= sigma_horizon(law):
        raise ValueError(
            f"sigma={sigma} at or beyond the exp_growth horizon {sigma_horizon(law)}"
        )
    return _exp_sigma_pair(law, gamma)(sigma)[1]


def _exp_sigma_pair(law: EvolutionLaw, e: float) -> Callable[[float], tuple[float, float]]:
    """sigma -> (Phi, Psi_e) = (L, L**e) / (1 - 2 r sigma), the closed form
    of an exponential law in the sigma clock (rho^2 = 1/(1 - 2 r sigma) and
    L = 1 + N r), with L**e worked out once.  The sigma is not checked: a
    caller keeps it nonnegative and short of the exp_growth horizon, as
    reaction_coeff does."""
    r = _exp_rate(law)
    L = dilution_coefficient(law, 0.0)
    Le = L**e

    def pair(sigma: float) -> tuple[float, float]:
        den = 1.0 - 2.0 * r * sigma
        return L / den, Le / den

    return pair


def phi_squared(law: EvolutionLaw, sigma: float) -> float:
    """phi(sigma)^2 = rho(t(sigma))^2, the reaction prefactor of the shadow system."""
    return reaction_coeff(law, sigma, 0.0)


def dissipation_coeff(law: EvolutionLaw, sigma: float) -> float:
    """Phi(sigma) = phi^2 + N*phi'/phi = rho^2(t) * L(t) at t = t(sigma)."""
    return reaction_coeff(law, sigma, 1.0)


def clock_coefficients(
    law: EvolutionLaw, clock: float, e: float, t_clock: bool
) -> tuple[float, float]:
    """(Phi, Psi_e) = (rho^2 L, rho^2 L^e) in the sigma clock, and its image
    (L, L^e) = (Phi, Psi_e)/rho^2 in the t clock.  e = gamma is the pair of
    the non-local equation and the Bernoulli ODE, e = 0 that of the
    inhibitor families: (Phi, phi^2) in sigma, (L, 1) in t."""
    if t_clock:
        L = dilution_coefficient(law, clock)
        return L, L**e
    return reaction_coeff(law, clock, 1.0), reaction_coeff(law, clock, e)


def _clock_pair(
    law: EvolutionLaw, e: float, t_clock: bool
) -> Callable[[float], tuple[float, float]]:
    """clock -> clock_coefficients(law, clock, e, t_clock), bit for bit, built
    once per law: fixed under the static law and, in t, under an exponential
    law (L = 1 + N r); _exp_sigma_pair in sigma under an exponential law;
    clock_coefficients on every call under the logistic law.  The clock is
    not checked: a caller keeps it nonnegative and, in sigma, short of the
    exp_growth horizon."""
    if law.kind is LawKind.LOGISTIC:
        return lambda clock: clock_coefficients(law, clock, e, t_clock)
    if law.kind is LawKind.STATIC or t_clock:
        ab = clock_coefficients(law, 0.0, e, t_clock)
        return lambda clock: ab
    return _exp_sigma_pair(law, e)


def clock_end(law: EvolutionLaw, end: float, t_clock: bool) -> float:
    """The stop of an integration to `end`: end in t; in sigma, whose horizon
    is t = inf, no later than a relative 1e-9 short of the horizon."""
    return end if t_clock else min(end, sigma_horizon(law) * (1.0 - 1e-9))


def coefficient_bounds(
    law: EvolutionLaw, gamma: float, horizon: tuple[float, float]
) -> CoefficientBounds:
    """Exact inf/sup of Phi and Psi over [sigma_lo, sigma_hi].

    Phi and Psi are monotone in sigma for every law, so endpoint values
    suffice.  A growth-law horizon touching 1/(2*beta) yields +inf suprema.
    """
    lo, hi = horizon
    if not 0.0 <= lo <= hi:
        raise ValueError(f"bad sigma interval {horizon}")
    smax = sigma_horizon(law)
    if lo >= smax:
        raise ValueError(f"interval start {lo} beyond the sigma horizon {smax}")

    def at(e, sigma):
        # only the exp_growth horizon is a singular boundary; the other laws
        # have well-defined limits as sigma -> inf
        if math.isfinite(smax) and sigma >= smax:
            return math.inf
        return reaction_coeff(law, sigma, e)

    phis = (at(1.0, lo), at(1.0, hi))
    psis = (at(gamma, lo), at(gamma, hi))
    return CoefficientBounds(
        m_phi=min(phis), M_phi=max(phis), m_psi=min(psis), M_psi=max(psis)
    )
