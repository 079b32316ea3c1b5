"""Isotropic domain-evolution laws and the induced time-dependent coefficients.

The domain evolves as x = rho(t)*xi with rho(0) = 1.  On the reference
domain the equations pick up the dilution factor L(t) = 1 + N*rho'/rho and,
after the clock change sigma(t) = int_0^t rho(theta)^-2 dtheta, the
sigma-form coefficients

    Phi(sigma) = phi^2 + N*phi'/phi = rho^2 * L,
    Psi(sigma) = phi^(2(1-gamma)) * Phi^gamma = rho^2 * L^gamma,

where phi(sigma) = rho(t(sigma)).  Everything below uses per-law closed
forms; nothing differentiates rho numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from scipy.optimize import brentq


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
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        for name in ("beta", "m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {name}={value}")
        if self.kind is not LawKind.STATIC and self.beta <= 0.0:
            raise ValueError(f"{self.kind.value} requires beta > 0, got {self.beta}")
        if self.kind is LawKind.EXP_DECAY and self.beta >= 1.0 / self.dimension:
            raise ValueError(
                f"exp_decay requires beta < 1/N so 1-N*beta > 0, got beta={self.beta}"
            )
        if self.kind is LawKind.LOGISTIC and (self.m <= 0.0 or self.m == 1.0):
            raise ValueError(f"logistic requires m > 0 and m != 1, got m={self.m}")

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


def scale_factor(law: EvolutionLaw, t: float) -> float:
    """rho(t), the isotropic scale factor; rho(0) = 1."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    k, b = law.kind, law.beta
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.EXP_GROWTH:
        return math.exp(b * t)
    if k is LawKind.EXP_DECAY:
        return math.exp(-b * t)
    if math.isinf(t):
        return law.m
    e = math.exp(b * t)
    return e / (1.0 + (e - 1.0) / law.m)


def dilution_coefficient(law: EvolutionLaw, t: float) -> float:
    """L(t) = 1 + N*rho'(t)/rho(t), the volume-dilution factor."""
    k, b, n = law.kind, law.beta, law.dimension
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.EXP_GROWTH:
        return 1.0 + n * b
    if k is LawKind.EXP_DECAY:
        return 1.0 - n * b
    if math.isinf(t):
        return 1.0
    # logistic: rho' = beta*rho*(1 - rho/m), so N*rho'/rho = N*beta*(1-1/m) / (1+(e^{bt}-1)/m)
    return 1.0 + n * b * (1.0 - 1.0 / law.m) / (1.0 + (math.exp(b * t) - 1.0) / law.m)


def sigma_horizon(law: EvolutionLaw) -> float:
    """Supremum of attainable sigma: 1/(2*beta) for exponential growth, else inf."""
    if law.kind is LawKind.EXP_GROWTH:
        return 1.0 / (2.0 * law.beta)
    return math.inf


def sigma_of_t(law: EvolutionLaw, t: float) -> float:
    """sigma(t) = int_0^t rho(theta)^-2 dtheta, strictly increasing, sigma(0)=0."""
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    k, b = law.kind, law.beta
    if k is LawKind.STATIC:
        return t
    if k is LawKind.EXP_GROWTH:
        return (1.0 - math.exp(-2.0 * b * t)) / (2.0 * b)
    if k is LawKind.EXP_DECAY:
        return (math.expm1(2.0 * b * t)) / (2.0 * b)
    # logistic: 1/rho = (1-1/m)e^{-bt} + 1/m, expand the square and integrate
    if math.isinf(t):
        return math.inf
    a, c = 1.0 - 1.0 / law.m, 1.0 / law.m
    return (
        a * a * (1.0 - math.exp(-2.0 * b * t)) / (2.0 * b)
        + 2.0 * a * c * (1.0 - math.exp(-b * t)) / b
        + c * c * t
    )


def t_of_sigma(law: EvolutionLaw, sigma: float) -> float:
    """Inverse of sigma_of_t.  Rejects sigma outside the attainable range."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be nonnegative, got {sigma}")
    if sigma >= sigma_horizon(law):
        raise ValueError(
            f"sigma={sigma} is at or beyond the horizon {sigma_horizon(law)} "
            f"for {law.kind.value}"
        )
    k, b = law.kind, law.beta
    if k is LawKind.STATIC:
        return sigma
    if k is LawKind.EXP_GROWTH:
        return -math.log1p(-2.0 * b * sigma) / (2.0 * b)
    if k is LawKind.EXP_DECAY:
        return math.log1p(2.0 * b * sigma) / (2.0 * b)
    if sigma == 0.0:
        return 0.0
    # logistic: bracket then solve the monotone closed form
    hi = 1.0
    while sigma_of_t(law, hi) < sigma:
        hi *= 2.0
    return brentq(
        lambda t: sigma_of_t(law, t) - sigma, 0.0, hi, xtol=1e-14, rtol=8.9e-16
    )


def phi_squared(law: EvolutionLaw, sigma: float) -> float:
    """phi(sigma)^2 = rho(t(sigma))^2, the reaction prefactor of the shadow system."""
    k, b = law.kind, law.beta
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.EXP_GROWTH:
        _check_horizon(law, sigma)
        return 1.0 / (1.0 - 2.0 * b * sigma)
    if k is LawKind.EXP_DECAY:
        return 1.0 / (1.0 + 2.0 * b * sigma)
    if math.isinf(sigma):
        return law.m ** 2
    return scale_factor(law, t_of_sigma(law, sigma)) ** 2


def dissipation_coeff(law: EvolutionLaw, sigma: float) -> float:
    """Phi(sigma) = phi^2 + N*phi'/phi = rho^2(t) * L(t) at t = t(sigma)."""
    k, b, n = law.kind, law.beta, law.dimension
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.EXP_GROWTH:
        _check_horizon(law, sigma)
        return (1.0 + n * b) / (1.0 - 2.0 * b * sigma)
    if k is LawKind.EXP_DECAY:
        return (1.0 - n * b) / (1.0 + 2.0 * b * sigma)
    if math.isinf(sigma):
        return law.m ** 2
    t = t_of_sigma(law, sigma)
    return scale_factor(law, t) ** 2 * dilution_coefficient(law, t)


def reaction_coeff(law: EvolutionLaw, sigma: float, gamma: float) -> float:
    """Psi(sigma) = phi^(2(1-gamma)) * Phi^gamma = rho^2(t) * L(t)^gamma."""
    k, b, n = law.kind, law.beta, law.dimension
    if k is LawKind.STATIC:
        return 1.0
    if k is LawKind.EXP_GROWTH:
        _check_horizon(law, sigma)
        return (1.0 + n * b) ** gamma / (1.0 - 2.0 * b * sigma)
    if k is LawKind.EXP_DECAY:
        return (1.0 - n * b) ** gamma / (1.0 + 2.0 * b * sigma)
    if math.isinf(sigma):
        return law.m ** 2
    t = t_of_sigma(law, sigma)
    return scale_factor(law, t) ** 2 * dilution_coefficient(law, t) ** gamma


def coefficient_bounds(
    law: EvolutionLaw, gamma: float, horizon: tuple[float, float]
) -> CoefficientBounds:
    """Exact inf/sup of Phi and Psi over [sigma_lo, sigma_hi].

    Phi and Psi are monotone in sigma for every law, so endpoint values
    suffice.  A growth-law horizon touching 1/(2*beta) yields +inf suprema.
    """
    lo, hi = horizon
    if lo < 0.0 or hi < lo:
        raise ValueError(f"bad sigma interval {horizon}")
    smax = sigma_horizon(law)
    if lo >= smax:
        raise ValueError(f"interval start {lo} beyond the sigma horizon {smax}")

    def at(f, sigma):
        # only the exp_growth horizon is a singular boundary; the other laws
        # have well-defined limits as sigma -> inf
        if math.isfinite(smax) and sigma >= smax:
            return math.inf
        return f(sigma)

    phis = (at(lambda s: dissipation_coeff(law, s), lo),
            at(lambda s: dissipation_coeff(law, s), hi))
    psis = (at(lambda s: reaction_coeff(law, s, gamma), lo),
            at(lambda s: reaction_coeff(law, s, gamma), hi))
    return CoefficientBounds(
        m_phi=min(phis), M_phi=max(phis), m_psi=min(psis), M_psi=max(psis)
    )


def _check_horizon(law: EvolutionLaw, sigma: float) -> None:
    if sigma >= sigma_horizon(law):
        raise ValueError(
            f"sigma={sigma} at or beyond the exp_growth horizon {sigma_horizon(law)}"
        )
