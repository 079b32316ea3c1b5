import math

import numpy as np
import pytest
from scipy.integrate import quad

from gmshadow import (
    EvolutionLaw,
    LawKind,
    coefficient_bounds,
    dilution_coefficient,
    dissipation_coeff,
    phi_squared,
    reaction_coeff,
    scale_factor,
    sigma_horizon,
    sigma_of_t,
    t_of_sigma,
)

STATIC = EvolutionLaw.static(2)
GROWTH = EvolutionLaw.exp_growth(0.1, 2)
DECAY = EvolutionLaw.exp_decay(0.1, 2)
LOGISTIC = EvolutionLaw.logistic(0.1, 1.5, 2)
ALL = [STATIC, GROWTH, DECAY, LOGISTIC]


def test_law_validation():
    with pytest.raises(ValueError):
        EvolutionLaw.exp_decay(0.6, 2)  # needs beta < 1/N
    with pytest.raises(ValueError):
        EvolutionLaw.logistic(0.1, 1.0, 2)
    with pytest.raises(ValueError):
        EvolutionLaw.exp_growth(0.0, 2)


@pytest.mark.parametrize("make, field", [
    (lambda: EvolutionLaw.exp_growth(math.inf), "beta"),
    (lambda: EvolutionLaw.exp_decay(math.nan), "beta"),
    (lambda: EvolutionLaw.logistic(1.0, math.nan), "m"),
    (lambda: EvolutionLaw.logistic(math.inf, 1.5), "beta"),
    (lambda: EvolutionLaw(LawKind.STATIC, beta=math.nan), "beta"),
], ids=["growth_inf", "decay_nan", "logistic_m_nan", "logistic_beta_inf", "static_nan"])
def test_law_rejects_non_finite(make, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make()


def test_scale_factor_examples():
    assert scale_factor(STATIC, 7.0) == 1.0
    assert scale_factor(GROWTH, 0.0) == 1.0
    assert scale_factor(LOGISTIC, math.inf) == 1.5
    assert scale_factor(LOGISTIC, 200.0) == pytest.approx(1.5, rel=1e-8)
    for law in ALL:
        assert scale_factor(law, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_dilution_examples():
    assert dilution_coefficient(GROWTH, 3.3) == pytest.approx(1.2)
    assert dilution_coefficient(STATIC, 0.7) == 1.0
    assert dilution_coefficient(LOGISTIC, 0.0) == pytest.approx(1 + 0.2 * (1 - 1 / 1.5))
    assert dilution_coefficient(DECAY, 1.0) == pytest.approx(0.8)


def test_sigma_of_t_examples():
    assert sigma_of_t(STATIC, 2.0) == 2.0
    assert sigma_of_t(GROWTH, 1e9) == pytest.approx(5.0)  # 1/(2 beta)
    assert sigma_of_t(DECAY, 0.0) == 0.0


def test_t_of_sigma_examples():
    assert t_of_sigma(STATIC, 3.0) == 3.0
    assert t_of_sigma(GROWTH, 0.3311) == pytest.approx(0.3425720726858171, rel=1e-12)
    with pytest.raises(ValueError):
        t_of_sigma(GROWTH, 5.0)  # the sigma horizon 1/(2 beta)
    with pytest.raises(ValueError):
        t_of_sigma(STATIC, -0.1)


@pytest.mark.parametrize("law", ALL, ids=lambda l: l.kind.value)
def test_clock_roundtrip(law):
    rng = np.random.default_rng(42)
    for t in rng.uniform(0.0, 8.0, size=100):
        s = sigma_of_t(law, float(t))
        assert s < sigma_horizon(law)
        back = t_of_sigma(law, s)
        assert back == pytest.approx(t, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("law", ALL, ids=lambda l: l.kind.value)
def test_sigma_strictly_increasing(law):
    ts = np.linspace(0.0, 6.0, 200)
    sig = [sigma_of_t(law, float(t)) for t in ts]
    assert np.all(np.diff(sig) > 0.0)


def test_logistic_sigma_matches_quadrature():
    for m in (1.5, 0.5):
        law = EvolutionLaw.logistic(0.1, m, 2)
        for t in (0.3, 1.7, 6.0):
            ref, _ = quad(lambda th: scale_factor(law, th) ** -2, 0.0, t)
            assert sigma_of_t(law, t) == pytest.approx(ref, rel=1e-8)


def test_static_identities():
    for s in (0.0, 0.5, 3.0):
        assert dissipation_coeff(STATIC, s) == 1.0
        assert reaction_coeff(STATIC, s, 0.37) == 1.0
        assert phi_squared(STATIC, s) == 1.0


def test_phi_examples():
    assert dissipation_coeff(GROWTH, 0.0) == pytest.approx(1.2)
    assert dissipation_coeff(DECAY, 0.0) == pytest.approx(0.8)
    with pytest.raises(ValueError):
        dissipation_coeff(GROWTH, 5.0)


def test_psi_examples():
    assert reaction_coeff(DECAY, 0.0, 2.0 / 3.0) == pytest.approx(0.8 ** (2.0 / 3.0))
    # gamma = 1 collapses Psi to Phi for every law
    for law in ALL:
        s = 0.3
        assert reaction_coeff(law, s, 1.0) == pytest.approx(dissipation_coeff(law, s), rel=1e-12)


def test_decay_coefficients_bounded_by_one():
    g = 2.0 / 3.0
    for s in np.linspace(0.01, 30.0, 50):
        phi = dissipation_coeff(DECAY, float(s))
        psi = reaction_coeff(DECAY, float(s), g)
        assert 0.0 < phi < 1.0
        assert 0.0 < psi < 1.0
        # decreasing-phi regime: Phi < phi^2 <= 1
        assert phi < phi_squared(DECAY, float(s)) <= 1.0


def test_sigma_form_consistency_via_t():
    # Phi = rho^2 * L and Psi = rho^2 * L^gamma at t(sigma), for every law
    g = 0.4
    for law in ALL:
        for s in (0.1, 0.9, 2.3):
            if s >= sigma_horizon(law):
                continue
            t = t_of_sigma(law, s)
            r2 = scale_factor(law, t) ** 2
            L = dilution_coefficient(law, t)
            assert dissipation_coeff(law, s) == pytest.approx(r2 * L, rel=1e-10)
            assert reaction_coeff(law, s, g) == pytest.approx(r2 * L**g, rel=1e-10)


def test_coefficient_bounds_examples():
    b = coefficient_bounds(DECAY, 2.0 / 3.0, (0.0, 5.0))
    assert b.M_phi == pytest.approx(0.8)
    assert b.m_phi == pytest.approx(0.8 / 2.0)
    bs = coefficient_bounds(STATIC, 0.5, (0.0, math.inf))
    assert (bs.m_phi, bs.M_phi, bs.m_psi, bs.M_psi) == (1.0, 1.0, 1.0, 1.0)
    bg = coefficient_bounds(GROWTH, 2.0 / 3.0, (0.0, 2.5))
    assert bg.m_phi == pytest.approx(1.2)
    assert bg.M_phi == pytest.approx(2.4)
    # horizon-touching growth interval has infinite suprema
    binf = coefficient_bounds(GROWTH, 2.0 / 3.0, (0.0, 5.0))
    assert math.isinf(binf.M_phi) and math.isinf(binf.M_psi)
    assert binf.m_phi == pytest.approx(1.2)


def test_coefficient_bounds_decay_infinite_horizon():
    b = coefficient_bounds(DECAY, 0.5, (0.0, math.inf))
    assert b.m_phi == 0.0 and b.M_phi == pytest.approx(0.8)


def test_logistic_sigma_matches_richardson_refined_trapezoid():
    # independent oracle: trapezoid of rho^-2 with Richardson extrapolation
    law = EvolutionLaw.logistic(0.1, 1.5, 2)
    t_end = 2.0
    vals = []
    for n in (2000, 4000):
        ts = np.linspace(0.0, t_end, n + 1)
        integrand = np.array([scale_factor(law, float(t)) ** -2 for t in ts])
        vals.append(np.trapezoid(integrand, ts))
    richardson = (4.0 * vals[1] - vals[0]) / 3.0
    assert sigma_of_t(law, t_end) == pytest.approx(richardson, rel=1e-8)
