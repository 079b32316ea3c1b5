import math
import re

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
from gmshadow.evolution import _clock_pair, _exp_sigma_pair, clock_coefficients, clock_end

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


@pytest.mark.parametrize("m", [1e-300, 1e-154, 7e153, 1e200])
def test_logistic_rejects_an_m_whose_closed_forms_are_not_finite(m):
    with pytest.raises(ValueError, match=re.escape(f"logistic m={m!r} is out of range")):
        EvolutionLaw.logistic(0.1, m)


@pytest.mark.parametrize("m", [1.1e-154, 1e-100, 0.5, 1.5, 1e100, 6e153])
def test_logistic_m_inside_the_range_has_finite_closed_forms(m):
    law = EvolutionLaw.logistic(0.1, m)
    for t in (0.0, 1e-3, 1.0):
        assert 0.0 <= sigma_of_t(law, t) < math.inf
        assert 0.0 < scale_factor(law, t) < math.inf
        assert math.isfinite(dilution_coefficient(law, t))
    assert sigma_of_t(law, math.inf) == math.inf


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


# ------------------------------------------- nonnegative-number guards

def _psi(law, x):
    return reaction_coeff(law, x, 0.4)


GUARDED = [scale_factor, dilution_coefficient, sigma_of_t, t_of_sigma,
           phi_squared, dissipation_coeff, _psi]


@pytest.mark.parametrize("bad", [math.nan, -1.0], ids=["nan", "negative"])
@pytest.mark.parametrize("fn", GUARDED, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("law", ALL, ids=lambda l: l.kind.value)
def test_clock_and_coefficient_functions_reject_nan_and_negative(law, fn, bad):
    with pytest.raises(ValueError, match="must be a nonnegative number"):
        fn(law, bad)


@pytest.mark.parametrize("law, horizon, message", [
    (STATIC, (math.nan, 1.0), "bad sigma interval"),
    (STATIC, (0.0, math.nan), "bad sigma interval"),
    (STATIC, (-0.1, 1.0), "bad sigma interval"),
    (STATIC, (1.0, 0.5), "bad sigma interval"),
    (GROWTH, (5.0, 6.0), "interval start 5.0 beyond the sigma horizon 5.0"),
], ids=["horizon0", "horizon1", "horizon2", "horizon3", "beyond_growth_horizon"])
def test_coefficient_bounds_rejects_bad_interval(law, horizon, message):
    with pytest.raises(ValueError, match=message):
        coefficient_bounds(law, 0.5, horizon)


def test_infinite_clocks_stay_legal():
    for law in ALL:
        assert sigma_of_t(law, math.inf) == sigma_horizon(law)
    # the logistic closed forms at t = inf, for a growing and a shrinking law
    for law in (LOGISTIC, EvolutionLaw.logistic(0.8, 0.5, 1), EvolutionLaw.logistic(3.0, 0.5, 3)):
        assert dilution_coefficient(law, math.inf) == 1.0
        assert sigma_of_t(law, math.inf) == math.inf
    assert dissipation_coeff(DECAY, math.inf) == 0.0
    assert reaction_coeff(LOGISTIC, math.inf, 0.4) == 1.5**2


# ------------------------------- exponential laws, one signed-rate form

# the closed forms written out per sign, as they stood before exp_growth
# and exp_decay became one law rho = e^(r t); the merged forms must round
# to the same bits
def _growth_forms(b, n):
    return dict(
        scale=lambda t: math.exp(b * t),
        dilution=lambda t: 1.0 + n * b,
        t_of_sigma=lambda s: -math.log1p(-2.0 * b * s) / (2.0 * b),
        phi2=lambda s: 1.0 / (1.0 - 2.0 * b * s),
        Phi=lambda s: (1.0 + n * b) / (1.0 - 2.0 * b * s),
        Psi=lambda s, g: (1.0 + n * b) ** g / (1.0 - 2.0 * b * s),
    )


def _decay_forms(b, n):
    return dict(
        scale=lambda t: math.exp(-b * t),
        dilution=lambda t: 1.0 - n * b,
        t_of_sigma=lambda s: math.log1p(2.0 * b * s) / (2.0 * b),
        phi2=lambda s: 1.0 / (1.0 + 2.0 * b * s),
        Phi=lambda s: (1.0 - n * b) / (1.0 + 2.0 * b * s),
        Psi=lambda s, g: (1.0 - n * b) ** g / (1.0 + 2.0 * b * s),
    )


EXP_LAWS = [GROWTH, EvolutionLaw.exp_growth(0.37, 3), EvolutionLaw.exp_growth(1.3, 1),
            DECAY, EvolutionLaw.exp_decay(0.29, 3), EvolutionLaw.exp_decay(0.77, 1)]
GAMMAS = [0.0, 0.4, 2.0 / 3.0, 1.0, 1.7]


@pytest.mark.parametrize("law", EXP_LAWS,
                         ids=lambda l: f"{l.kind.value}-{l.beta}-N{l.dimension}")
def test_exponential_forms_match_per_sign_formulas_bit_for_bit(law):
    forms = _growth_forms if law.kind is LawKind.EXP_GROWTH else _decay_forms
    f = forms(law.beta, law.dimension)
    rng = np.random.default_rng(11)
    for t in [0.0, 0.3311, 1.0, 7.5, math.inf, *rng.uniform(0.0, 20.0, 50)]:
        t = float(t)
        assert scale_factor(law, t) == f["scale"](t)
        assert dilution_coefficient(law, t) == f["dilution"](t)
    top = min(sigma_horizon(law), 20.0)
    sigmas = [0.0, 0.3311, *rng.uniform(0.0, top, 50)]
    for s in sigmas:
        s = float(s)
        assert t_of_sigma(law, s) == f["t_of_sigma"](s)
    if math.isinf(sigma_horizon(law)):
        sigmas.append(math.inf)
    for s in sigmas:
        s = float(s)
        assert phi_squared(law, s) == f["phi2"](s)
        assert dissipation_coeff(law, s) == f["Phi"](s)
        for g in GAMMAS:
            assert reaction_coeff(law, s, g) == f["Psi"](s, g)


def _old_family_pairs(law, clock, g, t_clock):
    """The (a, b) pairs the solver's families and the Bernoulli oracle each
    wrote before clock_coefficients, keyed by the exponent e they stand for."""
    if t_clock:
        L = dilution_coefficient(law, clock)
        return {0.0: (L, 1.0),                                  # full_rd
                g: (L, L**g),                                   # nonlocal_t, oracle
                1.0: (L, L)}
    phi = dissipation_coeff(law, clock)
    return {0.0: (phi, phi_squared(law, clock)),                # shadow_tau
            g: (phi, reaction_coeff(law, clock, g)),            # nonlocal_sigma, oracle
            1.0: (reaction_coeff(law, clock, 1.0), phi)}


CLOCK_LAWS = ALL + EXP_LAWS[1:3] + EXP_LAWS[4:]


@pytest.mark.parametrize("law", CLOCK_LAWS,
                         ids=lambda l: f"{l.kind.value}-{l.beta}-N{l.dimension}")
def test_clock_coefficients_match_per_family_pairs_bit_for_bit(law):
    rng = np.random.default_rng(7)
    top = min(sigma_horizon(law), 20.0)
    clocks = {False: [0.0, 0.3311, *rng.uniform(0.0, top, 20)],
              True: [0.0, 0.3311, 7.5, *rng.uniform(0.0, 20.0, 20)]}
    for t_clock, values in clocks.items():
        for clock in map(float, values):
            for g in GAMMAS:
                for e, pair in _old_family_pairs(law, clock, g, t_clock).items():
                    assert clock_coefficients(law, clock, e, t_clock) == pair
                    assert _clock_pair(law, e, t_clock)(clock) == pair


@pytest.mark.parametrize("law", [law for law in CLOCK_LAWS if law in EXP_LAWS],
                         ids=lambda l: f"{l.kind.value}-{l.beta}-N{l.dimension}")
def test_built_once_sigma_pair_is_clock_coefficients_bit_for_bit(law):
    # the solver's per-run pair; on exp_growth up to the run's last sigma,
    # a relative 1e-9 short of the horizon
    rng = np.random.default_rng(13)
    end = clock_end(law, 20.0, False)
    sigmas = [0.0, 0.3311, end, *rng.uniform(0.0, end, 20),
              *(end * (1.0 - 10.0**-k) for k in range(1, 12))]
    for e in GAMMAS:
        pair = _exp_sigma_pair(law, e)
        for sigma in map(float, sigmas):
            assert pair(sigma) == clock_coefficients(law, sigma, e, False)


@pytest.mark.parametrize("law", CLOCK_LAWS,
                         ids=lambda l: f"{l.kind.value}-{l.beta}-N{l.dimension}")
def test_clock_end_matches_the_per_module_stops_bit_for_bit(law):
    horizon = sigma_horizon(law)
    for end in [1e-3, 0.3, 1.0, 4.9999, 5.0, 20.0, 50.0, math.inf]:
        assert clock_end(law, end, True) == end
        assert clock_end(law, end, False) == min(end, horizon * (1.0 - 1e-9))
    if math.isfinite(horizon):
        assert clock_end(law, math.inf, False) < horizon


# ---------------- logistic closed forms past the float range of e^(beta t)

LOGISTIC_LAWS = [LOGISTIC, EvolutionLaw.logistic(1.0, 1.5, 2), EvolutionLaw.logistic(0.5, 2.0),
                 EvolutionLaw.logistic(0.5, 0.5, 3), EvolutionLaw.logistic(2.0, 1e-3, 1)]


def _logistic_forms(b, n, m):
    """rho, L and int_0^t L written out with math.exp(b t) in each."""
    return dict(
        scale=lambda t: math.exp(b * t) / (1.0 + (math.exp(b * t) - 1.0) / m),
        dilution=lambda t: 1.0 + n * b * (1.0 - 1.0 / m) / (1.0 + (math.exp(b * t) - 1.0) / m),
        int_L=lambda t: (1.0 + n * b) * t - n * math.log(1.0 - 1.0 / m + math.exp(b * t) / m),
    )


@pytest.mark.parametrize("law", LOGISTIC_LAWS, ids=lambda l: f"beta{l.beta}-m{l.m}")
def test_logistic_forms_keep_their_bits_where_the_growth_factor_is_in_range(law):
    from gmshadow.evolution import _int_L

    b, m = law.beta, law.m
    f = _logistic_forms(b, law.dimension, m)
    rng = np.random.default_rng(5)
    for t in [0.0, 0.3311, 1.0, 300.0 / b, 700.0 / b, *rng.uniform(0.0, 709.0 / b, 50)]:
        t = float(t)
        # where 1 + (e^(beta t) - 1)/m is in range; beyond, these forms give
        # rho = 0 and int L = -inf for m < 1
        if math.isinf(math.exp(b * t) / m):
            continue
        assert scale_factor(law, t) == f["scale"](t)
        assert dilution_coefficient(law, t) == f["dilution"](t)
        assert _int_L(law, t) == f["int_L"](t)


@pytest.mark.parametrize("law", LOGISTIC_LAWS, ids=lambda l: f"beta{l.beta}-m{l.m}")
def test_logistic_forms_take_their_limits_past_the_growth_factor_overflow(law):
    # at beta t > 709.78, math.exp(beta t) overflows; rho -> m, L -> 1 and
    # int L -> t + N log m, finite at every finite t
    from gmshadow.evolution import _int_L

    b, n, m = law.beta, law.dimension, law.m
    for t in (710.0 / b, 1e6 / b, 1e300, math.inf):
        assert scale_factor(law, t) == m
        assert dilution_coefficient(law, t) == 1.0
        assert _int_L(law, t) == t + n * math.log(m)
    # the limits join the closed forms where the growth factor is still finite
    for t in (700.0 / b, 709.0 / b):
        assert math.isclose(scale_factor(law, t), m, rel_tol=1e-15)
        assert math.isclose(_int_L(law, t), t + n * math.log(m), rel_tol=1e-14)


def test_clock_conversions_leaving_the_float_range_raise_overflow_error():
    # sigma = c^2 t + O(1) with c = 1/m = 2 overflows at a finite t
    shrinking = EvolutionLaw.logistic(0.1, 0.5)
    with pytest.raises(OverflowError, match=re.escape("sigma at t = 1e+308 overflows a float")):
        sigma_of_t(shrinking, 1e308)
    assert sigma_of_t(shrinking, math.inf) == math.inf
    # the root-find's bracket on t doubles past the largest double
    with pytest.raises(OverflowError, match=re.escape("t at sigma = 1e+308 overflows a float")):
        t_of_sigma(EvolutionLaw.logistic(0.1, 1.5), 1e308)
    # just inside the range both directions still convert
    for law in (shrinking, EvolutionLaw.logistic(0.1, 1.5)):
        t = t_of_sigma(law, 1e307)
        assert math.isclose(sigma_of_t(law, t), 1e307, rel_tol=1e-15)
