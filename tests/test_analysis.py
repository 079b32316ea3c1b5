import math
import re

import numpy as np
import pytest

from gmshadow import (
    EvolutionLaw,
    Field,
    LawKind,
    Parameters,
    RadialGrid,
    RectGrid,
    Verdict,
    bernoulli_bound,
    bernoulli_oracle,
    coefficient_bounds,
    derive_indices,
    detect_blowup,
    fit_rate,
    locate_blowup,
    logistic_mean_threshold,
    mean_threshold,
    moment_blowup_check,
    sigma_horizon,
    threshold_integral,
)
from gmshadow import analysis
from gmshadow.evolution import clock_coefficients, clock_end
from gmshadow.initdata import spike_profile

IDX = derive_indices(Parameters(p=3, q=2, r=1, s=2))  # gamma=2/3, omega=7/3
STATIC = EvolutionLaw.static(2)
GROWTH = EvolutionLaw.exp_growth(0.1, 2)
DECAY = EvolutionLaw.exp_decay(0.1, 2)

# frozen closed-form values, cross-checked against the numeric oracle below
SIGMA_1 = 0.37919234475132
SIGMA_G = 0.33085221516015617
SIGMA_S = 0.4498871900295165
THR_G = 1.0466351393921056
THR_S = 0.9457416090031758


class SeriesStub:
    def __init__(self, sigma, sup, t=None):
        self.sigma = np.asarray(sigma, dtype=float)
        self.sup_norm = np.asarray(sup, dtype=float)
        self.t = self.sigma.copy() if t is None else np.asarray(t, dtype=float)


def test_threshold_integral_values():
    assert threshold_integral(GROWTH, IDX) == pytest.approx(0.7057770216607713, rel=1e-12)
    assert threshold_integral(DECAY, IDX) == pytest.approx(0.8079130087619564, rel=1e-12)
    assert threshold_integral(STATIC, IDX) == pytest.approx(0.75, rel=1e-12)


@pytest.mark.parametrize("p, q, r, s", [(3, 2, 1, 2), (4, 1, 1, 1), (2.5, 1.3, 0.7, 0.4)])
def test_static_threshold_integral_to_infinity_is_exact(p, q, r, s):
    idx = derive_indices(Parameters(p=p, q=q, r=r, s=s))
    assert idx.omega > 1.0
    assert threshold_integral(STATIC, idx) == 1.0 / (idx.omega - 1.0)
    # finite static horizon: (1 - e^{(1-w)S})/(w-1)
    S = 0.5
    expect = (1 - math.exp((1 - 7 / 3) * S)) / (7 / 3 - 1)
    assert threshold_integral(STATIC, IDX, S) == pytest.approx(expect, rel=1e-12)


def test_threshold_integral_rejects_subcritical_omega():
    idx = derive_indices(Parameters(p=4, q=4, r=2, s=1))  # omega = 0
    with pytest.raises(ValueError):
        threshold_integral(STATIC, idx)


def test_mean_threshold_values():
    assert mean_threshold(STATIC, IDX) == pytest.approx(1.0, rel=1e-12)
    assert mean_threshold(GROWTH, IDX) == pytest.approx(THR_G, rel=1e-12)
    assert mean_threshold(DECAY, IDX) == pytest.approx(THR_S, rel=1e-12)


def test_threshold_monotone_in_law():
    assert mean_threshold(DECAY, IDX) < mean_threshold(STATIC, IDX) < mean_threshold(GROWTH, IDX)


@pytest.mark.parametrize("law", [STATIC, DECAY, GROWTH, EvolutionLaw.logistic(0.1, 1.5, 2)],
                         ids=["static", "exp_decay", "exp_growth", "logistic"])
def test_mean_threshold_at_a_zero_horizon_is_infinite(law):
    assert threshold_integral(law, IDX, 0.0) == 0.0
    assert mean_threshold(law, IDX, 0.0) == math.inf
    assert bernoulli_bound(law, IDX, 2.0).mean_threshold == mean_threshold(law, IDX)


def test_mean_threshold_is_infinite_where_the_integral_or_the_power_leaves_float_range():
    # at sigma_max = 1e-300 the static integral rounds to 0; near omega = 1
    # a tiny nonzero integral's power overflows
    assert threshold_integral(STATIC, IDX, 1e-300) == 0.0
    assert mean_threshold(STATIC, IDX, 1e-300) == math.inf
    near_one = derive_indices(Parameters(p=2.05, q=1, r=1, s=0))
    assert 0.0 < threshold_integral(STATIC, near_one, 3e-15) < 1e-14
    assert mean_threshold(STATIC, near_one, 3e-15) == math.inf


def test_logistic_threshold():
    # beta -> 0 collapses to the static threshold 1
    assert logistic_mean_threshold(IDX, 1e-8, 1.5, 2) == pytest.approx(1.0, abs=1e-6)
    # m -> infinity at fixed beta reproduces exponential growth
    assert logistic_mean_threshold(IDX, 0.1, 1e9, 2) == pytest.approx(THR_G, rel=1e-8)
    # the logistic-growth value sits strictly between static and growth
    v = logistic_mean_threshold(IDX, 0.1, 1.5, 2)
    assert 1.0 < v < THR_G
    with pytest.raises(ValueError):
        logistic_mean_threshold(IDX, 0.1, 1.0, 2)


def test_logistic_threshold_integral_is_finite_past_the_growth_factor_overflow():
    # quad's map of [0, inf) evaluates the integrand where beta t > 709.78,
    # past the float range of e^(beta t), where int L used to overflow
    from scipy.integrate import quad

    law = EvolutionLaw.logistic(1.0, 1.5, 2)
    b, n, m, w, g = law.beta, law.dimension, law.m, IDX.omega, IDX.gamma
    def integrand(t):
        int_L = (1.0 + n * b) * t - n * math.log(1.0 - 1.0 / m + math.exp(b * t) / m)
        return clock_coefficients(law, t, g, True)[1] * math.exp((1.0 - w) * int_L)

    I = threshold_integral(law, IDX)
    assert math.isfinite(I)
    # the integrand is below 1e-400 past t = 700/beta
    assert I == pytest.approx(quad(integrand, 0.0, 700.0 / b, limit=200)[0], abs=1e-12)
    assert math.isfinite(bernoulli_bound(law, IDX, 2.0).mean_threshold)


def test_bernoulli_bound_values():
    assert bernoulli_bound(STATIC, IDX, 2.0).sigma_upper == pytest.approx(SIGMA_1, rel=1e-12)
    assert bernoulli_bound(GROWTH, IDX, 2.0).sigma_upper == pytest.approx(SIGMA_G, rel=1e-12)
    assert bernoulli_bound(DECAY, IDX, 2.0).sigma_upper == pytest.approx(SIGMA_S, rel=1e-12)


def test_bernoulli_bound_not_applicable():
    rep = bernoulli_bound(STATIC, IDX, 0.5)  # below the threshold 1
    assert not rep.applicable and rep.sigma_upper is None
    sub = derive_indices(Parameters(p=4, q=4, r=2, s=1))
    rep2 = bernoulli_bound(STATIC, sub, 2.0)  # omega <= 1
    assert not rep2.applicable and math.isnan(rep2.mean_threshold)


def test_bernoulli_oracle_fixed_point():
    res = bernoulli_oracle(STATIC, IDX, 1.0, dt=1e-3, sigma_max=2.0)
    assert res.blowup_sigma is None
    assert np.max(np.abs(res.values - 1.0)) < 1e-9


def test_bernoulli_oracle_decreasing_below_threshold():
    res = bernoulli_oracle(STATIC, IDX, 0.5, dt=1e-3, sigma_max=3.0)
    assert res.blowup_sigma is None
    assert np.all(np.diff(res.values) <= 1e-14)


@pytest.mark.parametrize(
    "law,closed",
    [(STATIC, SIGMA_1), (GROWTH, SIGMA_G), (DECAY, SIGMA_S)],
    ids=["static", "growth", "decay"],
)
def test_oracle_matches_closed_form_under_halving(law, closed):
    prev = None
    for dt in (4e-4, 2e-4):
        got = bernoulli_oracle(law, IDX, 2.0, dt=dt).blowup_sigma
        assert got == pytest.approx(closed, rel=0.01)
        if prev is not None:
            assert abs(got - prev) <= 0.01 * closed
        prev = got


def test_oracle_logistic_between_neighbours():
    law = EvolutionLaw.logistic(0.1, 1.5, 2)
    got = bernoulli_oracle(law, IDX, 2.0, dt=2e-4).blowup_sigma
    assert SIGMA_G < got < SIGMA_1


ORACLE_LAWS = [STATIC, GROWTH, DECAY, EvolutionLaw.logistic(0.5, 1.5, 2),
               EvolutionLaw.logistic(0.5, 0.5, 2)]


def _law_id(law):
    return f"{law.kind.value}-m{law.m}" if law.kind is LawKind.LOGISTIC else law.kind.value


# a decaying mean on every law, and a blow-up, whose tail reads the pair
# too, on the fixed pair (static) and the sigma-clock closed form (exp_growth)
PER_CALL_CASES = [(law, 0.5) for law in ORACLE_LAWS] + [(STATIC, 2.0), (GROWTH, 2.0)]


@pytest.mark.parametrize("law, u0_mean", PER_CALL_CASES,
                         ids=[f"{_law_id(law)}-{m}" for law, m in PER_CALL_CASES])
def test_oracle_with_its_built_once_pair_is_the_per_call_oracle_bit_for_bit(
        law, u0_mean, monkeypatch):
    run = bernoulli_oracle(law, IDX, u0_mean, dt=1e-3, sigma_max=1.0)
    assert (run.blowup_sigma is None) is (u0_mean < 1.0)
    calls = []

    def per_call_pair(law, e, t_clock):
        def pair(clock):
            calls.append(clock)
            return clock_coefficients(law, clock, e, t_clock)
        return pair

    monkeypatch.setattr(analysis, "_clock_pair", per_call_pair)
    ref = bernoulli_oracle(law, IDX, u0_mean, dt=1e-3, sigma_max=1.0)
    assert calls
    assert run.sigma.tobytes() == ref.sigma.tobytes()
    assert run.values.tobytes() == ref.values.tobytes()
    assert run.blowup_sigma == ref.blowup_sigma


OMEGA_BELOW_1 = derive_indices(Parameters(p=4, q=4, r=2, s=1))  # omega = 2/3
LOGISTIC = EvolutionLaw.logistic(0.1, 1.5, 2)


@pytest.mark.parametrize("law, idx, kw, message", [
    (STATIC, IDX, dict(dt=0.0), "dt must be positive, got 0.0"),
    (LOGISTIC, IDX, dict(dt=0.0), "dt must be positive, got 0.0"),
    (DECAY, IDX, dict(dt=-5e-4), "dt must be positive, got -0.0005"),
    (GROWTH, IDX, dict(dt=math.nan), "dt must be positive, got nan"),
    (STATIC, IDX, dict(u0_mean=math.nan),
     "u0_mean must be a finite nonnegative number, got nan"),
    (STATIC, IDX, dict(u0_mean=-1.0), "u0_mean must be a finite nonnegative number, got -1.0"),
    (DECAY, IDX, dict(u0_mean=math.inf),
     "u0_mean must be a finite nonnegative number, got inf"),
    (STATIC, IDX, dict(sigma_max=math.nan), "sigma_max must be a nonnegative number, got nan"),
    (LOGISTIC, IDX, dict(sigma_max=-1.0), "sigma_max must be a nonnegative number, got -1.0"),
    (STATIC, OMEGA_BELOW_1, dict(sigma_max=math.inf),
     "sigma_max=inf never ends the integration under static"),
    (DECAY, IDX, dict(sigma_max=math.inf), "sigma_max=inf never ends the integration under exp_decay"),
    (LOGISTIC, IDX, dict(sigma_max=math.inf),
     "sigma_max=inf never ends the integration under logistic"),
], ids=["dt_zero", "dt_zero_logistic", "dt_negative", "dt_nan", "mean_nan", "mean_negative",
        "mean_inf", "sigma_max_nan", "sigma_max_negative", "sigma_max_inf_static",
        "sigma_max_inf_decay", "sigma_max_inf_logistic"])
def test_oracle_rejects_inputs_that_hang_it_or_mislead(law, idx, kw, message, monkeypatch):
    # each is rejected before the pair is built, so before any step
    def unbuilt(*args):
        raise AssertionError("the oracle started integrating")

    monkeypatch.setattr(analysis, "_clock_pair", unbuilt)
    args = dict(u0_mean=2.0, dt=1e-3, sigma_max=1.0) | kw
    with pytest.raises(ValueError, match=re.escape(message)):
        bernoulli_oracle(law, idx, **args)


def test_oracle_takes_an_infinite_dt_a_zero_mean_and_an_infinite_sigma_max_under_growth():
    # exp_growth's sigma horizon ends an integration to sigma_max = inf
    got = bernoulli_oracle(GROWTH, IDX, 2.0, dt=math.inf, sigma_max=math.inf).blowup_sigma
    assert got == pytest.approx(SIGMA_G, rel=1e-6)
    zero = bernoulli_oracle(STATIC, IDX, 0.0, dt=1e-3, sigma_max=1.0)
    assert zero.values.tolist() == [0.0, 0.0] and zero.blowup_sigma is None


@pytest.mark.parametrize("law", ORACLE_LAWS, ids=_law_id)
def test_oracle_stops_at_sigma_max_under_every_law(law):
    # the logistic law is integrated in t, to t(sigma_max)
    res = bernoulli_oracle(law, IDX, 0.5, dt=1e-3, sigma_max=4.0)
    assert res.blowup_sigma is None
    assert res.sigma[-1] == pytest.approx(4.0, rel=1e-12)


# decaying means integrated up to the exp_growth horizon, where Phi grows
# without bound: a half-step stage F + h/2 F' there overshoots zero, and its
# F**omega is complex (omega = 7/3, 3/2) or of the wrong sign (omega = 2)
HORIZON_CASES = [(GROWTH, IDX, 0.5, 50.0)] + [
    (EvolutionLaw.exp_growth(0.37, 3), derive_indices(Parameters(*pqrs)), u0_mean, 3.0)
    for pqrs, means in (((3, 2, 1, 2), (0.25, 0.5, 1.0)), ((2, 1, 1, 1), (0.25, 0.5, 1.0, 2.0)),
                        ((3, 2, 1, 1), (0.25, 0.5)))
    for u0_mean in means
]


@pytest.mark.parametrize("law, idx, u0_mean, sigma_max", HORIZON_CASES,
                         ids=[f"beta{law.beta}-omega{idx.omega:.3g}-mean{m}"
                              for law, idx, m, _ in HORIZON_CASES])
def test_oracle_halves_a_step_whose_stage_is_negative(law, idx, u0_mean, sigma_max):
    res = bernoulli_oracle(law, idx, u0_mean, dt=1e-3, sigma_max=sigma_max)
    assert res.blowup_sigma is None
    assert res.sigma[-1] == pytest.approx(clock_end(law, sigma_max, False), rel=1e-12)
    assert res.values.dtype == np.float64
    assert np.all(res.values > 0.0) and np.all(np.diff(res.values) <= 0.0)
    assert res.values[-1] < 1e-13


@pytest.mark.parametrize("call, message", [
    (lambda: threshold_integral(STATIC, IDX, math.nan),
     "sigma_max must be a nonnegative number, got nan"),
    (lambda: threshold_integral(GROWTH, IDX, math.nan),
     "sigma_max must be a nonnegative number, got nan"),
    (lambda: threshold_integral(DECAY, IDX, -1.0),
     "sigma_max must be a nonnegative number, got -1.0"),
    (lambda: threshold_integral(LOGISTIC, IDX, -1.0),
     "sigma_max must be a nonnegative number, got -1.0"),
    (lambda: mean_threshold(STATIC, IDX, -1.0),
     "sigma_max must be a nonnegative number, got -1.0"),
    (lambda: mean_threshold(GROWTH, IDX, math.nan),
     "sigma_max must be a nonnegative number, got nan"),
    (lambda: bernoulli_bound(STATIC, IDX, math.nan),
     "u0_mean must be a finite nonnegative number, got nan"),
    (lambda: bernoulli_bound(GROWTH, IDX, -1.0),
     "u0_mean must be a finite nonnegative number, got -1.0"),
    (lambda: bernoulli_bound(DECAY, IDX, math.inf),
     "u0_mean must be a finite nonnegative number, got inf"),
    (lambda: bernoulli_bound(STATIC, OMEGA_BELOW_1, math.nan),
     "u0_mean must be a finite nonnegative number, got nan"),
], ids=["integral_static_nan", "integral_growth_nan", "integral_decay_negative",
        "integral_logistic_negative", "threshold_static_negative", "threshold_growth_nan",
        "bound_mean_nan", "bound_mean_negative", "bound_mean_inf", "bound_omega_below_1_nan"])
def test_closed_form_bounds_reject_what_the_oracle_rejects(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_moment_check_constant_fields():
    g = RectGrid(9, 9)
    p = Parameters(p=3, q=2, r=1, s=2)
    bounds = coefficient_bounds(STATIC, IDX.gamma, (0.0, math.inf))
    above = moment_blowup_check(Field(g, np.full(g.shape, 2.0)), IDX, bounds, p)
    assert above.applicable and above.condition1
    at_one = moment_blowup_check(Field(g, np.ones(g.shape)), IDX, bounds, p)
    assert not at_one.condition1  # strict inequality fails at the boundary case
    below = moment_blowup_check(Field(g, np.full(g.shape, 0.5)), IDX, bounds, p)
    assert not below.condition1


def test_moment_check_spike_second_condition():
    # steep, large-amplitude spike: w(0) = mean(u^(r+1-p)) < 1 with pi >= 2
    g = RadialGrid(3, 513)
    u0 = Field(g, 3.0 * spike_profile(g.R, 0.5, 5.0))
    p = Parameters(p=5, q=1, r=1, s=1)
    idx = derive_indices(p)
    bounds = coefficient_bounds(STATIC, idx.gamma, (0.0, math.inf))
    res = moment_blowup_check(u0, idx, bounds, p)
    assert res.applicable
    assert res.w0 < 1.0 and res.condition2


def test_detect_blowup_synthetic_power():
    sig = np.linspace(0.0, 0.49, 200)
    sup = (0.5 - sig) ** (-1.0 / 3.0)
    rep = detect_blowup(SeriesStub(sig, sup), p=4.0, threshold=3.0)
    assert rep.verdict is Verdict.BLOW_UP
    assert rep.extrapolated_sigma == pytest.approx(0.5, abs=1e-6)


def test_detect_blowup_constant_is_bounded():
    rep = detect_blowup(SeriesStub(np.linspace(0, 1, 50), np.full(50, 2.0)), 3.0, 1e6)
    assert rep.verdict is Verdict.BOUNDED


def test_detect_blowup_quench():
    sig = np.linspace(0.0, 5.0, 100)
    rep = detect_blowup(SeriesStub(sig, 2.0 * np.exp(-3.0 * sig)), 3.0, 1e6, quench_floor=1e-3)
    assert rep.verdict is Verdict.QUENCH
    assert rep.event_time_sigma == pytest.approx(sig[np.nonzero(2 * np.exp(-3 * sig) <= 1e-3)[0][0]])


@pytest.mark.parametrize("kw, name", [
    (dict(threshold=math.nan), "threshold"),
    (dict(threshold=1e6, quench_floor=math.nan), "quench_floor"),
], ids=["threshold", "quench_floor"])
def test_detect_blowup_rejects_a_nan_threshold(kw, name):
    # a NaN compares false with every sample, which read Bounded for any series
    sig = np.linspace(0.0, 0.49, 200)
    series = SeriesStub(sig, (0.5 - sig) ** (-1.0 / 3.0))
    with pytest.raises(ValueError, match=f"^{name} must be a number, got nan$"):
        detect_blowup(series, 4.0, **kw)


def test_detect_blowup_too_few_samples():
    sig = np.array([0.0, 0.1, 0.2, 0.3, 0.45])
    sup = (0.5 - sig) ** (-1.0 / 3.0)
    rep = detect_blowup(SeriesStub(sig, sup), 4.0, threshold=2.0)
    assert rep.verdict is Verdict.BLOW_UP
    assert rep.extrapolated_sigma is None  # < 5 pre-threshold samples


@pytest.mark.parametrize("expo", [-1.0 / 3.0, -1.0])
def test_fit_rate_synthetic(expo):
    sig = np.linspace(0.0, 0.495, 400)
    sup = (0.5 - sig) ** expo
    got = fit_rate(SeriesStub(sig, sup), 0.5, window=(0.0, np.inf))
    assert got == pytest.approx(expo, abs=0.01)


def test_fit_rate_degenerate():
    assert fit_rate(SeriesStub(np.linspace(0, 1, 50), np.full(50, 2.0)), 2.0) is None


def test_fit_rate_is_none_when_every_usable_sample_has_one_sigma():
    # four samples inside the window, all at one sigma: log(sigma* - sigma)
    # has no spread to fit against
    assert fit_rate(SeriesStub(np.full(4, 0.1), [200.0, 300.0, 400.0, 500.0]), 0.5) is None


def test_linearized_root_widens_past_a_window_of_equal_sigma():
    # the last 8 samples share one sigma, so the fit is taken over 32;
    # sup^-2 = 0.5 - sigma is a line with its root at 0.5
    sig = np.concatenate([np.linspace(0.0, 0.3, 24), np.full(8, 0.31)])
    root, _ = analysis._linearized_root(sig, (0.5 - sig) ** -0.5, 3.0)
    assert root == pytest.approx(0.5, rel=1e-12)


def test_linearized_root_skips_a_fit_whose_root_is_behind_the_last_sample():
    # sup^-2 = (1 - sigma)^6 is convex and falls, so each window's line
    # crosses zero before its last sample, and no root is reported
    sig = np.linspace(0.0, 0.999, 20)
    assert analysis._linearized_root(sig, (1.0 - sig) ** -3.0, 3.0) is None


def test_locate_blowup_peak_and_envelope():
    g = RadialGrid(3, 513)
    R = g.R.copy()
    R[0] = R[1]  # avoid the 0^0 pole when synthesising
    u = R ** (-0.5)
    loc = locate_blowup(Field(g, u))
    assert loc.node_index == 0
    assert loc.R_peak == 0.0
    assert loc.envelope_exponent == pytest.approx(0.5, abs=0.05)


def test_locate_blowup_requires_radial():
    with pytest.raises(TypeError):
        locate_blowup(Field(RectGrid(5, 5), np.ones((5, 5))))


# the exponential-law closed forms written out per sign, as they stood
# before exp_growth and exp_decay became one signed-rate law; the merged
# forms must round to the same bits
def _per_sign_threshold_integral(law, idx, sigma_max):
    w, g, b, n = idx.omega, idx.gamma, law.beta, law.dimension
    if law.kind is LawKind.EXP_GROWTH:
        a = 1.0 + n * b
        full = a ** (g - 1.0) / (w - 1.0)
        if sigma_max >= 1.0 / (2.0 * b):
            return full
        return full * (1.0 - (1.0 - 2.0 * b * sigma_max) ** (a * (w - 1.0) / (2.0 * b)))
    c = 1.0 - n * b
    full = c ** (g - 1.0) / (w - 1.0)
    if math.isinf(sigma_max):
        return full
    return full * (1.0 - (1.0 + 2.0 * b * sigma_max) ** (-c * (w - 1.0) / (2.0 * b)))


def _per_sign_sigma_upper(law, idx, u0_mean):
    w, g, b, n = idx.omega, idx.gamma, law.beta, law.dimension
    z = u0_mean ** (1.0 - w)
    if law.kind is LawKind.EXP_GROWTH:
        a = 1.0 + n * b
        return (1.0 - (1.0 - a ** (1.0 - g) * z) ** (2.0 * b / ((w - 1.0) * a))) / (2.0 * b)
    c = 1.0 - n * b
    return ((1.0 - c ** (1.0 - g) * z) ** (2.0 * b / ((1.0 - w) * c)) - 1.0) / (2.0 * b)


EXP_LAWS = [GROWTH, EvolutionLaw.exp_growth(0.37, 3), EvolutionLaw.exp_growth(1.3, 1),
            DECAY, EvolutionLaw.exp_decay(0.29, 3), EvolutionLaw.exp_decay(0.77, 1)]
SUPERCRITICAL = [IDX, derive_indices(Parameters(p=4, q=1, r=1, s=2)),
                 derive_indices(Parameters(p=2.5, q=1, r=1.5, s=0.5)),
                 derive_indices(Parameters(p=5, q=3, r=2, s=3))]


@pytest.mark.parametrize("law", EXP_LAWS,
                         ids=lambda l: f"{l.kind.value}-{l.beta}-N{l.dimension}")
def test_exponential_bounds_match_per_sign_formulas_bit_for_bit(law):
    top = min(sigma_horizon(law), 20.0)
    sigmas = [0.3311, *np.random.default_rng(12).uniform(0.0, top, 20), math.inf]
    for idx in SUPERCRITICAL:
        for s in sigmas:
            s = float(s)
            assert threshold_integral(law, idx, s) == _per_sign_threshold_integral(law, idx, s)
        checked = 0
        for u0 in (1.1, 1.5, 2.0, 3.7, 10.0, 40.0):
            rep = bernoulli_bound(law, idx, u0)
            if rep.applicable:
                assert rep.sigma_upper == _per_sign_sigma_upper(law, idx, u0)
                checked += 1
        assert checked >= 2
