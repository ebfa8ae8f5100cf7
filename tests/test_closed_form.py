import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from controlled_options import (
    ControlBounds,
    MarketParams,
    NumericalFailure,
    ParameterError,
    PayoffSpec,
    builtin_policies,
    hypothesis_report,
    switch_time,
    tail_strategy_price,
)
from controlled_options.closed_form import _adaptive_gl

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)


def _spec(d1, f_kind="call", f_strike=100.0, **kw):
    """The budget contract the closed form prices: rate h = f_kind, identity g, [0, d1]."""
    base = dict(f_kind=f_kind, f_strike=f_strike if f_kind != "identity" else None,
                payment_timing="terminal_compounded", g_kind="identity",
                weight_mode="adapted_fixed_cumulative", bounds=ControlBounds(0.0, d1))
    base.update(kw)
    return PayoffSpec(**base)


def _tail(spec, params=PARAMS):
    return next(p for p in builtin_policies(spec, params) if p.name == "tail")


def _oracle_price(s0, K, r, sigma, T, L):
    """Independent route: scipy CDF + scipy adaptive quadrature."""

    def undisc_call(t):
        if t == 0.0:
            return max(s0 - K, 0.0)
        st = sigma * math.sqrt(t)
        d1 = (math.log(s0 / K) + (r + 0.5 * sigma**2) * t) / st
        return s0 * math.exp(r * t) * norm.cdf(d1) - K * norm.cdf(d1 - st)

    integrand = lambda t: math.exp(r * (T - t)) * undisc_call(t)
    lo = max(T - 1.0 / L, 0.0)
    val, _ = quad(integrand, lo, T, epsabs=1e-12, epsrel=1e-12)
    return math.exp(-r * T) * L * val


def test_switch_time():
    pol = _tail(_spec(2.0))
    assert switch_time(_spec(2.0), PARAMS) == 0.5
    assert float(pol.evaluate(0.49, 0.0, 0.0, 100.0)) == 0.0
    assert float(pol.evaluate(0.5, 0.0, 0.0, 100.0)) == 2.0


def test_boundary_cap_means_always_on():
    pol = _tail(_spec(1.0))
    # L*T = 1 sits on the boundary: the window is the whole horizon, so u = L from t = 0
    assert float(pol.evaluate(0.0, 0.0, 0.0, 100.0)) == 1.0


def test_weight_integral_is_one():
    for cap in (1.25, 2.0, 5.0):
        pol = _tail(_spec(cap, f_kind="identity"))
        ts = np.linspace(0.0, 1.0, 400_001)
        u = np.array([float(pol.evaluate(t, 0.0, 0.0, 100.0)) for t in ts[:: 40_000]])
        # analytic: L * (1/L); the sampled check is a sanity net
        assert cap * (1.0 / cap) == pytest.approx(1.0)
        assert u.max() == cap and u.min() == 0.0


def test_price_matches_independent_quadrature():
    est = tail_strategy_price(_spec(2.0), PARAMS)
    # frozen from the oracle below
    assert est.value == pytest.approx(6.868449472311021, rel=1e-9)
    assert est.value == pytest.approx(_oracle_price(100, 100, 0.0, 0.2, 1.0, 2.0), rel=1e-8)


def test_price_with_rate_matches_oracle():
    params = MarketParams(s0=100.0, r=0.06, sigma=0.25, t_horizon=1.5)
    est = tail_strategy_price(_spec(1.5, f_strike=110.0), params)
    assert est.value == pytest.approx(_oracle_price(100, 110, 0.06, 0.25, 1.5, 1.5), rel=1e-8)


def test_identity_rate_prices_at_spot():
    for r in (0.0, 0.07):
        params = MarketParams(s0=123.4, r=r, sigma=0.3, t_horizon=1.0)
        assert tail_strategy_price(_spec(2.0, f_kind="identity"), params).value == pytest.approx(123.4, rel=1e-9)


def test_deterministic_limit_is_intrinsic():
    params = MarketParams(s0=110.0, r=0.0, sigma=1e-12, t_horizon=1.0)
    assert tail_strategy_price(_spec(2.0), params).value == pytest.approx(10.0, abs=1e-8)


def test_put_with_positive_rate_refused():
    params = MarketParams(s0=100.0, r=0.05, sigma=0.2, t_horizon=1.0)
    put = _spec(2.0, f_kind="put")
    assert not hypothesis_report(put, params)["applicable"]
    with pytest.raises(ParameterError) as err:
        tail_strategy_price(put, params)
    assert err.value.field == "payoff.f_kind"
    # at r = 0 the zero-rate hypothesis covers the put
    assert hypothesis_report(put, PARAMS)["applicable"]
    assert tail_strategy_price(put, PARAMS).value > 0.0


def test_tail_dominates_uniform_for_convex_payoff():
    # the uniform weight u = 1/T is the deferral window of cap L = 1/T
    uniform = _oracle_price(100, 100, 0.0, 0.2, 1.0, 1.0)
    assert tail_strategy_price(_spec(2.0), PARAMS).value > uniform


@settings(max_examples=60, deadline=None)
@given(f_kind=st.sampled_from(["call", "put"]), s0=st.floats(1.0, 1000.0),
       moneyness=st.floats(0.5, 2.0), sigma=st.floats(0.01, 1.0),
       t_horizon=st.floats(0.1, 10.0), d1_t=st.floats(1.01, 20.0))
# far out of the money, where E*[h] is subnormal: the tail priced -5e-324
# against 0.0, and 0.0 against 5e-324
@example(f_kind="call", s0=40.0, moneyness=1.6328125, sigma=0.01, t_horizon=1.640625, d1_t=2.0)
@example(f_kind="call", s0=118.0, moneyness=1.6328125, sigma=0.01, t_horizon=1.640625, d1_t=2.0)
def test_tail_dominates_uniform_property(f_kind, s0, moneyness, sigma, t_horizon, d1_t):
    # at r = 0, E*[h(S(t))] is non-decreasing in t for convex h, so the last
    # 1/d1 of the horizon pays at least the uniform weight d1 = 1/T, whose
    # window is the whole horizon; the slack is the quadrature tolerance
    params = MarketParams(s0=s0, r=0.0, sigma=sigma, t_horizon=t_horizon)
    strike = s0 * moneyness
    tail = tail_strategy_price(_spec(d1_t / t_horizon, f_kind, strike), params)
    uniform = tail_strategy_price(_spec(1.0 / t_horizon, f_kind, strike), params)
    assert uniform.meta["degenerate"] and uniform.meta["window"][0] == 0.0
    assert tail.value >= uniform.value * (1.0 - 1e-7)


def test_price_nondecreasing_in_cap_at_zero_rate():
    vals = [
        tail_strategy_price(_spec(c), PARAMS).value
        for c in (1.2, 2.0, 4.0, 8.0)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_degenerate_cap_prices_whole_horizon():
    # d1 T = 0.8 < 1: the budget cannot be spent, so the window is the whole horizon
    est = tail_strategy_price(_spec(0.8), PARAMS)
    assert est.meta["degenerate"]
    ref, _ = quad(
        lambda t: _undisc_call_ref(100.0, 100.0, 0.0, 0.2, t), 0.0, 1.0, epsabs=1e-12
    )
    assert est.value == pytest.approx(0.8 * ref, rel=1e-7)


def _undisc_call_ref(s0, K, r, sigma, t):
    if t == 0.0:
        return max(s0 - K, 0.0)
    st = sigma * math.sqrt(t)
    d1 = (math.log(s0 / K) + (r + 0.5 * sigma**2) * t) / st
    return s0 * math.exp(r * t) * norm.cdf(d1) - K * norm.cdf(d1 - st)


@settings(max_examples=40, deadline=None)
@given(t_horizon=st.floats(0.25, 4.0), r=st.sampled_from([0.0, 0.05]), floor_reach=st.floats(0.0, 1.0),
       budget_reach=st.floats(1.0, 8.0))
@example(t_horizon=1.0, r=0.0, floor_reach=1.0, budget_reach=2.0)   # u = 1 is forced: 5.31392
@example(t_horizon=1.0, r=0.0, floor_reach=0.5, budget_reach=2.0)   # 6.28759
@example(t_horizon=1.0, r=0.0, floor_reach=1.0, budget_reach=1.0)   # d0 = d1
@example(t_horizon=1.0, r=0.0, floor_reach=0.99, budget_reach=1.0)  # d1 T = 1: d1 throughout
def test_floor_contract_matches_the_floor_plus_deferral_quadrature(t_horizon, r, floor_reach, budget_reach):
    # every admissible weight pays the floor d0 and places the excess budget
    # W = 1 - d0 T at rates up to d1 - d0, deferred to the window [s, T]
    T, d0, d1 = t_horizon, floor_reach / t_horizon, budget_reach / t_horizon
    params = MarketParams(s0=100.0, r=r, sigma=0.2, t_horizon=T)
    excess = 1.0 - d0 * T
    s = 0.0 if d1 * T <= 1.0 else T if excess <= 0.0 else T - excess / (d1 - d0)
    rate = lambda t: math.exp(r * (T - t)) * _undisc_call_ref(100.0, 100.0, r, 0.2, t)
    whole, _ = quad(rate, 0.0, T, epsabs=1e-13, epsrel=1e-12)
    window, _ = quad(rate, s, T, epsabs=1e-13, epsrel=1e-12)
    want = math.exp(-r * T) * (d0 * whole + (d1 - d0) * window)
    est = tail_strategy_price(_spec(d1, bounds=ControlBounds(d0, d1)), params)
    assert est.value == pytest.approx(want, rel=1e-8, abs=0.0)
    assert switch_time(_spec(d1, bounds=ControlBounds(d0, d1)), params) == pytest.approx(s, rel=1e-12, abs=1e-15)


def test_zero_width_window_refused():
    # at T = 1e300, T - 1/L rounds to T: the window would integrate to 0.0
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1e300)
    with pytest.raises(ParameterError) as err:
        tail_strategy_price(_spec(2.0), params)
    assert err.value.field == "market.t_horizon"


@pytest.mark.parametrize("overrides,rate,field", [
    ({"weight_mode": "normalized"}, 0.0, "payoff.weight_mode"),
    ({"g_kind": "cap", "g_cap": 8.0}, 0.0, "payoff.g_kind"),
    ({"payment_timing": "spot"}, 0.05, "payoff.payment_timing"),
    ({"bounds": ControlBounds(0.0, 0.0)}, 0.0, "payoff.d1"),
], ids=["normalized", "capped-g", "spot-timing", "d1-zero"])
def test_refuses_contracts_it_does_not_price(overrides, rate, field):
    # the normalized weight has no deferral formula: pricing it as the budget
    # contract returned the budget price 6.8684 with "applicable": true
    params = MarketParams(s0=100.0, r=rate, sigma=0.2, t_horizon=1.0)
    with pytest.raises(ParameterError) as err:
        tail_strategy_price(_spec(2.0, **overrides), params)
    assert err.value.field == field


def test_non_finite_panel_fails_at_once():
    calls = []

    def poisoned(t):
        calls.append(t)
        return math.nan if t > 0.5 else 1.0

    with pytest.raises(NumericalFailure):
        _adaptive_gl(poisoned, 0.0, 1.0)
    assert len(calls) == 60  # one whole panel and its two halves, no bisection


def test_unresolvable_integrand_fails_at_the_panel_cap():
    # deterministic noise at every scale never passes the 1e-8 refinement
    # test, so the bisection would head for 2^30 panels
    calls = []

    def noisy(t):
        calls.append(t)
        return 1.0 + 1e-3 * math.sin(1e12 * t)

    start = time.perf_counter()
    with pytest.raises(NumericalFailure, match="within 3000 panels"):
        _adaptive_gl(noisy, 0.0, 1.0)
    assert time.perf_counter() - start < 1.0
    assert len(calls) <= 3000 * 20
