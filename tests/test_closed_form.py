import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from controlled_options import (
    MarketParams,
    NumericalFailure,
    ParameterError,
    TailStrategyConfig,
    hypothesis_report,
    tail_strategy,
    tail_strategy_price,
)
from controlled_options.closed_form import _adaptive_gl

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)


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
    cfg = TailStrategyConfig(params=PARAMS, cap=2.0, h_kind="call", strike=100.0)
    pol = tail_strategy(cfg)
    assert pol.meta["switch_time"] == pytest.approx(0.5)
    assert float(pol.evaluate(0.49, 0.0, 0.0, 100.0)) == 0.0
    assert float(pol.evaluate(0.5, 0.0, 0.0, 100.0)) == 2.0


def test_boundary_cap_means_always_on():
    cfg = TailStrategyConfig(params=PARAMS, cap=1.0, h_kind="call", strike=100.0)
    pol = tail_strategy(cfg)
    assert pol.meta["degenerate"]  # L*T = 1 sits on the boundary
    assert float(pol.evaluate(0.0, 0.0, 0.0, 100.0)) == 1.0


def test_weight_integral_is_one():
    for cap in (1.25, 2.0, 5.0):
        cfg = TailStrategyConfig(params=PARAMS, cap=cap, h_kind="identity")
        pol = tail_strategy(cfg)
        ts = np.linspace(0.0, 1.0, 400_001)
        u = np.array([float(pol.evaluate(t, 0.0, 0.0, 100.0)) for t in ts[:: 40_000]])
        # analytic: L * (1/L); the sampled check is a sanity net
        assert cap * (1.0 / cap) == pytest.approx(1.0)
        assert u.max() == cap and u.min() == 0.0


def test_price_matches_independent_quadrature():
    cfg = TailStrategyConfig(params=PARAMS, cap=2.0, h_kind="call", strike=100.0)
    est = tail_strategy_price(cfg)
    # frozen from the oracle below
    assert est.value == pytest.approx(6.868449472311021, rel=1e-9)
    assert est.value == pytest.approx(_oracle_price(100, 100, 0.0, 0.2, 1.0, 2.0), rel=1e-8)


def test_price_with_rate_matches_oracle():
    params = MarketParams(s0=100.0, r=0.06, sigma=0.25, t_horizon=1.5)
    cfg = TailStrategyConfig(params=params, cap=1.5, h_kind="call", strike=110.0)
    est = tail_strategy_price(cfg)
    assert est.value == pytest.approx(_oracle_price(100, 110, 0.06, 0.25, 1.5, 1.5), rel=1e-8)


def test_identity_rate_prices_at_spot():
    for r in (0.0, 0.07):
        params = MarketParams(s0=123.4, r=r, sigma=0.3, t_horizon=1.0)
        cfg = TailStrategyConfig(params=params, cap=2.0, h_kind="identity")
        assert tail_strategy_price(cfg).value == pytest.approx(123.4, rel=1e-9)


def test_deterministic_limit_is_intrinsic():
    params = MarketParams(s0=110.0, r=0.0, sigma=1e-12, t_horizon=1.0)
    cfg = TailStrategyConfig(params=params, cap=2.0, h_kind="call", strike=100.0)
    assert tail_strategy_price(cfg).value == pytest.approx(10.0, abs=1e-8)


def test_put_with_positive_rate_refused():
    params = MarketParams(s0=100.0, r=0.05, sigma=0.2, t_horizon=1.0)
    cfg = TailStrategyConfig(params=params, cap=2.0, h_kind="put", strike=100.0)
    with pytest.raises(ParameterError):
        tail_strategy_price(cfg)
    # at r = 0 the zero-rate hypothesis covers the put
    cfg0 = TailStrategyConfig(params=PARAMS, cap=2.0, h_kind="put", strike=100.0)
    assert hypothesis_report(cfg0)["applicable"]
    assert tail_strategy_price(cfg0).value > 0.0


def test_tail_dominates_uniform_for_convex_payoff():
    cfg = TailStrategyConfig(params=PARAMS, cap=2.0, h_kind="call", strike=100.0)
    # the uniform weight u = 1/T is the deferral window of cap L = 1/T
    uniform = _oracle_price(100, 100, 0.0, 0.2, 1.0, 1.0)
    assert tail_strategy_price(cfg).value > uniform


def test_price_nondecreasing_in_cap_at_zero_rate():
    vals = [
        tail_strategy_price(
            TailStrategyConfig(params=PARAMS, cap=c, h_kind="call", strike=100.0)
        ).value
        for c in (1.2, 2.0, 4.0, 8.0)
    ]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_degenerate_cap_prices_whole_horizon():
    cfg = TailStrategyConfig(params=PARAMS, cap=0.8, h_kind="call", strike=100.0)
    est = tail_strategy_price(cfg)
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


def test_zero_width_window_refused():
    # at T = 1e300, T - 1/L rounds to T: the window would integrate to 0.0
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1e300)
    with pytest.raises(ParameterError) as err:
        TailStrategyConfig(params=params, cap=2.0, h_kind="call", strike=100.0)
    assert err.value.field == "t_horizon"


def test_non_finite_panel_fails_at_once():
    calls = []

    def poisoned(t):
        calls.append(t)
        return math.nan if t > 0.5 else 1.0

    with pytest.raises(NumericalFailure):
        _adaptive_gl(poisoned, 0.0, 1.0)
    assert len(calls) == 60  # one whole panel and its two halves, no bisection
