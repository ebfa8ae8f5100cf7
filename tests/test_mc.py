import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from controlled_options import (
    ControlBounds,
    MarketParams,
    ParameterError,
    PayoffSpec,
    Policy,
    StateGrid,
    bs_expected_payoff,
    builtin_policies,
    evaluate_policy,
    ladder_price,
    refinement_delta,
    tail_strategy_price,
)
from controlled_options import mc
from controlled_options.hjb import TableRule
from controlled_options.market import _block_stream
from controlled_options.mc import (CHUNK_ROWS, DRAW_ROWS, PAIR_BLOCK, _RESIDUAL_FLOOR, _chunk_interval,
                                   _control_mean)
from controlled_options.payoffs import DEGENERATE_WEIGHT, budget_interval, eval_f, eval_g

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)


def _spec(**kw):
    base = dict(f_kind="identity", g_kind="identity",
                weight_mode="adapted_fixed_cumulative", bounds=ControlBounds(0.0, 2.0))
    base.update(kw)
    return PayoffSpec(**base)


def _policies_by_name(spec, params):
    return {p.name: p for p in builtin_policies(spec, params)}


def test_martingale_identity_for_three_policies():
    # adapted weights integrating to one spend a martingale: the price is spot
    spec = _spec()
    pols = _policies_by_name(spec, PARAMS)
    for name in ("uniform", "tail", "threshold[+0.0]"):
        est = evaluate_policy(pols[name], spec, PARAMS, n_paths=60_000, n_steps=200, seed=31)
        assert abs(est.value - 100.0) <= 3.0 * est.stderr, (name, est.value, est.stderr)
        assert est.meta["forced_ramp_warnings"] == 0


# drawn so that the tail window T - 1/d1 and the unit budget fall on whole
# steps: with n_tail steps after the switch, T = 0.5 * n_steps / n_tail
@settings(max_examples=10, deadline=None)
@given(s0=st.floats(1e-2, 1e4), r=st.floats(0.0, 0.2), n_tail=st.integers(10, 40),
       vol_reach=st.floats(0.05, 1.0))
def test_martingale_identity_for_a_drawn_market(s0, r, n_tail, vol_reach):
    # sigma sqrt(T) = vol_reach <= 1 keeps the sample stderr itself reliable
    n_steps = 40
    t_horizon = 0.5 * n_steps / n_tail
    params = MarketParams(s0=s0, r=r, sigma=vol_reach / math.sqrt(t_horizon), t_horizon=t_horizon)
    spec = _spec(payment_timing="terminal_compounded")
    pols = _policies_by_name(spec, params)
    for name in ("uniform", "tail", "threshold[+0.0]"):
        est = evaluate_policy(pols[name], spec, params, n_paths=8_000, n_steps=n_steps, seed=31)
        assert abs(est.value - s0) <= 5.0 * est.stderr, (name, est.value, est.stderr)
        assert est.meta["forced_ramp_warnings"] == 0, name


def test_seed_determinism():
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["tail"]
    a = evaluate_policy(pol, spec, PARAMS, 20_000, 100, seed=7)
    b = evaluate_policy(pol, spec, PARAMS, 20_000, 100, seed=7)
    assert a.value == b.value and a.stderr == b.stderr


def test_singleton_control_matches_direct_evaluation():
    # r > 0 with compounded payments, so the rate depends on the step's time
    params = MarketParams(s0=100.0, r=0.03, sigma=0.2, t_horizon=1.0)
    t_horizon = 1.0
    n_steps = 128
    n_rows = 4096
    # a call on the payments, struck inside their range, so that the payoff
    # P = (C - 5)^+ is not the control C itself
    spec = _spec(f_kind="call", f_strike=100.0, g_kind="call", g_strike=5.0,
                 payment_timing="terminal_compounded", bounds=ControlBounds(1.0, 1.0))
    pol = Policy("const", lambda t, x, y, s: np.full(np.shape(s), 1.0))
    est = evaluate_policy(pol, spec, params, n_paths=2 * n_rows, n_steps=n_steps,
                          seed=13, antithetic=True)

    # independent straight-loop evaluation on the same substream
    dt = t_horizon / n_steps
    times = [i * dt for i in range(n_steps)] + [t_horizon]
    drift = (params.r - 0.5 * params.sigma**2) * dt
    vol = params.sigma * math.sqrt(dt)
    rate = lambda s, t: np.maximum(s - 100.0, 0.0) * math.exp(params.r * (t_horizon - t))
    z = _block_stream(13, 0).standard_normal((PAIR_BLOCK, n_steps))[:n_rows]
    acc = []
    for sign in (1.0, -1.0):
        s = np.full(n_rows, 100.0)
        x = np.zeros(n_rows)
        for i in range(n_steps):
            f_now = rate(s, times[i])
            s = s * np.exp(drift + vol * (sign * z[:, i]))
            x = x + 1.0 * 0.5 * (f_now + rate(s, times[i + 1])) * dt
        acc.append(x)
    paid = 0.5 * (acc[0] + acc[1])
    p = math.exp(-params.r * t_horizon) * 0.5 * (np.maximum(acc[0] - 5.0, 0.0)
                                                 + np.maximum(acc[1] - 5.0, 0.0))
    # with u = 1 the payments are the control, whose exact mean is built
    # here from the Black-Scholes expectations; their plain mean lies near it
    mean_rate = [bs_expected_payoff(params, "call", t, 100.0) * math.exp(params.r * (t_horizon - t))
                 for t in times]
    expected = math.fsum(0.5 * dt * (a + b) for a, b in zip(mean_rate, mean_rate[1:]))
    assert abs(float(np.mean(paid)) - expected) <= 3.0 * float(np.std(paid, ddof=1)) / math.sqrt(n_rows)
    # the control-variate estimate, and the residual's stderr on n - 2
    # degrees of freedom, since beta is fitted on the same pairs
    beta = np.cov(p, paid)[0, 1] / np.var(paid, ddof=1)
    resid = p - beta * paid
    stderr = math.sqrt(float(np.sum((resid - np.mean(resid)) ** 2)) / (n_rows - 2) / n_rows)
    assert est.value == pytest.approx(float(np.mean(p) - beta * (np.mean(paid) - expected)), abs=1e-10)
    assert est.meta["control_variate"]["beta"] == pytest.approx(beta, rel=1e-9)
    assert est.stderr == pytest.approx(stderr, rel=1e-9)


def test_tail_policy_reproduces_quadrature_price():
    spec = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded")
    target = tail_strategy_price(spec, PARAMS).value
    tail = _policies_by_name(spec, PARAMS)["tail"]
    est = evaluate_policy(tail, spec, PARAMS, 200_000, 400, seed=5)
    assert abs(est.value - target) <= 3.0 * est.stderr


def test_control_variate_estimates_average_to_the_tail_price():
    # twenty seeds: beta is fitted on the same paths, and its bias, if any,
    # would show in their mean against the mean's own standard error
    spec = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded")
    target = tail_strategy_price(spec, PARAMS).value
    tail = _policies_by_name(spec, PARAMS)["tail"]
    ests = [evaluate_policy(tail, spec, PARAMS, 20_000, 100, seed=seed) for seed in range(20)]
    mean = math.fsum(e.value for e in ests) / len(ests)
    stderr = math.sqrt(math.fsum(e.stderr**2 for e in ests)) / len(ests)
    assert abs(mean - target) <= 3.0 * stderr
    assert all(e.meta["control_variate"]["variance_ratio"] < 0.2 for e in ests)


# the spot barely moves, so each path pays d1 s0 e^{rt} over the tail
# window [T - 1/d1, T] and the trapezoid's error is plain quadrature error
@settings(max_examples=15, deadline=None)
@given(r=st.floats(0.1, 1.0), d1=st.sampled_from([2.0, 4.0]), n_steps=st.sampled_from([8, 16, 32]))
def test_tail_step_bias_shrinks_fourfold_per_halving(r, d1, n_steps):
    params = MarketParams(s0=1.0, r=r, sigma=1e-12, t_horizon=1.0)
    spec = _spec(f_kind="identity", bounds=ControlBounds(0.0, d1))
    tail = _policies_by_name(spec, params)["tail"]
    exact = math.exp(-r) * d1 * (math.exp(r) - math.exp(r * (1.0 - 1.0 / d1))) / r
    errs = [evaluate_policy(tail, spec, params, 4, n, seed=3).value - exact
            for n in (n_steps, 2 * n_steps, 4 * n_steps)]
    for coarse, fine in zip(errs, errs[1:]):
        assert 3.8 <= coarse / fine <= 4.2, errs  # a left-endpoint sum gives 2


def _uniform_price(lam):
    params = MarketParams(s0=100.0 * lam, r=0.0, sigma=0.2, t_horizon=1.0)
    spec = _spec(f_kind="call", f_strike=100.0 * lam, payment_timing="terminal_compounded")
    return evaluate_policy(_policies_by_name(spec, params)["uniform"], spec, params,
                           n_paths=2_000, n_steps=50, seed=17)



# s0 = f_strike = 1e300 used to exit 2 (the summed squares overflowed to inf),
# and 1e-300 reported a stderr 1e285 times the price (they underflowed to 0)
@settings(max_examples=20, deadline=None)
@given(lam=st.floats(-302.0, 298.0).map(lambda e: 10.0**e))
@example(lam=1e298)
@example(lam=1e-302)
def test_price_and_stderr_scale_with_s0(lam):
    # the uniform weight ignores the spot, so scaling the spot and the strike
    # scales every payoff, the price and its standard error
    est, unit = _uniform_price(lam), _uniform_price(1.0)
    assert est.value / lam == pytest.approx(unit.value, rel=1e-10, abs=0.0)
    assert est.stderr / lam == pytest.approx(unit.stderr, rel=1e-10, abs=0.0)


def test_step_refinement_stability():
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["tail"]
    a = evaluate_policy(pol, spec, PARAMS, 100_000, 200, seed=2)
    b = evaluate_policy(pol, spec, PARAMS, 100_000, 400, seed=2)
    assert abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr) + 0.02


def test_normalized_zero_policy_hits_terminal_branch_exactly():
    spec = _spec(weight_mode="normalized", f_kind="call", f_strike=100.0)
    zero = Policy("zero", lambda t, x, y, s: np.zeros(np.shape(s)))
    a = evaluate_policy(zero, spec, PARAMS, 40_000, 64, seed=21)

    # independent straight-loop terminal payoff on the same substream, with
    # the trapezoid of the rate along each path as the control
    n_rows, n_steps = 20_000, 64
    dt = PARAMS.t_horizon / n_steps
    drift = (PARAMS.r - 0.5 * PARAMS.sigma**2) * dt
    vol = PARAMS.sigma * math.sqrt(dt)
    z = _block_stream(21, 0).standard_normal((n_rows, n_steps))
    ends, paid = [], []
    for sign in (1.0, -1.0):
        s = np.full(n_rows, 100.0)
        c = np.zeros(n_rows)
        for i in range(n_steps):
            f_now = np.maximum(s - 100.0, 0.0)
            s = s * np.exp(drift + vol * (sign * z[:, i]))
            c = c + 0.5 * (f_now + np.maximum(s - 100.0, 0.0)) * dt
        ends.append(np.maximum(s - 100.0, 0.0))
        paid.append(c)
    p, c = 0.5 * (ends[0] + ends[1]), 0.5 * (paid[0] + paid[1])
    times = [i * dt for i in range(n_steps)] + [PARAMS.t_horizon]
    mu_c = math.fsum(0.5 * (bs_expected_payoff(PARAMS, "call", t0, 100.0)
                            + bs_expected_payoff(PARAMS, "call", t1, 100.0)) * dt
                     for t0, t1 in zip(times, times[1:]))
    beta = np.cov(p, c)[0, 1] / np.var(c, ddof=1)
    direct = float(np.mean(p) - beta * (np.mean(c) - mu_c))
    assert abs(a.value - direct) <= 1e-12
    assert a.meta["control_variate"]["beta"] == pytest.approx(beta, rel=1e-9)


def test_pinned_values_across_two_blocks():
    # frozen values: any change to the path stream or its block layout moves
    # them; 140k paths fill two antithetic blocks (three plain ones)
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["threshold[+0.0]"]
    assert 140_000 > 2 * PAIR_BLOCK
    anti = evaluate_policy(pol, spec, PARAMS, 140_000, 16, seed=77)
    assert anti.value == pytest.approx(5.655891914833519, rel=1e-12)
    assert anti.stderr == pytest.approx(0.006730396129033116, rel=1e-9)
    plain = evaluate_policy(pol, spec, PARAMS, 140_000, 16, seed=77, antithetic=False)
    assert plain.value == pytest.approx(5.650697873790692, rel=1e-12)
    assert plain.stderr == pytest.approx(0.006796866230904577, rel=1e-9)


def test_builtin_policy_structure():
    spec = _spec(f_kind="call", f_strike=100.0)
    pols = _policies_by_name(spec, PARAMS)
    assert {"uniform", "tail", "floor"}.issubset(pols.keys())
    # uniform weight integrates to exactly one
    assert float(pols["uniform"].evaluate(0.3, 0.0, 0.0, 100.0)) * 1.0 == pytest.approx(1.0)
    # threshold policies are bang-bang before projection
    for name, pol in pols.items():
        if name.startswith("threshold"):
            u = pol.evaluate(0.25, 0.0, 0.0, np.array([60.0, 100.0, 180.0]))
            assert set(np.unique(u)).issubset({0.0, 2.0})
    # tail lays the deferral over the floor: d0 before the switch
    # 1 - 0.75 / 1.75 and d1 from it on; a forced weight has no tail
    lifted = _spec(bounds=ControlBounds(0.25, 2.0))
    tail = _policies_by_name(lifted, PARAMS)["tail"]
    assert [tail.evaluate(t, 0.0, 0.0, 100.0) for t in (0.0, 0.57, 0.58, 1.0)] == [0.25, 0.25, 2.0, 2.0]
    assert "tail" not in _policies_by_name(_spec(bounds=ControlBounds(1.0, 1.0)), PARAMS)


# a policy that ignores the budget entirely: seeded uniform controls in
# [-1, d1 + 1], and the y each path has spent when it is asked
@settings(max_examples=40, deadline=None)
@given(t_horizon=st.floats(0.25, 4.0), floor_reach=st.floats(0.0, 1.0),
       budget_reach=st.floats(1.0, 10.0), n_steps=st.integers(2, 60),
       seed=st.integers(0, 2**32 - 1))
@example(t_horizon=1.0, floor_reach=0.5, budget_reach=2.0, n_steps=60, seed=3)
def test_budget_projection_forces_exact_budget(t_horizon, floor_reach, budget_reach, n_steps, seed):
    # every projected payment lies in [d0, d1] and every path spends int u dt = 1
    d0, d1 = floor_reach / t_horizon, budget_reach / t_horizon
    rng = np.random.default_rng(seed)
    seen = []

    def wild(t, x, y, s):
        seen.append(np.array(y))
        return rng.uniform(-1.0, d1 + 1.0, np.shape(s))

    # on a spot that barely moves f = S = 1, so each path's payoff is its y(T)
    params = MarketParams(s0=1.0, r=0.0, sigma=1e-12, t_horizon=t_horizon)
    spec = _spec(bounds=ControlBounds(d0, d1))
    pol = Policy("wild", wild)
    est = evaluate_policy(pol, spec, params, n_paths=64, n_steps=n_steps, seed=7)
    assert est.meta["forced_ramp_warnings"] == 0
    dt = t_horizon / n_steps
    spent = np.vstack(seen + [np.ones_like(seen[0])])  # y(T) = 1 is the claim
    u = np.diff(spent, axis=0) / dt
    assert np.all(u >= d0 - 1e-12) and np.all(u <= d1 + 1e-12)
    # the mean payoff is 1 and no path strays from it
    assert abs(est.value - 1.0) <= 1e-9 and est.stderr <= 1e-9


def test_floor_contract_policies_price_below_the_grid_without_warnings():
    # AC-2 with d0 = 0.5: a path that pays d1 early must still be able to pay
    # d0 on every step after, so no path leaves [d0, d1], and a policy's price
    # is a lower bound on the grid's
    spec = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded",
                 bounds=ControlBounds(0.5, 2.0))
    grid_price, rungs = ladder_price(PARAMS, spec)
    delta_grid = refinement_delta(PARAMS, spec, rungs[-1])["delta_grid"]
    for pol in builtin_policies(spec, PARAMS):
        est = evaluate_policy(pol, spec, PARAMS, 40_000, 250, seed=7)
        assert est.meta["forced_ramp_warnings"] == 0, pol.name
        assert est.value <= grid_price.value + delta_grid + 3.0 * est.stderr, (pol.name, est.value)


def test_tail_switch_between_steps_still_spends_the_budget():
    # AC-2 on 7 steps: T - 1/d1 = 1/2 falls between 3/7 and 4/7; paying 0 at
    # 3/7 and d1 from 4/7 on would end every path at y = 6/7 with a warning
    spec = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded")
    tail = _policies_by_name(spec, PARAMS)["tail"]
    est = evaluate_policy(tail, spec, PARAMS, n_paths=2_000, n_steps=7, seed=5)
    assert est.meta["forced_ramp_warnings"] == 0
    # the projection pays the shortfall 1 - d1 * 3/7 in the step before the switch
    schedule = Policy("schedule", lambda t, x, y, s: np.full(np.shape(s), [0, 0, 0, 1, 2, 2, 2][round(7 * t)]))
    direct = evaluate_policy(schedule, spec, PARAMS, n_paths=2_000, n_steps=7, seed=5)
    assert direct.meta["forced_ramp_warnings"] == 0
    assert est.value == pytest.approx(direct.value, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(n_steps=st.integers(2, 40), budget_reach=st.floats(1.0, 10.0, exclude_min=True),
       t_horizon=st.floats(0.25, 4.0))
def test_tail_spends_the_budget_on_any_step_grid(n_steps, budget_reach, t_horizon):
    # on a spot that barely moves f = S = 1 throughout, so the price is the
    # spent budget y(T); the tail's u depends on t alone, so every path has it
    params = MarketParams(s0=1.0, r=0.0, sigma=1e-12, t_horizon=t_horizon)
    spec = _spec(f_kind="identity", bounds=ControlBounds(0.0, budget_reach / t_horizon))
    tail = _policies_by_name(spec, params)["tail"]
    est = evaluate_policy(tail, spec, params, n_paths=4, n_steps=n_steps, seed=3)
    assert est.meta["forced_ramp_warnings"] == 0
    assert abs(est.value - 1.0) <= 1e-9


def test_antithetic_reduces_stderr_for_monotone_payoff():
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["uniform"]
    anti = evaluate_policy(pol, spec, PARAMS, 40_000, 100, seed=9, antithetic=True)
    plain = evaluate_policy(pol, spec, PARAMS, 40_000, 100, seed=9, antithetic=False)
    assert anti.stderr < plain.stderr


def test_estimates_carry_positive_stderr_and_meta():
    spec = _spec()
    pol = _policies_by_name(spec, PARAMS)["uniform"]
    est = evaluate_policy(pol, spec, PARAMS, 10_000, 50, seed=1)
    assert est.stderr > 0.0
    assert est.method == "monte_carlo"
    assert est.meta["n_paths"] == 10_000
    assert est.meta["seed"] == 1
    assert set(est.meta["control_variate"]) == {"beta", "variance_ratio"}


def test_uniform_weight_on_the_spot_prices_as_the_control_mean():
    # AC-1's uniform case: with u = 1 and identity f the payoff P is the
    # control C path by path (up to the rounding of the last steps' clip),
    # so the estimate is E[C] and the residual is held at its floor
    spec = _spec()
    est = evaluate_policy(_policies_by_name(spec, PARAMS)["uniform"], spec, PARAMS, 20_000, 250, seed=101)
    mu_c = _control_mean(spec, PARAMS, [i * (1.0 / 250) for i in range(250)] + [1.0])
    assert est.meta["control_variate"]["variance_ratio"] == _RESIDUAL_FLOOR
    assert abs(est.value - mu_c) <= est.stderr <= 1e-9 * abs(mu_c)


FALLBACK_CASES = {
    # a spot that barely moves: C varies by its rounding only, while the
    # threshold policy's payoff jumps with it
    "still_spot": (MarketParams(s0=100.0, r=0.0, sigma=1e-12, t_horizon=1.0), _spec(), 2_000),
    # a rate that never pays: C = 0 on every path
    "zero_rate": (PARAMS, _spec(weight_mode="normalized", f_kind="call", f_strike=1000.0), 2_000),
    # one antithetic pair: one observation has no variance
    "one_pair": (PARAMS, _spec(f_kind="call", f_strike=100.0), 2),
    # two pairs: a line through two points fits them exactly and would
    # leave the residual no degree of freedom
    "two_pairs": (PARAMS, _spec(f_kind="call", f_strike=100.0), 4),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_control_that_cannot_be_resolved_keeps_the_plain_mean(case):
    params, spec, n_paths = FALLBACK_CASES[case]
    pol = _policies_by_name(spec, params)["threshold[+0.0]"]
    est = evaluate_policy(pol, spec, params, n_paths, 16, seed=5)
    value, stderr, _, control = _full_block_loop(pol, spec, params, n_paths, 16, 5, True)
    assert control == {"beta": 0.0, "variance_ratio": 1.0}
    assert est.meta["control_variate"] == control
    assert (est.value, est.stderr) == (value, stderr)


@pytest.mark.parametrize("bounds", [(0.0, 2.0), (0.5, 2.0), (0.25, 1.0 - 5e-10)])
@pytest.mark.parametrize("rows", ["equal", "random", "spent", "full", "nan", "close"])
def test_chunk_interval_is_the_row_interval(rows, bounds):
    # the two scalars, where the chunk pins them, are the row interval's
    # values on every row, and so is the flag count
    d0, d1 = bounds
    rng = np.random.default_rng(12)
    y = {"equal": np.full(64, 0.37), "random": rng.uniform(0.0, 1.0, 64),
         "spent": np.zeros(64), "full": np.ones(64),
         "nan": np.where(np.arange(64) == 5, np.nan, 0.25),
         "close": 0.5 + np.arange(64) * 2.0**-53}[rows]
    n_steps = 10
    dt = 1.0 / n_steps
    out = tuple(np.empty(64) for _ in range(3)) + (np.empty(64, dtype=bool),)
    for i in range(n_steps):
        left = (n_steps - i - 1) * dt
        want_lo, want_hi, want_bad = budget_interval(y, dt, left, d0, d1)
        lo, hi, bad = _chunk_interval(y, dt, left, d0, d1, out)
        assert np.array_equal(np.broadcast_to(lo, y.shape), want_lo, equal_nan=True)
        assert np.array_equal(np.broadcast_to(hi, y.shape), want_hi, equal_nan=True)
        assert bad == want_bad
        if rows in ("equal", "spent", "full"):
            assert isinstance(lo, float) and isinstance(hi, float)


def _full_block_loop(policy, spec, params, n_paths, n_steps, seed, antithetic):
    """(value, stderr, forced_ramp_warnings, control_variate) from one draw
    per block and z[:, i] per step, with trapezoid payments and the payment
    integral at u = 1 as the control."""
    T = params.t_horizon
    dt = T / n_steps
    drift = (params.r - 0.5 * params.sigma**2) * dt
    vol = params.sigma * math.sqrt(dt)
    budget_mode = spec.weight_mode == "adapted_fixed_cumulative"
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    signs = (1.0, -1.0) if antithetic else (1.0,)
    n_rows = (n_paths + 1) // 2 if antithetic else n_paths
    disc = math.exp(-params.r * T)
    times = [i * dt for i in range(n_steps)] + [T]
    sum_w = sum_c = sum_d = sum_e = sum_d2 = sum_e2 = sum_de = 0.0
    warnings_count = 0
    for b, start in enumerate(range(0, n_rows, PAIR_BLOCK)):
        rows = min(PAIR_BLOCK, n_rows - start)
        z = _block_stream(seed, b).standard_normal((rows, n_steps))
        payoffs, controls = [], []
        for sign in signs:
            s = np.full(rows, params.s0)
            x = np.zeros(rows)
            y = np.zeros(rows)
            c = np.zeros(rows)
            f_now = eval_f(spec, params, s, 0.0)
            for i in range(n_steps):
                u = np.broadcast_to(np.asarray(policy.evaluate(times[i], x, y, s), dtype=float), s.shape)
                if budget_mode:
                    lo, hi, bad = budget_interval(y, dt, (n_steps - i - 1) * dt, d0, d1)
                    warnings_count += bad
                else:
                    lo, hi = d0, d1
                u = np.minimum(np.maximum(u, lo), hi)
                s = s * np.exp(drift + vol * (sign * z[:, i]))
                f_next = eval_f(spec, params, s, times[i + 1])
                y = y + u * dt
                pay = (f_now + f_next) * (0.5 * dt)
                c = c + pay
                x = x + u * pay
                f_now = f_next
            if budget_mode:
                payoffs.append(eval_g(spec, x))
            else:
                payoffs.append(eval_g(spec, np.where(
                    y >= DEGENERATE_WEIGHT, x / np.where(y == 0.0, 1.0, y), f_now)))
            controls.append(c)
        w = disc * (0.5 * (payoffs[0] + payoffs[1]) if antithetic else payoffs[0])
        cv = 0.5 * (controls[0] + controls[1]) if antithetic else controls[0]
        if b == 0:
            shift, scale = float(np.mean(w)), float(np.max(np.abs(w))) or 1.0
            shift_c, scale_c = float(cv[0]), float(np.max(np.abs(cv))) or 1.0
        d = (w - shift) / scale
        e = (cv - shift_c) / scale_c
        sum_w += float(np.sum(w))
        sum_c += float(np.sum(cv))
        sum_d += float(np.sum(d))
        sum_e += float(np.sum(e))
        sum_d2 += float(np.sum(d * d))
        sum_e2 += float(np.sum(e * e))
        sum_de += float(np.sum(d * e))
    mu_c = _control_mean(spec, params, times)
    mean = sum_w / n_rows
    ss = max(sum_d2 - sum_d * sum_d / n_rows, 0.0)
    ss_c = sum_e2 - sum_e * sum_e / n_rows
    control = {"beta": 0.0, "variance_ratio": 1.0}
    dof = n_rows - 1
    if n_rows >= 3 and ss_c > 0.0 and ss > 0.0:
        sp = sum_de - sum_d * sum_e / n_rows
        resid = max(ss - sp * sp / ss_c, _RESIDUAL_FLOOR * ss)
        beta = sp / ss_c * scale / scale_c
        rounding = (n_steps + 2) * 2.0 * sys.float_info.epsilon * abs(mu_c)
        if abs(beta) * rounding <= 0.1 * scale * math.sqrt(resid / (n_rows - 2) / n_rows):
            mean -= beta * (sum_c / n_rows - mu_c)
            control = {"beta": beta, "variance_ratio": resid / ss}
            ss, dof = resid, n_rows - 2
    var = ss / dof if n_rows > 1 else 0.0
    stderr = max(scale * math.sqrt(var / n_rows), 1e-16 * abs(mean), math.ulp(0.0))
    return mean, stderr, warnings_count, control


C = CHUNK_ROWS
# the legs of a chunk share a slot and consecutive chunks alternate between
# two: rows around C, 2 C and a block edge end a chunk early, fill both
# slots, reuse the first, and cross into the next block's generator; rows
# around 4 C and 8 C reuse each slot again (they were the 2 C and 4 C rows
# of the former 4,096-pair chunks)
CHUNK_EDGE_ROWS = [1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 2 * C + 1, 2 * C + 3,
                   4 * C - 1, 4 * C, 4 * C + 1, 4 * C + 3, 8 * C + 3,
                   PAIR_BLOCK + C + 1, PAIR_BLOCK + 2 * C + 1, PAIR_BLOCK + 4 * C + 1]
CHUNK_EDGE_CONTRACTS = {
    # d1 T = 1 - 5e-10 passes validation inside BUDGET_TOL but cannot spend
    # the budget, so every step's interval is empty and counts a warning
    "budget": _spec(f_kind="call", f_strike=100.0, bounds=ControlBounds(0.25, 1.0 - 5e-10)),
    # d0 = 0: paths never above the cutoff keep y = 0 and take the terminal branch
    "normalized": _spec(weight_mode="normalized", f_kind="call", f_strike=100.0),
}


def _random_table_policy(spec, params):
    """A table policy on a tiny (x, y, z) grid with a seeded random table:
    each stacked row takes its own nearest node, whatever its leg."""
    grid = StateGrid(x_nodes=np.linspace(0.0, 40.0, 6), y_nodes=np.array([0.0, 0.1, 0.3, 0.6, 1.0]),
                     z_nodes=np.linspace(math.log(60.0), math.log(160.0), 9), n_steps=4)
    table = np.random.default_rng(5).random((grid.n_steps,) + grid.shape) < 0.5
    bits = np.packbits(table.reshape(grid.n_steps, -1), axis=1, bitorder="little")
    return Policy("table", TableRule(bits, grid, params.t_horizon, spec.bounds.d0, spec.bounds.d1))


def _threshold_policy(spec, params):
    return _policies_by_name(spec, params)["threshold[+0.0]"]


CHUNK_EDGE_CASES = {name + suffix: (spec, make_policy)
                    for name, spec in CHUNK_EDGE_CONTRACTS.items()
                    for suffix, make_policy in (("", _threshold_policy), ("_table", _random_table_policy))}


@pytest.mark.parametrize("case", sorted(CHUNK_EDGE_CASES))
@pytest.mark.parametrize("rows,antithetic", [
    (rows, antithetic) for rows in CHUNK_EDGE_ROWS for antithetic in (True, False)
    if rows > 1 or antithetic  # one plain row is one path, which is refused
])
def test_row_chunks_match_full_block_loop(rows, antithetic, case):
    # walking a block in row chunks, both legs at once, changes no bit of any result
    params = MarketParams(s0=100.0, r=0.03, sigma=0.25, t_horizon=1.0)
    spec, make_policy = CHUNK_EDGE_CASES[case]
    pol = make_policy(spec, params)
    n_paths = 2 * rows if antithetic else rows
    est = evaluate_policy(pol, spec, params, n_paths, 6, seed=41, antithetic=antithetic)
    value, stderr, warnings_count, control = _full_block_loop(pol, spec, params, n_paths, 6, 41, antithetic)
    assert est.value == value
    assert est.stderr == stderr
    assert est.meta["forced_ramp_warnings"] == warnings_count
    assert est.meta["control_variate"] == control
    if case == "budget" and rows >= C:
        assert warnings_count > 0  # the projection is exercised


class _Boom(Exception):
    pass


def test_worker_thread_leaves_no_thread_and_passes_errors_through(monkeypatch):
    spec = CHUNK_EDGE_CONTRACTS["budget"]
    params = MarketParams(s0=100.0, r=0.03, sigma=0.25, t_horizon=1.0)
    pol = _policies_by_name(spec, params)["threshold[+0.0]"]
    n_paths = 2 * (3 * C + 5)  # four chunks: the worker is a chunk ahead at every step
    before = threading.enumerate()

    # a normal call, with the interpreter switching threads as often as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        est = evaluate_policy(pol, spec, params, n_paths, 16, seed=41)
    finally:
        sys.setswitchinterval(interval)
    assert (est.value, est.stderr, est.meta["forced_ramp_warnings"]) == _full_block_loop(
        pol, spec, params, n_paths, 16, 41, True)[:3]
    assert threading.enumerate() == before

    # the policy raises on its 40th call, in the third chunk's walk
    boom = _Boom("policy")
    calls = []

    def flaky(t, x, y, s):
        calls.append(t)
        if len(calls) == 40:
            raise boom
        return np.full(np.shape(s), 1.0)

    flaky_pol = Policy("flaky", flaky)
    with pytest.raises(_Boom) as err:
        evaluate_policy(flaky_pol, spec, params, n_paths, 16, seed=41)
    assert err.value is boom
    assert threading.enumerate() == before

    # the worker's third draw raises
    worker_boom = _Boom("draw")

    class FaultyStream:
        def __init__(self, seed, block):
            self._gen = _block_stream(seed, block)
            self._draws = 0

        def standard_normal(self, *args, **kwargs):
            self._draws += 1
            if self._draws == 3:
                raise worker_boom
            return self._gen.standard_normal(*args, **kwargs)

    monkeypatch.setattr(mc, "_block_stream", FaultyStream)
    with pytest.raises(_Boom) as err:
        evaluate_policy(pol, spec, params, n_paths, 16, seed=41)
    assert err.value is worker_boom
    assert threading.enumerate() == before


@pytest.mark.parametrize("mode", ["adapted_fixed_cumulative", "normalized"])
@pytest.mark.parametrize("proposal", ["array", "scalar"])
def test_nan_proposal_is_refused_as_the_policy(mode, proposal):
    # one NaN, on one row of the last chunk's last step or on every row from
    # mid-horizon; in the normalized mode a NaN weight would otherwise take the
    # terminal branch and price as if nothing had been spent
    spec = _spec(weight_mode=mode, f_kind="call", f_strike=100.0)
    n_paths, n_steps = 2 * (C + 5), 8

    def rule(t, x, y, s):
        if proposal == "scalar":
            return math.nan if t >= 0.5 else 1.0
        u = np.ones(np.shape(s))
        if t == (n_steps - 1) / n_steps and u.size < 2 * C:
            u[-1] = math.nan
        return u

    with pytest.raises(ParameterError) as err:
        evaluate_policy(Policy("nan", rule), spec, PARAMS, n_paths, n_steps, seed=3)
    assert err.value.field == "policy"
    assert "'nan'" in str(err.value)


# The walk clips, advances x, y and s in its own buffers.  A rule may return
# one of its inputs or an array it keeps, and eval_f returns s itself for an
# identity rate paid at spot; a write into any of them would move a price.
def _returns_y(spec, params):
    return Policy("returns y", lambda t, x, y, s: y)


def _reuses_one_array(spec, params):
    kept = []

    def rule(t, x, y, s):
        if kept:  # nothing wrote into the array since it was returned
            assert np.array_equal(kept[0], kept[1])
        if not kept or kept[0].shape != np.shape(s):
            kept[:] = [np.empty(np.shape(s)), None]
        np.multiply(s, 0.012, out=kept[0])  # 1.2 at the spot of 100
        kept[1] = kept[0].copy()
        return kept[0]

    return Policy("reuses one array", rule)


def _spot_threshold(spec, params):
    return Policy("spot threshold", lambda t, x, y, s: np.where(s > 100.0, 2.0, 0.0))


ALIASING_CASES = {
    "returns_y": (_spec(f_kind="call", f_strike=100.0), _returns_y),
    "reuses_one_array": (_spec(f_kind="call", f_strike=100.0), _reuses_one_array),
    "identity_f_at_spot": (_spec(), _spot_threshold),
}


@pytest.mark.parametrize("case", sorted(ALIASING_CASES))
def test_walk_never_writes_into_what_it_is_handed(case, monkeypatch):
    params = MarketParams(s0=100.0, r=0.03, sigma=0.25, t_horizon=1.0)
    spec, make_policy = ALIASING_CASES[case]
    pol = make_policy(spec, params)
    if case == "identity_f_at_spot":
        s = np.ones(3)
        assert eval_f(spec, params, s, 0.0) is s
    n_paths, n_steps = 2 * (C + 3), 6  # two chunks, the second a short one
    want = _full_block_loop(pol, spec, params, n_paths, n_steps, 41, True)[:3]

    # eval_f runs after the clip and the spot's step: the step's answer must
    # be intact there (a chunk's first eval_f, at t = 0, follows no answer)
    answers = []
    rule = pol.rule

    def watched_rule(t, x, y, s):
        u = rule(t, x, y, s)
        answers[:] = [u, np.array(u, copy=True)]
        return u

    def watched_eval_f(*args):
        if answers:
            assert np.array_equal(answers[0], answers[1])
            answers.clear()
        return eval_f(*args)

    monkeypatch.setattr(mc, "eval_f", watched_eval_f)
    est = evaluate_policy(Policy(pol.name, watched_rule), spec, params, n_paths, n_steps, seed=41)
    assert (est.value, est.stderr, est.meta["forced_ramp_warnings"]) == want


def test_evaluate_policy_holds_two_half_size_slots():
    # the worker's two slots, its staging buffer and the block's payoffs; the
    # walk's own rows and a NumPy temporary or two fit in the margin.  A slot
    # of the former 4,096-pair chunks, or any buffer of the block's draws,
    # does not
    n_steps, rows = 250, 3 * C + 1  # four chunks: both slots are reused
    assert 8 * n_steps * 2 * C <= 8 << 20  # each slot holds at most 8 MiB at 250 steps
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["tail"]
    evaluate_policy(pol, spec, PARAMS, 2 * 8, n_steps, seed=5)  # lazy imports, the thread pool
    tracemalloc.start()
    try:
        evaluate_policy(pol, spec, PARAMS, 2 * rows, n_steps, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots = 2 * (8 * n_steps * 2 * C)
    staging = 8 * n_steps * DRAW_ROWS
    payoffs = 8 * 2 * min(rows, PAIR_BLOCK)
    margin = 1 << 20
    assert peak < slots + staging + payoffs + margin
