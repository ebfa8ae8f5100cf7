import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from controlled_options import (
    ControlBounds,
    MarketParams,
    PayoffSpec,
    Policy,
    builtin_policies,
    evaluate_policy,
    tail_strategy_price,
)
from controlled_options.market import _block_normals
from controlled_options.mc import PAIR_BLOCK

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


def test_seed_determinism():
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["tail"]
    a = evaluate_policy(pol, spec, PARAMS, 20_000, 100, seed=7)
    b = evaluate_policy(pol, spec, PARAMS, 20_000, 100, seed=7)
    assert a.value == b.value and a.stderr == b.stderr


def test_singleton_control_matches_direct_evaluation():
    t_horizon = 1.0
    n_steps = 128
    n_rows = 4096
    spec = _spec(f_kind="call", f_strike=100.0, bounds=ControlBounds(1.0, 1.0))
    pol = Policy(source="analytic", d0=1.0, d1=1.0, name="const",
                 fn=lambda t, x, y, s: np.full(np.shape(s), 1.0), t_horizon=t_horizon)
    est = evaluate_policy(pol, spec, PARAMS, n_paths=2 * n_rows, n_steps=n_steps,
                          seed=13, antithetic=True)

    # independent straight-loop evaluation on the same substream
    dt = t_horizon / n_steps
    drift = (PARAMS.r - 0.5 * PARAMS.sigma**2) * dt
    vol = PARAMS.sigma * math.sqrt(dt)
    z = _block_normals(13, 0, (PAIR_BLOCK, n_steps))[:n_rows]
    acc = []
    for sign in (1.0, -1.0):
        s = np.full(n_rows, 100.0)
        x = np.zeros(n_rows)
        for i in range(n_steps):
            x = x + 1.0 * np.maximum(s - 100.0, 0.0) * dt
            s = s * np.exp(drift + vol * sign * z[:, i])
        acc.append(x)
    expected = float(np.mean(0.5 * (acc[0] + acc[1])))
    assert est.value == pytest.approx(expected, abs=1e-10)


def test_tail_policy_reproduces_quadrature_price():
    spec = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded")
    target = tail_strategy_price(spec, PARAMS).value
    tail = _policies_by_name(spec, PARAMS)["tail"]
    est = evaluate_policy(tail, spec, PARAMS, 200_000, 400, seed=5)
    assert abs(est.value - target) <= 3.0 * est.stderr


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
    zero = Policy(source="analytic", d0=0.0, d1=2.0, name="zero",
                  fn=lambda t, x, y, s: np.zeros(np.shape(s)), t_horizon=1.0)
    a = evaluate_policy(zero, spec, PARAMS, 40_000, 64, seed=21)

    # independent straight-loop terminal payoff on the same substream
    n_rows, n_steps = 20_000, 64
    dt = PARAMS.t_horizon / n_steps
    drift = (PARAMS.r - 0.5 * PARAMS.sigma**2) * dt
    vol = PARAMS.sigma * math.sqrt(dt)
    z = _block_normals(21, 0, (n_rows, n_steps))
    ends = []
    for sign in (1.0, -1.0):
        s = np.full(n_rows, 100.0)
        for i in range(n_steps):
            s = s * np.exp(drift + vol * (sign * z[:, i]))
        ends.append(np.maximum(s - 100.0, 0.0))
    direct = float(np.sum(0.5 * (ends[0] + ends[1]))) / n_rows
    assert abs(a.value - direct) <= 1e-12


def test_pinned_values_across_two_blocks():
    # frozen values: any change to the path stream or its block layout moves
    # them; 140k paths fill two antithetic blocks (three plain ones)
    spec = _spec(f_kind="call", f_strike=100.0)
    pol = _policies_by_name(spec, PARAMS)["threshold[+0.0]"]
    assert 140_000 > 2 * PAIR_BLOCK
    anti = evaluate_policy(pol, spec, PARAMS, 140_000, 16, seed=77)
    assert anti.value == pytest.approx(5.460135926750737, rel=1e-12)
    assert anti.stderr == pytest.approx(0.010219209476080205, rel=1e-9)
    plain = evaluate_policy(pol, spec, PARAMS, 140_000, 16, seed=77, antithetic=False)
    assert plain.value == pytest.approx(5.448006935808405, rel=1e-12)
    assert plain.stderr == pytest.approx(0.015818388954237293, rel=1e-9)


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
    # tail is only offered with a zero floor
    lifted = _spec(bounds=ControlBounds(0.25, 2.0))
    assert "tail" not in _policies_by_name(lifted, PARAMS)


def test_budget_projection_forces_exact_budget():
    # a policy that ignores the budget entirely still lands on int u = 1
    spec = _spec()
    wild = Policy(source="analytic", d0=0.0, d1=2.0, name="wild",
                  fn=lambda t, x, y, s: np.where(np.asarray(s) > 100.0, 2.0, 0.0),
                  t_horizon=1.0)
    n_rows, n_steps = 512, 100
    dt = 1.0 / n_steps
    z = _block_normals(3, 0, (PAIR_BLOCK, n_steps))[:n_rows]
    s = np.full(n_rows, 100.0)
    x = np.zeros(n_rows)
    y = np.zeros(n_rows)
    from controlled_options.mc import _project_budget

    drift = -0.5 * PARAMS.sigma**2 * dt
    vol = PARAMS.sigma * math.sqrt(dt)
    for i in range(n_steps):
        t = i * dt
        u = np.asarray(wild.evaluate(t, x, y, s), dtype=float)
        u, _ = _project_budget(u, y, t, dt, i, n_steps, 0.0, 2.0, 1.0)
        assert np.all(u <= 2.0 + 1e-12) and np.all(u >= -1e-15)
        y = y + u * dt
        s = s * np.exp(drift + vol * z[:, i])
    assert np.allclose(y, 1.0, atol=1e-9)


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
