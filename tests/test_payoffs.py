import numpy as np
import pytest

from controlled_options import (
    ControlBounds,
    MarketParams,
    ParameterError,
    PayoffSpec,
    eval_f,
    payoff_adapted,
    payoff_normalized,
    validate_spec,
)

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
BOUNDS = ControlBounds(0.0, 2.0)


def _path(n_steps, seed):
    """(times, s): an arbitrary positive path on a uniform grid over [0, T]."""
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, PARAMS.t_horizon, n_steps + 1)
    log_incr = rng.normal(-0.02 / n_steps, 0.2 / np.sqrt(n_steps), n_steps)
    return times, 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(log_incr)]))


def _spec(**kw):
    base = dict(f_kind="identity", g_kind="identity",
                weight_mode="adapted_fixed_cumulative", bounds=BOUNDS)
    base.update(kw)
    return PayoffSpec(**base)


def test_bounds_validation():
    with pytest.raises(ParameterError):
        ControlBounds(-0.1, 1.0)
    with pytest.raises(ParameterError):
        ControlBounds(2.0, 1.0)
    # singleton set is allowed
    b = ControlBounds(1.0, 1.0)
    b.validate_budget_feasible(1.0)
    with pytest.raises(ParameterError):
        ControlBounds(1.5, 2.0).validate_budget_feasible(1.0)  # d0 T > 1
    with pytest.raises(ParameterError):
        ControlBounds(0.0, 0.5).validate_budget_feasible(1.0)  # d1 T < 1


def test_spec_validation_names_fields():
    with pytest.raises(ParameterError) as err:
        _spec(f_kind="call")
    assert err.value.field == "payoff.f_strike"
    with pytest.raises(ParameterError) as err:
        _spec(g_kind="cap")
    assert err.value.field == "payoff.g_cap"
    with pytest.raises(ParameterError) as err:
        _spec(weight_mode="whatever")
    assert err.value.field == "payoff.weight_mode"


def test_eval_f_call_spot():
    spec = _spec(f_kind="call", f_strike=100.0)
    assert eval_f(spec, PARAMS, 112.0, 0.3) == pytest.approx(12.0)
    assert eval_f(spec, PARAMS, 90.0, 0.3) == 0.0


def test_eval_f_terminal_timing_matches_spot_at_zero_rate():
    spot = _spec(f_kind="call", f_strike=100.0, payment_timing="spot")
    term = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded")
    s = np.linspace(50.0, 180.0, 23)
    for t in (0.0, 0.4, 1.0):
        assert np.allclose(eval_f(spot, PARAMS, s, t), eval_f(term, PARAMS, s, t))


def test_eval_f_terminal_timing_compounds():
    params = MarketParams(s0=100.0, r=0.1, sigma=0.2, t_horizon=1.0)
    term = _spec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded")
    assert eval_f(term, params, 110.0, 0.5) == pytest.approx(10.0 * np.exp(0.05))


def test_eval_f_identity():
    assert eval_f(_spec(), PARAMS, 73.2, 0.9) == pytest.approx(73.2)


def test_adapted_uniform_weight_on_constant_path():
    times = np.linspace(0.0, 1.0, 101)
    s = np.full_like(times, 100.0)
    u = np.full_like(times, 1.0)
    assert payoff_adapted(_spec(), PARAMS, times, s, u) == pytest.approx(100.0, rel=1e-12)


def test_adapted_cap_never_exceeds_cap():
    spec = _spec(g_kind="cap", g_cap=42.0)
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 51)
    for _ in range(25):
        s = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.05, times.size)))
        u = np.full_like(times, 1.0)
        assert payoff_adapted(spec, PARAMS, times, s, u) <= 42.0


def test_adapted_matches_straight_loop_quadrature():
    spec = _spec(f_kind="call", f_strike=100.0)
    times, s = _path(200, seed=99)
    u = np.full_like(times, 1.0)
    got = payoff_adapted(spec, PARAMS, times, s, u)
    # independent straight-loop trapezoid
    acc = 0.0
    for i in range(times.size - 1):
        fa = max(s[i] - 100.0, 0.0) * u[i]
        fb = max(s[i + 1] - 100.0, 0.0) * u[i + 1]
        acc += 0.5 * (fa + fb) * (times[i + 1] - times[i])
    assert got == pytest.approx(acc, abs=1e-12)


def test_adapted_budget_enforced():
    times = np.linspace(0.0, 1.0, 11)
    s = np.full_like(times, 100.0)
    u = np.full_like(times, 0.9)
    with pytest.raises(ParameterError, match="weight integral") as err:
        payoff_adapted(_spec(), PARAMS, times, s, u)
    assert err.value.field == "u_values"


def test_adapted_bounds_enforced():
    times = np.linspace(0.0, 1.0, 11)
    s = np.full_like(times, 100.0)
    u = np.full_like(times, 3.0)
    with pytest.raises(ParameterError, match="control leaves") as err:
        payoff_adapted(_spec(), PARAMS, times, s, u)
    assert err.value.field == "u_values"


def test_normalized_constant_weight_cancels():
    spec = _spec(weight_mode="normalized")
    times, s = _path(64, seed=1)
    expected = np.trapezoid(s, times) / 1.0
    got = payoff_normalized(spec, PARAMS, times, s, np.full_like(times, 0.7))
    assert got == pytest.approx(expected, rel=1e-12)


def test_normalized_scale_invariance_exact():
    spec = _spec(weight_mode="normalized", f_kind="call", f_strike=90.0)
    times, s = _path(64, seed=2)
    rng = np.random.default_rng(5)
    u = rng.uniform(0.2, 0.9, times.size)
    a = payoff_normalized(spec, PARAMS, times, s, u)
    b = payoff_normalized(spec, PARAMS, times, s, 2.0 * u)
    assert a == b


def test_normalized_zero_weight_takes_terminal_branch():
    spec = _spec(weight_mode="normalized", f_kind="call", f_strike=100.0)
    times, s = _path(64, seed=3)
    got = payoff_normalized(spec, PARAMS, times, s, np.zeros_like(times))
    assert got == max(s[-1] - 100.0, 0.0)


def test_payoff_monotone_in_path_for_call_rate():
    adapted = _spec(f_kind="call", f_strike=100.0)
    normalized = _spec(f_kind="call", f_strike=100.0, weight_mode="normalized")
    times, s = _path(64, seed=4)
    u = np.full_like(times, 1.0)
    for spec, payoff in ((adapted, payoff_adapted), (normalized, payoff_normalized)):
        lo = payoff(spec, PARAMS, times, s, u)
        hi = payoff(spec, PARAMS, times, s * 1.1, u)
        assert hi >= lo


def test_linear_growth_bound():
    rng = np.random.default_rng(11)
    times = np.linspace(0.0, 1.0, 41)
    specs = [
        _spec(f_kind="call", f_strike=100.0),
        _spec(g_kind="cap", g_cap=30.0),
        _spec(f_kind="put", f_strike=90.0, weight_mode="normalized"),
    ]
    for spec in specs:
        # f <= e^{rT} (s + K_f), the weight integral is at most max(1, d1 T),
        # and g adds at most its own strike or cap
        weight = max(1.0, spec.bounds.d1 * PARAMS.t_horizon)
        k_g = (spec.g_strike or 0.0) + (spec.g_cap or 0.0)
        c = np.exp(PARAMS.r * PARAMS.t_horizon) * weight * (1.0 + (spec.f_strike or 0.0)) + k_g
        for _ in range(20):
            s = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.1, times.size)))
            if spec.weight_mode == "normalized":
                u = rng.uniform(0.0, 2.0, times.size)
                val = payoff_normalized(spec, PARAMS, times, s, u)
            else:
                u = np.full_like(times, 1.0)
                val = payoff_adapted(spec, PARAMS, times, s, u)
            assert abs(val) <= c * (1.0 + float(s.max()))


def test_validate_spec_checks_budget_reachability():
    spec = _spec(bounds=ControlBounds(0.0, 0.8))
    with pytest.raises(ParameterError) as err:
        validate_spec(spec, PARAMS)
    assert err.value.field == "payoff.d1"
