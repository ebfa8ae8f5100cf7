import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from controlled_options import (
    ControlBounds,
    MarketParams,
    ParameterError,
    PayoffSpec,
    Policy,
    bs_expected_payoff,
    evaluate_policy,
    norm_cdf,
)
from controlled_options.market import _block_stream
from controlled_options.mc import PAIR_BLOCK


def _stream(params, n_paths, n_steps, seed, f_kind="identity", strike=None):
    """The Monte Carlo path stream, read through ``evaluate_policy``.

    A zero policy records s at every step, so ``paths[:, i]`` is S(t_i)
    for i < n_steps.  Zero weight sends the normalized payoff to its
    terminal branch, so the estimate is e^{-rT} E[f(S(T), T)].
    """
    seen = []

    def record(t, x, y, s):
        seen.append(np.array(s))
        return np.zeros_like(s)

    spec = PayoffSpec(f_kind=f_kind, f_strike=strike, g_kind="identity",
                      weight_mode="normalized", bounds=ControlBounds(0.0, 1.0))
    policy = Policy("record", record)
    est = evaluate_policy(policy, spec, params, n_paths, n_steps, seed, antithetic=False)
    blocks = [np.stack(seen[i:i + n_steps], axis=1) for i in range(0, len(seen), n_steps)]
    return np.vstack(blocks), est


def _bs_call_reference(s0, K, r, sigma, t):
    """Independent route: erfc-free scipy CDF and the textbook formula."""
    st = sigma * math.sqrt(t)
    d1 = (math.log(s0 / K) + (r + 0.5 * sigma**2) * t) / st
    d2 = d1 - st
    return s0 * math.exp(r * t) * norm.cdf(d1) - K * norm.cdf(d2)


def test_norm_cdf_matches_erfc_to_1e9():
    xs = np.linspace(-8.0, 8.0, 20001)
    ref = np.array([0.5 * math.erfc(-x / math.sqrt(2)) for x in xs])
    ours = np.array([norm_cdf(x) for x in xs])
    assert np.max(np.abs(ours - ref)) <= 1e-9


def test_params_validation():
    with pytest.raises(ParameterError):
        MarketParams(s0=-1.0, r=0.0, sigma=0.2, t_horizon=1.0)
    with pytest.raises(ParameterError):
        MarketParams(s0=100.0, r=0.0, sigma=0.0, t_horizon=1.0)
    with pytest.raises(ParameterError):
        MarketParams(s0=100.0, r=-0.01, sigma=0.2, t_horizon=1.0)
    with pytest.raises(ParameterError):
        MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=0.0)


def test_params_reject_non_finite_fields():
    for name in ("s0", "r", "sigma", "t_horizon"):
        fields = dict(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
        for bad in (math.inf, math.nan):
            fields[name] = bad
            with pytest.raises(ParameterError) as err:
                MarketParams(**fields)
            assert err.value.field == f"market.{name}"


def test_degenerate_sigma_paths_constant():
    params = MarketParams(s0=100.0, r=0.0, sigma=1e-12, t_horizon=1.0)
    paths, est = _stream(params, n_paths=64, n_steps=16, seed=3)
    assert np.allclose(paths, 100.0, atol=1e-8)
    assert np.all(paths[:, 0] == 100.0)
    assert est.value == pytest.approx(100.0, abs=1e-8)


def test_terminal_mean_grows_at_rate_r():
    params = MarketParams(s0=100.0, r=0.05, sigma=0.2, t_horizon=1.0)
    _, est = _stream(params, n_paths=1_000_000, n_steps=4, seed=11)
    # e^{-rT} E[S(T)] = s0 is E[S(T)] = s0 e^{rT}
    assert abs(est.value - 100.0) <= 3.0 * est.stderr


def test_seed_determinism_bit_identical():
    params = MarketParams(s0=50.0, r=0.02, sigma=0.3, t_horizon=2.0)
    a, est_a = _stream(params, 512, 8, seed=42)
    b, est_b = _stream(params, 512, 8, seed=42)
    assert np.array_equal(a, b)
    assert est_a.value == est_b.value and est_a.stderr == est_b.stderr


def test_path_prefix_stable_under_more_paths():
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
    small, _ = _stream(params, 1000, 6, seed=9)
    big, _ = _stream(params, PAIR_BLOCK + 5000, 6, seed=9)  # spans two blocks
    assert big.shape == (PAIR_BLOCK + 5000, 6)
    assert np.array_equal(big[:1000], small)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), block=st.integers(0, 3),
       rows=st.integers(1, 400), extra=st.integers(0, 400), steps=st.integers(1, 40))
def test_short_block_draw_is_prefix_of_long_draw(seed, block, rows, extra, steps):
    short = _block_stream(seed, block).standard_normal((rows, steps))
    long = _block_stream(seed, block).standard_normal((rows + extra, steps))
    assert np.array_equal(short, long[:rows])


def test_bs_call_against_reference_and_mc():
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
    val = bs_expected_payoff(params, "call", 1.0, strike=100.0)
    # frozen from the independent scipy-based formula
    assert val == pytest.approx(7.965567455405804, abs=1e-9)
    assert val == pytest.approx(_bs_call_reference(100, 100, 0.0, 0.2, 1.0), abs=1e-10)
    _, est = _stream(params, 1_000_000, 1, seed=5, f_kind="call", strike=100.0)
    assert abs(est.value - val) <= 3.0 * est.stderr


def test_bs_call_deterministic_limit():
    params = MarketParams(s0=110.0, r=0.0, sigma=1e-12, t_horizon=1.0)
    assert bs_expected_payoff(params, "call", 1.0, strike=100.0) == pytest.approx(10.0, abs=1e-9)


def test_bs_identity_is_forward():
    params = MarketParams(s0=87.5, r=0.0, sigma=0.4, t_horizon=1.0)
    assert bs_expected_payoff(params, "identity", 0.7) == pytest.approx(87.5, abs=1e-12)
    params2 = MarketParams(s0=87.5, r=0.03, sigma=0.4, t_horizon=1.0)
    assert bs_expected_payoff(params2, "identity", 0.7) == pytest.approx(87.5 * math.exp(0.021), rel=1e-12)


def test_bs_put_by_parity():
    params = MarketParams(s0=100.0, r=0.04, sigma=0.25, t_horizon=1.0)
    c = bs_expected_payoff(params, "call", 0.8, strike=95.0)
    q = bs_expected_payoff(params, "put", 0.8, strike=95.0)
    fwd = 100.0 * math.exp(0.04 * 0.8)
    assert c - q == pytest.approx(fwd - 95.0, rel=1e-12)


def test_bs_put_out_of_the_money_keeps_its_digits():
    # E(K-S)^+ = 2.2e-10 against a forward of 1: taken by parity from the call
    # it was rounding noise, and the closed form's quadrature bisected on it
    params = MarketParams(s0=1.0, r=0.0, sigma=0.125, t_horizon=1.0)
    mu, sd = -0.5 * 0.125**2, 0.125
    density = lambda s: norm.pdf((math.log(s) - mu) / sd) / (s * sd)
    ref, _ = quad(lambda s: (0.5 - s) * density(s), 1e-9, 0.5, epsabs=0.0, epsrel=1e-12)
    assert bs_expected_payoff(params, "put", 1.0, strike=0.5) == pytest.approx(ref, rel=1e-9)


def test_bs_parameter_errors():
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
    with pytest.raises(ParameterError):
        bs_expected_payoff(params, "call", 0.5, strike=-3.0)
    with pytest.raises(ParameterError):
        bs_expected_payoff(params, "call", 2.0, strike=100.0)
    with pytest.raises(ParameterError):
        bs_expected_payoff(params, "strangle", 0.5, strike=100.0)


def test_martingale_at_every_grid_time():
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
    paths, est = _stream(params, 100_000, 12, seed=17)
    for i in range(1, 12):
        col = paths[:, i]
        se = col.std(ddof=1) / math.sqrt(col.size)
        assert abs(col.mean() - 100.0) <= 4.0 * se
    assert abs(est.value - 100.0) <= 4.0 * est.stderr  # t_12 = T


def test_call_present_value_increases_with_payment_time():
    # convex payoff + martingale: paying later is strictly worth more
    params = MarketParams(s0=100.0, r=0.07, sigma=0.2, t_horizon=1.0)
    times = [0.1, 0.3, 0.5, 0.8, 1.0]
    pv = [math.exp(-params.r * t) * bs_expected_payoff(params, "call", t, strike=100.0) for t in times]
    assert all(b > a for a, b in zip(pv, pv[1:]))


def test_call_bounds_random_parameters():
    rng = np.random.default_rng(123)
    for _ in range(200):
        s0 = float(rng.uniform(10.0, 200.0))
        k = float(rng.uniform(5.0, 300.0))
        r = float(rng.uniform(0.0, 0.1))
        sigma = float(rng.uniform(0.05, 0.8))
        t = float(rng.uniform(0.0, 2.0))
        params = MarketParams(s0=s0, r=r, sigma=sigma, t_horizon=2.0)
        c = bs_expected_payoff(params, "call", t, strike=k)
        fwd = s0 * math.exp(r * t)
        assert c >= max(fwd - k, 0.0) - 1e-9
        assert c <= fwd + 1e-9
