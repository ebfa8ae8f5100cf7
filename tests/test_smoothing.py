from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from controlled_options import (
    ControlBounds,
    MarketParams,
    ParameterError,
    PayoffSpec,
    build_family,
    eval_f,
    eval_g,
)
from controlled_options.payoffs import F_KINDS, G_KINDS, TIMINGS

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)


def _spec(**kw):
    base = dict(f_kind="call", f_strike=100.0, g_kind="identity",
                weight_mode="adapted_fixed_cumulative", bounds=ControlBounds(0.0, 2.0))
    base.update(kw)
    return PayoffSpec(**base)


def test_epsilon_range_checked():
    with pytest.raises(ParameterError):
        build_family(0.0, _spec(), PARAMS)
    with pytest.raises(ParameterError):
        build_family(0.6, _spec(), PARAMS)
    # eps has no dimension: the ramp is measured in units of T, so a short
    # horizon takes every eps below 1/2
    short = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=0.3)
    with pytest.raises(ParameterError):
        build_family(0.5, _spec(), short)
    fam = build_family(0.2, _spec(), short)
    assert fam.terminal_ramp(0.3 * 0.8) == 0.0 and fam.terminal_ramp(0.3 * 0.85) == 1.0


def test_terminal_ramp_plateaus():
    fam = build_family(0.1, _spec(), PARAMS)
    assert fam.terminal_ramp(0.5) == 0.0
    assert fam.terminal_ramp(0.9) == 0.0
    assert fam.terminal_ramp(0.91) == 1.0
    t = np.linspace(0.0, 1.0, 1001)
    psi = fam.terminal_ramp(t)
    assert np.all(np.diff(psi) >= -1e-15)


def test_effective_control_is_identity_before_ramp():
    # h(u, t) integrates to u dt before the ramp, which starts at 0.9
    fam = build_family(0.1, _spec(), PARAMS)
    for u in (0.0, 0.7, 2.0):
        assert fam.effective_control_integral(u, 0.4, 0.5) == pytest.approx(0.1 * u)
        # past the ramp's end, 0.91, it pins to d1 whatever u is
        assert fam.effective_control_integral(u, 0.95, 1.0) == pytest.approx(0.05 * 2.0)


def test_payoff_rate_dominated_by_f():
    for spec in (_spec(), _spec(f_kind="identity"), _spec(f_kind="put", f_strike=80.0)):
        fam = build_family(0.1, spec, PARAMS)
        s = np.linspace(1.0, 600.0, 301)[None, :]
        t = np.linspace(0.0, 1.0, 41)[:, None]
        assert np.all(fam.payoff_rate(s, t) <= eval_f(spec, PARAMS, s, t) + 1e-10)


def test_payoff_rate_cap_engages_far_in_the_money():
    fam = build_family(0.2, _spec(f_kind="identity"), PARAMS)
    assert fam.payoff_rate(650.0, 0.0) <= fam.phi_cap  # cap is 500 here
    assert fam.payoff_rate(650.0, 0.0) < 600.0
    # well below the cap the rate is essentially the raw one
    assert fam.payoff_rate(200.0, 0.0) == pytest.approx(200.0, abs=1e-3)


def test_terminal_reward_domination_and_convergence():
    spec = _spec(g_kind="cap", g_cap=50.0)
    x = np.linspace(0.0, 300.0, 200)
    sups = []
    for eps in (0.2, 0.1, 0.05):
        fam = build_family(eps, spec, PARAMS)
        gap = eval_g(spec, x) - fam.terminal_reward(x)
        assert np.all(gap >= -1e-10)
        sups.append(gap.max())
        # blend deviation is confined to the kink band of half-width eps*M
        assert gap.max() <= eps * 50.0 / 4.0 + 1e-9
    assert sups[0] >= sups[1] >= sups[2]


def test_terminal_reward_pointwise_monotone_in_epsilon():
    spec = _spec(g_kind="call", g_strike=40.0)
    x = np.linspace(0.0, 300.0, 400)
    fam1 = build_family(0.2, spec, PARAMS)
    fam2 = build_family(0.1, spec, PARAMS)
    fam3 = build_family(0.05, spec, PARAMS)
    g1, g2, g3 = (f.terminal_reward(x) for f in (fam1, fam2, fam3))
    assert np.all(g2 >= g1 - 1e-9)
    assert np.all(g3 >= g2 - 1e-9)


def test_smoothstep_family_monotone_in_epsilon_tight():
    t = np.linspace(0.0, 1.0, 2001)
    spec = _spec()
    fam1 = build_family(0.2, spec, PARAMS)
    fam2 = build_family(0.1, spec, PARAMS)
    assert np.all(fam2.terminal_ramp(t) <= fam1.terminal_ramp(t) + 1e-12)


def test_ramp_integral_matches_quadrature():
    fam = build_family(0.1, _spec(), PARAMS)
    for t in (0.0, 0.85, 0.902, 0.9051, 0.907, 0.95, 1.0):
        ref, _ = quad(lambda s: float(fam.terminal_ramp(s)), 0.0, t,
                      limit=400, epsabs=1e-12, epsrel=1e-12)
        assert fam.terminal_ramp_integral(t) == pytest.approx(ref, abs=2e-9)


def test_effective_control_integral_matches_quadrature():
    fam = build_family(0.1, _spec(), PARAMS)

    def h(u, t):
        psi = float(fam.terminal_ramp(t))
        return u * (1.0 - psi) + 2.0 * psi

    for u in (0.0, 0.5, 2.0):
        ref, _ = quad(lambda s: h(u, s), 0.88, 1.0, limit=200)
        got = fam.effective_control_integral(u, 0.88, 1.0)
        assert got == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("probe", [0.37, 0.68, 0.49])
def test_centered_differences_second_order(probe):
    # generic in-band points (band coordinate `probe`), away from the joins;
    # the call-kind reward is cubic in its one-sided band (K, K + eps K), so
    # its third derivative is nonzero there and the classical h^2 rate is
    # observable.  A smooth f has D(h) = f' + c h^2 + O(h^4) for the central
    # difference D, so D(h) - D(h/2) contracts about 4x per halving of h.
    # Steps are 1% of each band: eps^2 T for the ramp, eps * strike for the
    # reward.
    fam = build_family(0.1, _spec(g_kind="call", g_strike=40.0), PARAMS)
    checks = [
        (fam.terminal_ramp, 0.9 + 0.01 * probe, 1e-4),
        (fam.terminal_reward, 40.0 + 4.0 * probe, 4e-2),
    ]
    for func, at, h in checks:
        d = [float(func(at + k) - func(at - k)) / (2.0 * k) for k in (h, h / 2.0, h / 4.0)]
        first, second = abs(d[0] - d[1]), abs(d[1] - d[2])
        assert second > 0.0
        assert first / second >= 3.0


def test_ratio_reward_dominated_and_recovers_limit():
    spec = _spec(weight_mode="normalized")
    for eps in (0.2, 0.1, 0.05, 0.025):
        fam = build_family(eps, spec, PARAMS)
        x = np.linspace(0.0, 200.0, 50)[:, None]
        y = np.linspace(0.05, 3.0, 50)[None, :]
        assert np.all(fam.ratio_reward(x, y) <= eval_g(spec, x / y) + 1e-9)
    # x/y -> c with y = d1 * eps -> 0 recovers g(c)
    c = 37.0
    vals = []
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        fam = build_family(eps, spec, PARAMS)
        y = 2.0 * eps
        vals.append(float(fam.ratio_reward(c * y, y)))
    errs = [abs(v - c) for v in vals]
    assert errs[-1] < 0.05 * c
    assert errs[-1] <= errs[0]


def test_family_self_check_runs_at_build():
    # build_family re-verifies the inequalities numerically; a valid spec passes
    build_family(0.1, _spec(g_kind="cap", g_cap=10.0), PARAMS)
    build_family(0.1, _spec(weight_mode="normalized"), PARAMS)
    # the clamps pass values below their blend band through exactly, so a
    # small eps is not refused for the clamp's rounding
    build_family(5e-5, _spec(weight_mode="normalized"), PARAMS)


def _points(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=20).map(np.array)


@settings(max_examples=100, deadline=None)
@given(eps=st.floats(1e-6, 0.5, exclude_max=True), f_kind=st.sampled_from(F_KINDS),
       g_kind=st.sampled_from(G_KINDS), timing=st.sampled_from(TIMINGS), r=st.sampled_from([0.0, 0.05]),
       s=_points(0.0, 600.0), t=st.floats(0.0, 1.0), x=_points(0.0, 300.0), y=_points(0.05, 3.0))
def test_family_stays_below_the_raw_data(eps, f_kind, g_kind, timing, r, s, t, x, y):
    # the regularised problem prices below the raw one because every member
    # of the family lies below the data it smooths; tolerances as above.
    # The payment rate also stays inside the raw range, 0 exactly where f
    # is: the sweep's x-feet never move down, and it skips the x step on the
    # z columns where phi is 0
    params = replace(PARAMS, r=r)
    spec = _spec(f_kind=f_kind, g_kind=g_kind, g_strike=40.0, g_cap=50.0, payment_timing=timing)
    fam = build_family(eps, spec, params)
    phi, f = fam.payoff_rate(s, t), eval_f(spec, params, s, t)
    assert np.all(phi >= 0.0) and np.all(phi <= f)
    assert np.array_equal(phi == 0.0, f == 0.0)
    assert np.all(fam.terminal_reward(x) <= eval_g(spec, x) + 1e-10)
    if spec.g_is_nondecreasing:  # g(xy / (y^2 + eps^4)) <= g(x / y) needs g nondecreasing
        xx, yy = x[:, None], y[None, :]
        assert np.all(fam.ratio_reward(xx, yy) <= eval_g(spec, xx / yy) + 1e-9)

