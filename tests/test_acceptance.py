"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line with the measured numbers (run with -s to stream).

Tolerances are fixed here, not tuned at runtime; Monte Carlo seeds are
pinned so every run is reproducible.
"""
import math
import time
import warnings

import numpy as np

from controlled_options import (
    ControlBounds,
    MarketParams,
    PayoffSpec,
    Policy,
    StateGrid,
    bs_expected_payoff,
    build_family,
    builtin_policies,
    evaluate_policy,
    extract_policy,
    ladder_price,
    price_from_value,
    refinement_delta,
    tail_strategy_price,
)
from controlled_options.hjb import _solve_z, _z_step_matrix, refine_grid, solve_adapted, solve_linear_reduced
from controlled_options.market import _block_stream
from controlled_options.mc import PAIR_BLOCK

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
Z0 = math.log(100.0)

# frozen independent oracles (scipy quadrature / closed forms; see
# test_closed_form.py for the oracle implementations)
TAIL_PRICE_ORACLE = 6.868449472311021
UNIFORM_MEAN_PAYOFF = 5.313916868849698
CAP_HALF_UNIFORM = 2.656958434424849
CAP_HALF_UNIFORM_PUT = 3.6946960216493134


def _spec(**kw):
    base = dict(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded",
                g_kind="identity", weight_mode="adapted_fixed_cumulative",
                bounds=ControlBounds(0.0, 2.0))
    base.update(kw)
    return PayoffSpec(**base)


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")


def _quiet(fn, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kw)


def test_ac1_martingale_identity():
    start = time.monotonic()
    spec = _spec(f_kind="identity", f_strike=None, payment_timing="spot")
    pols = {p.name: p for p in builtin_policies(spec, PARAMS)}
    mc_ok, mc_detail = True, []
    for name in ("uniform", "tail", "threshold[+0.0]"):
        est = evaluate_policy(pols[name], spec, PARAMS, 200_000, 250, seed=101)
        ok = abs(est.value - 100.0) <= 3.0 * est.stderr
        mc_ok &= ok
        mc_detail.append(f"{name}={est.value:.4f}+-{est.stderr:.4f}")
    hjb, _ = _quiet(ladder_price, PARAMS, spec, epsilons=(0.2, 0.1, 0.05))
    hjb_ok = abs(hjb.value - 100.0) <= 2.0
    elapsed = time.monotonic() - start
    runtime_ok = elapsed <= 120.0
    _report("AC-1", mc_ok and hjb_ok and runtime_ok,
            f"MC {', '.join(mc_detail)}; HJB ladder {hjb.value:.4f} (target 100 +-2%); {elapsed:.0f}s")
    assert mc_ok and hjb_ok and runtime_ok


def test_ac2_deferral_triangle():
    start = time.monotonic()
    spec = _spec()
    cf = tail_strategy_price(spec, PARAMS)
    a_ok = abs(cf.value - TAIL_PRICE_ORACLE) <= 1e-8 * TAIL_PRICE_ORACLE

    tail = next(p for p in builtin_policies(spec, PARAMS) if p.name == "tail")
    mc = evaluate_policy(tail, spec, PARAMS, 1_000_000, 500, seed=202)
    b_ok = abs(mc.value - cf.value) <= 3.0 * mc.stderr

    hjb, _ = _quiet(ladder_price, PARAMS, spec, epsilons=(0.2, 0.1, 0.05))
    c_ok = abs(hjb.value - cf.value) <= 0.02 * cf.value

    elapsed = time.monotonic() - start
    runtime_ok = elapsed <= 600.0
    _report("AC-2", a_ok and b_ok and c_ok and runtime_ok,
            f"closed-form {cf.value:.6f} (oracle {TAIL_PRICE_ORACLE:.6f}); "
            f"MC {mc.value:.4f}+-{mc.stderr:.4f} gap {abs(mc.value - cf.value):.4f}; "
            f"HJB {hjb.value:.4f} rel {(hjb.value - cf.value) / cf.value:+.4f}; {elapsed:.0f}s")
    assert a_ok and b_ok and c_ok and runtime_ok


def test_ac3_bang_bang_and_strategy_recovery(policy_table):
    # the extracted control must be exactly two-valued, and it must
    # reproduce the deferral rule where the rule is identifiable: the
    # comparison uses its feedback form (spend once the remaining budget
    # only just fits) on log-spots within 3 sigma sqrt(T).  Off-path the
    # open-loop t >= T - 1/L rule is not the optimal feedback, and in the
    # far tails the spend-now/later margin vanishes below any resolvable
    # scale, so the literal all-node comparison is reported but not gated.
    spec = _spec()
    eps = 0.025
    grid = StateGrid(y_nodes=np.arange(0.0, 1.3 + 1e-12, 0.005),
                     z_nodes=np.linspace(Z0 - 1.0, Z0 + 1.0, 81), n_steps=200)
    pol = _quiet(extract_policy, PARAMS, spec, eps, grid)
    table = policy_table(pol.rule)
    values = np.where(table, pol.rule.d1, pol.rule.d0)
    bang_ok = set(np.unique(values)) <= {0.0, 2.0}

    times = np.linspace(0.0, 1.0, grid.n_steps + 1)[:-1]
    tt = times[:, None, None]
    yy = grid.y_nodes[None, 1:-1, None]
    zz = grid.z_nodes[None, None, 1:-1]
    interior = table[:, 1:-1, 1:-1]
    feedback = np.broadcast_to(tt >= 1.0 - (1.0 - yy) / 2.0, interior.shape)
    open_loop = np.broadcast_to((tt >= 0.5) * np.ones_like(yy), interior.shape)
    band = np.broadcast_to((yy < 1.0 - eps) & (np.abs(zz - Z0) <= 0.6), interior.shape)
    all_y = np.broadcast_to((yy < 1.0 - eps) * np.ones_like(zz, dtype=bool), interior.shape)
    frac = ((interior == feedback) & band).sum() / band.sum()
    frac_open_all = ((interior == open_loop) & all_y).sum() / all_y.sum()
    agree_ok = frac >= 0.95
    _report("AC-3", bang_ok and agree_ok,
            f"policy values in {{0, 2}}: {bang_ok}; feedback-rule agreement {frac:.3f} "
            f"(3-sigma band); literal open-loop/all-z agreement {frac_open_all:.3f}")
    assert bang_ok and agree_ok


def _singleton_grid(spec, fam, nz, knee=None):
    z = np.linspace(Z0 - 1.02, Z0 + 1.0, nz)
    t_probe = np.linspace(0.0, 1.0, 9)[:, None]
    phi_max = float(np.max(fam.payoff_rate(np.exp(z)[None, :], t_probe)))
    x_max = phi_max * 1.001
    if knee is not None and 3.0 * knee < 0.5 * x_max:
        dense = np.linspace(0.0, 3.0 * knee, 33)
        x = np.concatenate([dense, np.linspace(3.0 * knee, x_max, 9)[1:]])
    else:
        x = np.linspace(0.0, x_max, 41)
    # y spacing equal to u dt: the forced trajectory lands on nodes
    return StateGrid(x_nodes=x, y_nodes=np.arange(0.0, 1.1 + 1e-12, 0.005),
                     z_nodes=z, n_steps=200)


def test_ac4_singleton_control():
    results = []
    ok_all = True
    for g_kind, g_cap, knee, nz in (("identity", None, None, 161),
                                    ("cap", CAP_HALF_UNIFORM, CAP_HALF_UNIFORM, 81)):
        spec = _spec(g_kind=g_kind, g_cap=g_cap, bounds=ControlBounds(1.0, 1.0))
        vals = []
        for eps in (0.025, 0.0125):
            fam = build_family(eps, spec, PARAMS)
            grid = _singleton_grid(spec, fam, nz, knee)
            vf = _quiet(solve_adapted, PARAMS, spec, fam, grid)
            vals.append(price_from_value(vf, PARAMS).value)
        extrap = 2.0 * vals[1] - vals[0]
        forced = builtin_policies(spec, PARAMS)[0]  # uniform == the only control
        mc = evaluate_policy(forced, spec, PARAMS, 300_000, 400, seed=404)
        ok = abs(extrap - mc.value) <= 0.02 * abs(mc.value)
        ok_all &= ok
        results.append(f"g={g_kind}: HJB {extrap:.4f} vs MC {mc.value:.4f} "
                       f"rel {(extrap - mc.value) / mc.value:+.4f}")
    _report("AC-4", ok_all, "; ".join(results))
    assert ok_all


def _put_cap_grid(fam, level: int) -> StateGrid:
    """Pricing grid for the put/cap config; level 2 is one refinement coarser.

    The y spacing divides d1 dt at both levels, so the weight transport is
    node-exact and the level pair isolates the z/t/x discretisation.
    """
    m = CAP_HALF_UNIFORM_PUT
    z = np.linspace(Z0 - 0.015 - 1.5, Z0 + 1.5, 121 if level == 1 else 61)
    t_probe = np.linspace(0.0, 1.0, 9)[:, None]
    phi_max = float(np.max(fam.payoff_rate(np.exp(z)[None, :], t_probe)))
    x_max = 2.0 * phi_max * 1.001
    dense = np.linspace(0.0, 3.0 * m, 33 if level == 1 else 17)
    x = np.concatenate([dense, np.linspace(3.0 * m, x_max, 9 if level == 1 else 5)[1:]])
    return StateGrid(x_nodes=x, y_nodes=np.arange(0.0, 1.3 + 1e-12, 0.005 * level),
                     z_nodes=z, n_steps=200 if level == 1 else 100)


def test_ac5_upper_bound_property():
    # the grid price, as an approximation of the supremum over all
    # admissible weights, must not be materially undercut by any candidate
    # policy: J >= MC - (3 stderr + delta_grid), with delta_grid the price
    # change observed across one grid refinement at the finest epsilon
    ok_all = True
    lines = []

    # call / identity reward at the deferral-triangle parameters
    spec1 = _spec()
    hjb1, raw1 = _quiet(ladder_price, PARAMS, spec1, epsilons=(0.2, 0.1, 0.05))
    delta1 = _quiet(refinement_delta, PARAMS, spec1, raw1[-1])["delta_grid"]
    worst1 = math.inf
    for pol in builtin_policies(spec1, PARAMS):
        mc = evaluate_policy(pol, spec1, PARAMS, 100_000, 250, seed=505)
        worst1 = min(worst1, hjb1.value - (mc.value - 3.0 * mc.stderr - delta1))
    ok_all &= worst1 >= 0.0
    lines.append(f"call/identity: J={hjb1.value:.4f} delta={delta1:.4f} worst slack {worst1:+.4f}")

    # put rate / capped reward
    params2 = MarketParams(s0=100.0, r=0.03, sigma=0.3, t_horizon=1.0)
    spec2 = PayoffSpec(f_kind="put", f_strike=100.0, payment_timing="terminal_compounded",
                       g_kind="cap", g_cap=CAP_HALF_UNIFORM_PUT,
                       weight_mode="adapted_fixed_cumulative", bounds=ControlBounds(0.0, 2.0))
    vals = []
    for eps in (0.1, 0.05, 0.025):
        fam = build_family(eps, spec2, params2)
        vf = _quiet(solve_adapted, params2, spec2, fam, _put_cap_grid(fam, 1))
        vals.append(price_from_value(vf, params2).value)
    j2 = 2.0 * vals[-1] - vals[-2]
    fam25 = build_family(0.025, spec2, params2)
    coarse = price_from_value(
        _quiet(solve_adapted, params2, spec2, fam25, _put_cap_grid(fam25, 2)),
        params2,
    ).value
    delta2 = abs(vals[-1] - coarse)
    worst2 = math.inf
    for pol in builtin_policies(spec2, params2):
        mc = evaluate_policy(pol, spec2, params2, 100_000, 250, seed=505)
        worst2 = min(worst2, j2 - (mc.value - 3.0 * mc.stderr - delta2))
    ok_all &= worst2 >= 0.0
    lines.append(f"put/cap: J={j2:.4f} delta={delta2:.4f} worst slack {worst2:+.4f}")

    _report("AC-5", ok_all, "; ".join(lines))
    assert ok_all


def test_ac6_epsilon_and_grid_convergence():
    spec = _spec()
    _, raw = _quiet(ladder_price, PARAMS, spec, epsilons=(0.2, 0.1, 0.05, 0.025))
    vals = [r.value for r in raw]
    delta = _quiet(refinement_delta, PARAMS, spec, raw[-2])["delta_grid"]  # the eps = 0.05 rung
    monotone = all(b >= a - delta for a, b in zip(vals, vals[1:]))
    gaps = [abs(b - a) for a, b in zip(vals, vals[1:])]
    ratios = [g0 / g1 for g0, g1 in zip(gaps, gaps[1:])]
    ratio_ok = all(r >= 1.5 for r in ratios)

    # halve dz and dt only, at eps = 0.05
    fam = build_family(0.05, spec, PARAMS)
    from controlled_options import default_grid

    base = default_grid(PARAMS, spec, fam)
    fine = refine_grid(refine_grid(base, "z"), "t")
    p0 = price_from_value(_quiet(solve_linear_reduced, PARAMS, spec, fam, base), PARAMS)
    p1 = price_from_value(_quiet(solve_linear_reduced, PARAMS, spec, fam, fine), PARAMS)
    zt_change = abs(p1.value - p0.value) / abs(p0.value)
    zt_ok = zt_change <= 0.01

    ok = monotone and ratio_ok and zt_ok
    _report("AC-6", ok,
            f"prices {[f'{v:.4f}' for v in vals]}; gap ratios {[f'{r:.2f}' for r in ratios]}; "
            f"dz,dt-halving change {zt_change:.4%} (delta_grid {delta:.4f})")
    assert ok


def test_ac7_scheme_validation():
    start = time.monotonic()
    sigma = 0.3
    params = MarketParams(s0=100.0, r=0.5 * sigma**2, sigma=sigma, t_horizon=1.0)
    w = 0.2
    errs = []
    for nz, nt in ((81, 400), (161, 1600), (321, 6400)):
        z = np.linspace(Z0 - 2.0, Z0 + 2.0, nz)
        terminal = np.exp(-0.5 * ((z - Z0) / w) ** 2)
        # the solvers' exact z-step, all control transport disabled
        ab = _z_step_matrix(params, z, params.t_horizon / nt)
        got = terminal
        for _ in range(nt):
            got = _solve_z(ab, got[None, :])[0]
        spread = math.sqrt(w * w + sigma * sigma)
        exact = (w / spread) * np.exp(-0.5 * ((z - Z0) / spread) ** 2)
        sel = np.abs(z - Z0) <= 1.0
        errs.append(float(np.max(np.abs(got - exact)[sel])))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.monotonic() - start
    ok = all(o >= 1.8 for o in orders) and elapsed <= 60.0
    _report("AC-7", ok, f"observed spatial orders {orders[0]:.2f}, {orders[1]:.2f}; {elapsed:.0f}s")
    assert ok


def test_ac8_normalized_degeneracy():
    spec = _spec(weight_mode="normalized")
    zero = Policy("zero", lambda t, x, y, s: np.zeros(np.shape(s)))
    a = evaluate_policy(zero, spec, PARAMS, 200_000, 250, seed=808)

    # direct terminal MC: a straight loop over the engine's blocks of normals,
    # with the trapezoid of the rate along each path as the control variate
    n_rows, n_steps = 100_000, 250
    dt = PARAMS.t_horizon / n_steps
    drift = (PARAMS.r - 0.5 * PARAMS.sigma**2) * dt
    vol = PARAMS.sigma * math.sqrt(dt)
    terminal, paid = [], []
    for b, start in enumerate(range(0, n_rows, PAIR_BLOCK)):
        rows = min(PAIR_BLOCK, n_rows - start)
        z = _block_stream(808, b).standard_normal((rows, n_steps))
        ends, sums = [], []
        for sign in (1.0, -1.0):
            s = np.full(rows, 100.0)
            c = np.zeros(rows)
            for i in range(n_steps):
                f_now = np.maximum(s - 100.0, 0.0)
                s = s * np.exp(drift + vol * (sign * z[:, i]))
                c = c + 0.5 * (f_now + np.maximum(s - 100.0, 0.0)) * dt
            ends.append(np.maximum(s - 100.0, 0.0))
            sums.append(c)
        terminal.append(0.5 * (ends[0] + ends[1]))
        paid.append(0.5 * (sums[0] + sums[1]))
    p, c = np.concatenate(terminal), np.concatenate(paid)
    times = [i * dt for i in range(n_steps)] + [PARAMS.t_horizon]
    mu_c = math.fsum(0.5 * (bs_expected_payoff(PARAMS, "call", t0, 100.0)
                            + bs_expected_payoff(PARAMS, "call", t1, 100.0)) * dt
                     for t0, t1 in zip(times, times[1:]))
    beta = np.cov(p, c)[0, 1] / np.var(c, ddof=1)
    direct = float(np.mean(p) - beta * (np.mean(c) - mu_c))
    gap = abs(a.value - direct)
    ok = gap <= 1e-12
    _report("AC-8", ok, f"zero-weight policy {a.value:.10f} vs direct terminal MC "
                        f"{direct:.10f}; |gap| = {gap:.2e}")
    assert ok
