import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from controlled_options import (
    ControlBounds,
    ExtrapolationError,
    GridError,
    MarketParams,
    NumericalFailure,
    PayoffSpec,
    StateGrid,
    ValueFunction,
    build_family,
    builtin_policies,
    default_grid,
    evaluate_policy,
    extract_policy,
    ladder_price,
    price_from_value,
    refinement_delta,
    solve,
)
from controlled_options.hjb import (
    _Axis,
    _peak_rate,
    _solve_z,
    _Transport,
    _z_step_matrix,
    refine_grid,
    solve_adapted,
    solve_linear_reduced,
    solve_normalized,
)

PARAMS = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
TAIL_PRICE = 6.868449472311021  # frozen quadrature oracle (see test_closed_form)


def _spec(**kw):
    base = dict(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded",
                g_kind="identity", weight_mode="adapted_fixed_cumulative",
                bounds=ControlBounds(0.0, 2.0))
    base.update(kw)
    return PayoffSpec(**base)


def _quiet_solve(solver, *args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return solver(*args, **kw)


def _history(solver, *args):
    """Every slice of the sweep, collected through its observer; [n] is time step n."""
    slices = {}
    solver(*args, observe=lambda n, slice_n, d1_wins: slices.__setitem__(n, slice_n))
    return np.stack([slices[n] for n in range(len(slices))])


def _quiet_ladder(*args, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return ladder_price(*args, **kw)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(GridError):
        StateGrid(y_nodes=np.array([0.0, 0.0, 1.0]), z_nodes=np.linspace(0, 1, 5), n_steps=4)
    with pytest.raises(GridError):
        StateGrid(y_nodes=np.linspace(0, 1, 5),
                  z_nodes=np.array([0.0, 0.1, 0.5, 1.0]), n_steps=4)  # nonuniform z
    with pytest.raises(GridError):
        StateGrid(y_nodes=np.linspace(0, 1, 5), z_nodes=np.linspace(0, 1, 5), n_steps=0)


@st.composite
def _axes_and_queries(draw):
    # nodes on a binary lattice are exact floats, so the check below measures
    # the lookup rather than the rounding of the axis itself
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        gaps = [draw(st.integers(1, 1000))] * (n - 1)
    else:
        gaps = draw(st.lists(st.integers(1, 1000), min_size=n - 1, max_size=n - 1))
    start = draw(st.integers(-1000, 1000))
    nodes = 2.0 ** draw(st.integers(-20, 20)) * (start + np.concatenate([[0], np.cumsum(gaps)]))
    span = nodes[-1] - nodes[0]
    queries = draw(st.lists(st.floats(nodes[0] - span, nodes[-1] + span), min_size=1, max_size=50))
    return nodes, np.array(queries)


@settings(max_examples=200, deadline=None)
@given(case=_axes_and_queries())
def test_axis_nearest_picks_a_closest_node(case):
    nodes, q = case
    got = _Axis(nodes, "q").nearest(q)
    dist = np.abs(nodes[None, :] - q[:, None])
    cell = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
    width = nodes[cell + 1] - nodes[cell]
    assert np.all(dist[np.arange(q.size), got] - dist.min(axis=1) <= 1e-12 * width)


def test_axis_nearest_breaks_ties_low():
    for nodes, q, want in (([0.0, 1.0, 2.0], [0.5, 1.5], [0, 1]),  # uniform
                           ([0.0, 1.0, 3.0], [0.5, 2.0], [0, 1])):  # searched
        assert _Axis(np.array(nodes), "q").nearest(np.array(q)).tolist() == want


@settings(max_examples=60, deadline=None)
@given(normalized=st.booleans(), ny=st.integers(3, 199), eps=st.floats(0.01, 0.2))
@example(normalized=True, ny=41, eps=0.2)  # a fine node fell on a coarse one: 40 nodes
@example(normalized=False, ny=32, eps=0.2)  # a band node fell on a base one: 31 nodes
def test_default_grid_lays_the_asked_y_count(normalized, ny, eps):
    spec = _spec(weight_mode="normalized") if normalized else _spec()
    if not normalized:
        ny = max(ny, 5)
    grid = default_grid(PARAMS, spec, build_family(eps, spec, PARAMS), ny=ny, nz=5, n_steps=4)
    assert grid.y_nodes.size == ny


# The transport step as first written, before the buffered kernel: fresh
# arrays throughout, each cell's width by subtraction, and the x gather by
# take_along_axis.  The kernel must reproduce it bit for bit.
def _oracle_locate(nodes, q):
    d = np.diff(nodes)
    q = np.clip(q, nodes[0], nodes[-1])
    if np.allclose(d, d[0], rtol=1e-9):
        pos = (q - nodes[0]) * (1.0 / d[0])
        idx = np.minimum(pos.astype(np.int64), nodes.size - 2)
        frac = pos - idx
    else:
        idx = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
        frac = (q - nodes[idx]) / (nodes[idx + 1] - nodes[idx])
    return idx, np.clip(frac, 0.0, 1.0)


def _oracle_transport(values, grid, foot_y, pay):
    iy, wy = _oracle_locate(grid.y_nodes, foot_y)
    wy = wy[:, None]
    cand = (1.0 - wy) * values[..., iy, :] + wy * values[..., iy + 1, :]
    if grid.x_nodes is None:
        return cand + pay
    ix, wx = _oracle_locate(grid.x_nodes, grid.x_nodes[:, None, None] + pay)
    return ((1.0 - wx) * np.take_along_axis(cand, ix, axis=0)
            + wx * np.take_along_axis(cand, ix + 1, axis=0))


@st.composite
def _transport_axes(draw):
    """An axis from 0 of each kind the grids use: uniform, a knee, [0] + geomspace."""
    n = draw(st.integers(3, 30))
    top = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(["uniform", "knee", "geometric"]))
    if kind == "uniform":
        return np.linspace(0.0, top, n)
    if kind == "knee":
        n_dense = max(2, int(round(0.8 * n)))
        knee = top * draw(st.floats(0.01, 0.3))
        return np.concatenate([np.linspace(0.0, 3.0 * knee, n_dense),
                               np.linspace(3.0 * knee, top, n - n_dense + 1)[1:]])
    return np.concatenate([[0.0], np.geomspace(top * 10.0 ** draw(st.floats(-6.0, -1.0)), top, n - 1)])


def _feet(nodes):
    """Every node, one ulp either side of each, and points beyond both ends."""
    span = nodes[-1] - nodes[0]
    return np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf),
                           [nodes[0] - 0.5 * span, nodes[-1] + 0.5 * span]])


@settings(max_examples=60, deadline=None)
@given(x=_transport_axes(), y=_transport_axes(), y0=st.sampled_from([0.0, -1.5, 3.25]),
       halve=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_transport_kernel_matches_oracle_bit_for_bit(x, y, y0, halve, seed):
    feet_x = _feet(x)
    grid = StateGrid(x_nodes=x, y_nodes=y0 + y, z_nodes=np.linspace(0.0, 1.0, feet_x.size),
                     n_steps=1)
    if halve:
        grid = refine_grid(grid)
        feet_x = _feet(grid.x_nodes)
        grid = replace(grid, z_nodes=np.linspace(0.0, 1.0, feet_x.size))
    feet_y = _feet(grid.y_nodes)
    ny = grid.y_nodes.size
    # x node 0 is 0, so its feet are the x-shifts themselves: every entry of feet_x
    pay = np.broadcast_to(feet_x, (ny, feet_x.size))
    rng = np.random.default_rng(seed)
    for g in (grid, replace(grid, x_nodes=None)):
        values = rng.standard_normal(g.shape)
        kernel = _Transport(g)
        out = np.empty(g.shape)
        for start in range(0, feet_y.size, ny):
            foot_y = np.resize(feet_y[start:], ny)
            want = _oracle_transport(values, g, foot_y, pay)
            assert kernel(values, foot_y, pay, out=out) is out
            assert np.array_equal(out, want)


def test_solver_rejects_uncovering_grids():
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    z0 = math.log(100.0)
    bad_y = StateGrid(y_nodes=np.linspace(0.0, 1.02, 21),
                      z_nodes=np.linspace(z0 - 1, z0 + 1, 41), n_steps=20)
    with pytest.raises(GridError):
        solve_linear_reduced(PARAMS, spec, fam, bad_y)
    off_z = StateGrid(y_nodes=np.linspace(0.0, 1.3, 21),
                      z_nodes=np.linspace(z0 + 1, z0 + 2, 41), n_steps=20)
    with pytest.raises(GridError):
        solve_linear_reduced(PARAMS, spec, fam, off_z)
    small_x = StateGrid(x_nodes=np.linspace(0.0, 1.0, 9),
                        y_nodes=np.linspace(0.0, 1.3, 21),
                        z_nodes=np.linspace(z0 - 1, z0 + 1, 41), n_steps=20)
    with pytest.raises(GridError):
        solve_adapted(PARAMS, spec, fam, small_x)


@pytest.mark.parametrize("variant,overrides", [("adapted", {"g_kind": "cap", "g_cap": 8.0}),
                                               ("normalized", {"weight_mode": "normalized"})])
def test_planar_grid_refused_by_3d_variants(variant, overrides):
    # a (y, z) grid has no x axis to carry the accumulated payment
    z0 = math.log(100.0)
    planar = StateGrid(y_nodes=np.linspace(0.0, 1.3, 21),
                       z_nodes=np.linspace(z0 - 1, z0 + 1, 41), n_steps=4)
    with pytest.raises(GridError, match=f"the {variant} variant needs an x axis"):
        solve(PARAMS, _spec(**overrides), 0.1, planar)


def test_coarse_grid_warns_about_cutoff_resolution():
    spec = _spec()
    fam = build_family(0.05, spec, PARAMS)
    z0 = math.log(100.0)
    coarse = StateGrid(y_nodes=np.linspace(0.0, 1.3, 11),
                       z_nodes=np.linspace(z0 - 1, z0 + 1, 31), n_steps=40)
    with pytest.warns(RuntimeWarning):
        solve_linear_reduced(PARAMS, spec, fam, coarse)


# ---------------------------------------------------------------------------
# degenerate payoffs propagate exactly
# ---------------------------------------------------------------------------

def test_zero_rate_payoff_keeps_terminal_reward():
    # a strike far above the grid makes the payment rate vanish identically
    spec = _spec(f_kind="call", f_strike=1e9, g_kind="cap", g_cap=5.0)
    fam = build_family(0.1, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, nx=11, ny=15, nz=21, n_steps=30)
    history = _history(solve_adapted, PARAMS, spec, fam, grid)
    terminal = fam.terminal_reward(grid.x_nodes)[:, None, None]
    assert len(history) == grid.n_steps + 1
    for n in range(len(history)):
        assert np.allclose(history[n], terminal, atol=1e-10)


def test_reduced_zero_rate_gives_zero_value():
    spec = _spec(f_kind="call", f_strike=1e9)
    fam = build_family(0.1, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, ny=15, nz=21, n_steps=30)
    history = _history(solve_linear_reduced, PARAMS, spec, fam, grid)
    assert len(history) == grid.n_steps + 1
    assert np.allclose(history, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# cross-route agreement
# ---------------------------------------------------------------------------

def test_reduced_ladder_matches_quadrature_within_2pct():
    est, raw = _quiet_ladder(PARAMS, _spec(), epsilons=(0.2, 0.1, 0.05))
    assert abs(est.value - TAIL_PRICE) <= 0.02 * TAIL_PRICE
    assert all(r.value <= est.value + 0.05 for r in raw)  # raw rungs approach from below


def test_adapted_equals_reduced_for_identity_reward():
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    g_r = default_grid(PARAMS, spec, fam, ny=31, nz=41, n_steps=80)
    # the x axis that default_grid lays for a reward with no kink
    x_max = spec.bounds.d1 * PARAMS.t_horizon * _peak_rate(PARAMS, fam, g_r.z_nodes) * (1.0 + 1e-9)
    g_a = replace(g_r, x_nodes=np.linspace(0.0, x_max, 31))
    p_r = price_from_value(_quiet_solve(solve_linear_reduced, PARAMS, spec, fam, g_r), PARAMS)
    p_a = price_from_value(_quiet_solve(solve_adapted, PARAMS, spec, fam, g_a), PARAMS)
    # the value is linear in accumulated payout, so both routes coincide
    assert p_a.value == pytest.approx(p_r.value, rel=1e-9)


def test_singleton_control_matches_forced_mc():
    # a y-grid commensurate with u dt makes the weight transport exact,
    # so a deep epsilon ladder prices the forced control sharply
    spec = _spec(bounds=ControlBounds(1.0, 1.0))
    z0 = math.log(100.0)
    grid = StateGrid(y_nodes=np.arange(0.0, 1.1 + 1e-12, 0.005),
                     z_nodes=np.linspace(z0 - 1.0, z0 + 1.0, 81), n_steps=200)
    est, _ = _quiet_ladder(PARAMS, spec, epsilons=(0.025, 0.0125), grid=grid)
    pols = builtin_policies(spec, PARAMS)
    mc = evaluate_policy(pols[0], spec, PARAMS, 120_000, 250, seed=8)
    assert abs(est.value - mc.value) <= 0.02 * abs(mc.value) + 3.0 * mc.stderr


def test_deterministic_spot_matches_window_search():
    # sigma ~ 0: S(t) = s0 e^{rt}; the best single spending window is the oracle
    params = MarketParams(s0=100.0, r=0.02, sigma=1e-12, t_horizon=1.0)
    spec = _spec(f_kind="call", f_strike=80.0)
    ts = np.linspace(0.0, 1.0, 20001)
    f = np.exp(0.02 * (1.0 - ts)) * np.maximum(100.0 * np.exp(0.02 * ts) - 80.0, 0.0)
    best = -np.inf
    for start in np.linspace(0.0, 0.5, 1000):
        mask = (ts >= start) & (ts <= start + 0.5)
        best = max(best, 2.0 * np.trapezoid(f[mask], ts[mask]))
    oracle = math.exp(-0.02) * best
    z0 = math.log(100.0)
    phi_max = math.exp(0.02) * (100.0 * math.exp(0.02) - 80.0) * 1.001
    grid = StateGrid(
        x_nodes=np.linspace(0.0, 2.0 * phi_max, 41),
        y_nodes=np.arange(0.0, 1.3 + 1e-12, 0.005),  # commensurate with d1 dt
        z_nodes=np.linspace(z0 - 1e-4, z0 + 0.02 + 1e-4, 161),
        n_steps=200,
    )
    est, _ = _quiet_ladder(params, spec, epsilons=(0.05, 0.025), grid=grid)
    assert abs(est.value - oracle) <= 0.01 * oracle


def test_price_nondecreasing_in_d1():
    vals = []
    for d1 in (1.5, 2.0, 3.0):
        spec = _spec(bounds=ControlBounds(0.0, d1))
        est, _ = _quiet_ladder(PARAMS, spec, epsilons=(0.1,),
                               grid={"ny": 31, "nz": 41, "n_steps": 80})
        vals.append(est.value)
    assert vals[0] <= vals[1] + 1e-9 and vals[1] <= vals[2] + 1e-9


def test_price_nonincreasing_in_d0():
    vals = []
    for d0 in (0.0, 0.4, 0.8):
        spec = _spec(bounds=ControlBounds(d0, 2.0))
        est, _ = _quiet_ladder(PARAMS, spec, epsilons=(0.1,),
                               grid={"ny": 31, "nz": 41, "n_steps": 80})
        vals.append(est.value)
    assert vals[0] >= vals[1] - 1e-9 and vals[1] >= vals[2] - 1e-9


# ---------------------------------------------------------------------------
# normalized mode
# ---------------------------------------------------------------------------

def test_normalized_terminal_slice_exact():
    spec = _spec(weight_mode="normalized", f_kind="identity", payment_timing="spot")
    fam = build_family(0.1, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, nx=13, ny=15, nz=21, n_steps=20)
    history = _history(solve_normalized, PARAMS, spec, fam, grid)
    want = fam.ratio_reward(grid.x_nodes[:, None], grid.y_nodes[None, :])[:, :, None]
    assert np.array_equal(history[-1], np.broadcast_to(want, history[-1].shape))


def test_normalized_constant_rate_prices_to_one():
    # frozen spot at 1 makes the payment rate constant: running the weight
    # flat out gives x(T) = y(T) = d1 T and the price tends to g(1) = 1
    params = MarketParams(s0=1.0, r=0.0, sigma=1e-12, t_horizon=1.0)
    spec = PayoffSpec(f_kind="identity", g_kind="identity", weight_mode="normalized",
                      bounds=ControlBounds(0.0, 2.0), payment_timing="spot")
    eps = 0.1
    fam = build_family(eps, spec, params)
    # independent oracle: integrate the state equations under u = d1
    n_fine = 100_000
    dtf = 1.0 / n_fine
    xo = yo = 0.0
    for i in range(n_fine):
        h = float(fam.effective_control(2.0, i * dtf))
        xo += h * float(fam.payoff_rate(1.0, i * dtf)) * dtf
        yo += h * dtf
    oracle = float(fam.ratio_reward(xo, yo))
    assert oracle == pytest.approx(1.0, abs=1e-3)
    # commensurate axes: every transport foot lands on a node (h dt = 0.02)
    grid = StateGrid(
        x_nodes=np.arange(0.0, 2.02 + 1e-12, 0.02),
        y_nodes=np.arange(0.0, 3.0 + 1e-12, 0.02),
        z_nodes=np.linspace(-1e-6, 1e-6, 7),
        n_steps=100,
    )
    vf = _quiet_solve(solve_normalized, params, spec, fam, grid)
    got = price_from_value(vf, params).value
    assert abs(got - oracle) <= 0.02


def test_normalized_value_invariant_under_taller_y_axis():
    # the weight state cannot pass d1 T = 2, so nodes above d1 T + 1 are inert;
    # the grid is sized so interpolation leakage beyond the reachable set is
    # damped below the tolerance (ratio h dt / dy = 0.2 over 20 spare cells)
    spec = _spec(weight_mode="normalized")
    fam = build_family(0.1, spec, PARAMS)
    z0 = math.log(100.0)
    z = np.linspace(z0 - 1.0, z0 + 1.0, 41)
    y_a = np.linspace(0.0, 4.0, 81)
    dy = y_a[1] - y_a[0]
    y_b = np.concatenate([y_a, y_a[-1] + dy * np.arange(1, 11)])
    t_probe = np.linspace(0.0, 1.0, 9)[:, None]
    phi_max = float(np.max(fam.payoff_rate(np.exp(z)[None, :], t_probe)))
    x = np.linspace(0.0, 2.0 * phi_max * 1.001, 25)
    va = solve_normalized(PARAMS, spec, fam, StateGrid(x_nodes=x, y_nodes=y_a, z_nodes=z, n_steps=200))
    vb = solve_normalized(PARAMS, spec, fam, StateGrid(x_nodes=x, y_nodes=y_b, z_nodes=z, n_steps=200))
    pa = price_from_value(va, PARAMS).value
    pb = price_from_value(vb, PARAMS).value
    assert abs(pa - pb) <= 1e-10


# ---------------------------------------------------------------------------
# policy extraction
# ---------------------------------------------------------------------------

def test_extracted_policy_is_bang_bang_and_ties_go_high():
    # the sweep records cand(d1) >= cand(d0); where the two candidates are
    # equal everywhere, the whole table is a tie and so selects d1
    dims = {"ny": 21, "nz": 31, "n_steps": 40}
    zero_rate = _spec(f_kind="call", f_strike=1e9)  # the payment rate vanishes identically
    singleton = _spec(bounds=ControlBounds(1.0, 1.0))
    for spec, d1 in ((zero_rate, 2.0), (singleton, 1.0)):
        pol = _quiet_solve(extract_policy, PARAMS, spec, 0.1, dims)
        assert pol.table.dtype == bool
        assert pol.table.shape == (40,) + pol.grid.shape
        assert np.all(pol.table)
        u = pol.evaluate(0.2, 0.0, np.array([0.1, 0.5]), np.array([60.0, 140.0]))
        assert set(np.unique(u)) == {d1}


def test_extracted_policy_recovers_deferral_feedback():
    # the deferral rule in feedback form: spend exactly when the remaining
    # budget barely fits into the remaining horizon at full rate.  The
    # comparison region is restricted to log-spots within 3 sigma sqrt(T):
    # further out the spend-now/spend-later margin decays like the far
    # tail of the terminal law and no finite grid resolves its sign.
    spec = _spec()
    eps = 0.025
    z0 = math.log(100.0)
    # y spacing divides d1 dt, so weight transport lands on nodes
    grid = StateGrid(y_nodes=np.arange(0.0, 1.3 + 1e-12, 0.005),
                     z_nodes=np.linspace(z0 - 1.0, z0 + 1.0, 81), n_steps=200)
    pol = _quiet_solve(extract_policy, PARAMS, spec, eps, grid)
    assert pol.table.dtype == bool  # bang-bang by construction
    times = np.linspace(0.0, 1.0, grid.n_steps + 1)[:-1]
    tt = times[:, None, None]
    yy = grid.y_nodes[None, 1:-1, None]
    zz = grid.z_nodes[None, None, 1:-1]
    interior = pol.table[:, 1:-1, 1:-1]
    feedback = np.broadcast_to(tt >= 1.0 - (1.0 - yy) / 2.0, interior.shape)
    open_loop = np.broadcast_to((tt >= 0.5) * np.ones_like(yy), interior.shape)
    mask = np.broadcast_to((yy < 1.0 - eps) & (np.abs(zz - z0) <= 0.6), interior.shape)
    frac = ((interior == feedback) & mask).sum() / mask.sum()
    frac_open = ((interior == open_loop) & mask).sum() / mask.sum()
    print(f"feedback-rule agreement {frac:.3f}, open-loop agreement {frac_open:.3f}")
    assert frac >= 0.95


def test_extracted_policy_beats_builtins_by_mc():
    spec = _spec()
    fam = build_family(0.05, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam)
    pol = _quiet_solve(extract_policy, PARAMS, spec, 0.05, grid)
    mine = evaluate_policy(pol, spec, PARAMS, 60_000, 200, seed=77)
    for other in builtin_policies(spec, PARAMS):
        other_est = evaluate_policy(other, spec, PARAMS, 60_000, 200, seed=77)
        assert mine.value >= other_est.value - 3.0 * math.hypot(mine.stderr, other_est.stderr)


def test_extracted_policy_beats_floor_on_normalized_contract():
    # the table is the sweep's own argmax; a policy rebuilt from value
    # gradients priced 7.57 +- 0.06 here, below spending the floor (7.92)
    spec = _spec(weight_mode="normalized")
    dims = {"nx": 27, "ny": 27, "nz": 53, "n_steps": 130}
    pol = _quiet_solve(extract_policy, PARAMS, spec, 0.05, dims)
    floor = next(p for p in builtin_policies(spec, PARAMS) if p.name == "floor")
    mine = evaluate_policy(pol, spec, PARAMS, 20_000, 100, seed=7)
    base = evaluate_policy(floor, spec, PARAMS, 20_000, 100, seed=7)
    assert mine.value >= base.value - 3.0 * math.hypot(mine.stderr, base.stderr)


# ---------------------------------------------------------------------------
# price readout
# ---------------------------------------------------------------------------

def test_price_readout_of_constant_value():
    params = MarketParams(s0=100.0, r=0.07, sigma=0.2, t_horizon=1.0)
    z0 = math.log(100.0)
    grid = StateGrid(y_nodes=np.linspace(0, 1.3, 5),
                     z_nodes=np.linspace(z0 - 1, z0 + 1, 5), n_steps=4)
    vf = ValueFunction(grid=grid, variant="linear_reduced", epsilon=0.1,
                       values=np.full((5, 5), 3.5))
    est = price_from_value(vf, params)
    assert est.value == pytest.approx(3.5 * math.exp(-0.07))
    est0 = price_from_value(
        ValueFunction(grid=grid, variant="linear_reduced", epsilon=0.1,
                      values=np.full((5, 5), 3.5)),
        PARAMS,
    )
    assert est0.value == pytest.approx(3.5)  # r = 0: no discounting


def test_price_readout_outside_hull_is_an_error():
    grid = StateGrid(y_nodes=np.linspace(0, 1.3, 5),
                     z_nodes=np.linspace(10.0, 11.0, 5), n_steps=4)
    vf = ValueFunction(grid=grid, variant="linear_reduced", epsilon=0.1,
                       values=np.zeros((5, 5)))
    with pytest.raises(ExtrapolationError):
        price_from_value(vf, PARAMS)
    # node 0 is read as the origin: a y axis that starts at -0.25 priced
    # the value with 1.25 budget units, 7.5287 against 6.2903
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    base = default_grid(PARAMS, spec, fam, ny=21, nz=31, n_steps=40)
    below = StateGrid(y_nodes=np.concatenate([[-0.25], base.y_nodes]), z_nodes=base.z_nodes,
                      n_steps=base.n_steps)
    with pytest.raises(ExtrapolationError):
        price_from_value(_quiet_solve(solve_linear_reduced, PARAMS, spec, fam, below), PARAMS)


# ---------------------------------------------------------------------------
# scheme structure
# ---------------------------------------------------------------------------

def test_discrete_comparison_principle():
    # nodewise-dominating reward data must produce nodewise-dominating values
    lo_strike = _spec(f_kind="call", f_strike=90.0)
    hi_strike = _spec(f_kind="call", f_strike=110.0)
    fam_lo = build_family(0.1, lo_strike, PARAMS)
    fam_hi = build_family(0.1, hi_strike, PARAMS)
    grid = default_grid(PARAMS, lo_strike, fam_lo, ny=21, nz=31, n_steps=40)
    v_lo = _quiet_solve(_history, solve_linear_reduced, PARAMS, lo_strike, fam_lo, grid)
    v_hi = _quiet_solve(_history, solve_linear_reduced, PARAMS, hi_strike, fam_hi, grid)
    assert np.all(v_lo >= v_hi - 1e-12)


def test_values_bounded_by_data():
    # discrete maximum principle: no value exceeds what the reward data
    # can pay (full effective budget at the largest capped rate)
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, ny=21, nz=31, n_steps=40)
    history = _quiet_solve(_history, solve_linear_reduced, PARAMS, spec, fam, grid)
    t_probe = np.linspace(0.0, 1.0, 9)[:, None]
    phi_max = float(np.max(fam.payoff_rate(np.exp(grid.z_nodes)[None, :], t_probe)))
    budget = float(fam.budget_cutoff_integral(2.0))  # saturated past the cutoff
    assert history.min() >= -1e-12
    assert history.max() <= budget * phi_max * (1.0 + 1e-9)


def test_epsilon_domination():
    spec = _spec()
    est, raw = _quiet_ladder(PARAMS, spec, epsilons=(0.2, 0.1, 0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        delta = refinement_delta(PARAMS, spec, raw[-1])
    finest = raw[-1].value
    for r in raw:
        assert r.value <= finest + delta + 1e-9


# AC-2 at eps = 0.1 on a 9 x 11 x 15 grid with 12 steps: the exact t = 0
# price, the number of d1 cells in the policy table, and the exact Monte
# Carlo price of that table (20k paths, 40 steps, seed 11).  Any change to
# the order of the sweep's arithmetic, or to the table lookup, shows here.
PIN_DIMS = {"nx": 9, "ny": 11, "nz": 15, "n_steps": 12}
PINS = {
    "linear_reduced": ({}, "0x1.958612693ccb6p+2", 1064, "0x1.b26e95f816c30p+2"),
    "adapted": ({"g_kind": "cap", "g_cap": 8.0}, "0x1.92c89d9b78af0p+1", 14627, "0x1.f11d6ba8c5d96p+1"),
    "normalized": ({"weight_mode": "normalized"}, "0x1.edf3f2126a14bp+4", 7321, "0x1.f4e551c827e0bp+2"),
}


def _pin_price(variant, params, **scaled):
    spec = _spec(**{**PINS[variant][0], **scaled})
    vf = _quiet_solve(solve, params, spec, 0.1, PIN_DIMS)
    return price_from_value(vf, params).value


@pytest.mark.parametrize("variant", sorted(PINS))
def test_sweep_is_pinned_bit_for_bit(variant):
    overrides, price, d1_cells, mc_price = PINS[variant]
    assert _pin_price(variant, PARAMS).hex() == price
    spec = _spec(**overrides)
    pol = _quiet_solve(extract_policy, PARAMS, spec, 0.1, PIN_DIMS)
    assert int(pol.table.sum()) == d1_cells
    assert evaluate_policy(pol, spec, PARAMS, 20_000, 40, seed=11).value.hex() == mc_price


@pytest.mark.parametrize("variant", sorted(PINS))
def test_observed_arrays_are_not_reused(variant):
    # the sweep writes its candidates into reused buffers; what it hands the
    # observer must stay as it was seen, or _history and extract_policy break
    kept = []

    def keep(n, slice_n, d1_wins):
        kept.extend((a, a.copy()) for a in (slice_n, d1_wins) if a is not None)

    _quiet_solve(solve, PARAMS, _spec(**PINS[variant][0]), 0.1, PIN_DIMS, observe=keep)
    assert len(kept) == 2 * PIN_DIMS["n_steps"] + 1
    assert all(np.array_equal(a, seen) for a, seen in kept)


@settings(max_examples=10, deadline=None)
@given(lam=st.floats(-2.0, 2.0).map(lambda e: 10.0**e))
def test_price_scales_with_s0(lam):
    # the default grid follows s0 (z shifts by log lam, x scales by lam),
    # so scaling the spot, the strike and the cap scales the price
    params = MarketParams(s0=100.0 * lam, r=0.0, sigma=0.2, t_horizon=1.0)
    for variant, (overrides, price, _, _) in PINS.items():
        scaled = {"f_strike": 100.0 * lam}
        if "g_cap" in overrides:
            scaled["g_cap"] = overrides["g_cap"] * lam
        got = _pin_price(variant, params, **scaled) / lam
        assert got == pytest.approx(float.fromhex(price), rel=1e-10, abs=0.0)


def test_diverging_ladder_raises_numerical_failure():
    # on this coarse grid the normalized rungs read 9.35, 11.96, 15.49:
    # Richardson would report 19.01, above E[max S] - K = 16.98
    spec = _spec(weight_mode="normalized")
    with pytest.raises(NumericalFailure, match="2.61501 then 3.52424"):
        _quiet_ladder(PARAMS, spec, grid={"nx": 21, "ny": 21, "nz": 41, "n_steps": 100})


def test_heat_kernel_rollback_second_order():
    # r = sigma^2/2 makes the log-price drift vanish: pure diffusion
    sigma = 0.3
    params = MarketParams(s0=100.0, r=0.5 * sigma**2, sigma=sigma, t_horizon=1.0)
    z0 = math.log(100.0)
    w = 0.2
    errs = []
    for nz, nt in ((81, 400), (161, 1600), (321, 6400)):
        z = np.linspace(z0 - 2.0, z0 + 2.0, nz)
        terminal = np.exp(-0.5 * ((z - z0) / w) ** 2)
        ab = _z_step_matrix(params, z, params.t_horizon / nt)
        got = terminal
        for _ in range(nt):
            got = _solve_z(ab, got[None, :])[0]
        spread = math.sqrt(w * w + sigma * sigma * params.t_horizon)
        exact = (w / spread) * np.exp(-0.5 * ((z - z0) / spread) ** 2)
        sel = np.abs(z - z0) <= 1.0
        errs.append(float(np.max(np.abs(got - exact)[sel])))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    print(f"observed spatial orders: {order1:.2f}, {order2:.2f}")
    assert order1 >= 1.8 and order2 >= 1.8


def test_nan_from_family_raises_numerical_failure():
    spec = _spec()

    class PoisonFamily:
        epsilon = 0.1

        def payoff_rate(self, s, t):
            return np.full(np.shape(s), np.nan)

        def budget_cutoff_integral(self, y):
            return np.asarray(y, dtype=float)

    z0 = math.log(100.0)
    grid = StateGrid(y_nodes=np.linspace(0, 1.3, 9),
                     z_nodes=np.linspace(z0 - 1, z0 + 1, 9), n_steps=6)
    with pytest.raises(NumericalFailure) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solve_linear_reduced(PARAMS, spec, PoisonFamily(), grid)
    assert err.value.time_index == 5
