import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import solve_banded

from controlled_options import (
    ControlBounds,
    MarketParams,
    NumericalFailure,
    ParameterError,
    PayoffSpec,
    PriceEstimate,
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
from controlled_options import hjb
from controlled_options.hjb import (
    DESK_EPSILONS,
    TableRule,
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
from controlled_options.payoffs import F_KINDS, G_KINDS, TIMINGS, WEIGHT_MODES

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
    with pytest.raises(ParameterError) as err:
        StateGrid(y_nodes=np.array([0.0, 0.0, 1.0]), z_nodes=np.linspace(0, 1, 5), n_steps=4)
    assert err.value.field == "grid.y_nodes"
    with pytest.raises(ParameterError) as err:
        StateGrid(y_nodes=np.linspace(0, 1, 5),
                  z_nodes=np.array([0.0, 0.1, 0.5, 1.0]), n_steps=4)  # nonuniform z
    assert err.value.field == "grid.z_nodes"
    with pytest.raises(ParameterError) as err:
        StateGrid(y_nodes=np.linspace(0, 1, 5), z_nodes=np.linspace(0, 1, 5), n_steps=0)
    assert err.value.field == "grid.n_steps"


def _refine_each_axis(grid):
    """``refine_grid`` over every axis of the grid in turn: x (if any), y, z, then t."""
    for axis in ("y", "z", "t") if grid.x_nodes is None else ("x", "y", "z", "t"):
        grid = refine_grid(grid, axis)
    return grid


def _refine_all_at_once(grid):
    """Every spacing halved (node counts 2n - 1) and the step count doubled in one go."""

    def halve(nodes):
        out = np.empty(nodes.size * 2 - 1)
        out[0::2] = nodes
        out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
        return out

    return StateGrid(y_nodes=halve(grid.y_nodes), z_nodes=halve(grid.z_nodes), n_steps=2 * grid.n_steps,
                     x_nodes=None if grid.x_nodes is None else halve(grid.x_nodes))


@pytest.mark.parametrize("variant", ["linear_reduced", "adapted", "normalized"])
def test_refining_each_axis_in_turn_is_the_all_axes_refinement(variant):
    spec = _spec(**{"adapted": {"g_kind": "cap", "g_cap": 8.0},
                    "normalized": {"weight_mode": "normalized"}}.get(variant, {}))
    grid = default_grid(PARAMS, spec, build_family(0.1, spec, PARAMS), nx=9, ny=11, nz=15, n_steps=12)
    assert (grid.x_nodes is None) == (variant == "linear_reduced")
    got, want = _refine_each_axis(grid), _refine_all_at_once(grid)
    assert got.n_steps == want.n_steps == 24
    for axis in ("x", "y", "z"):
        g, w = getattr(got, f"{axis}_nodes"), getattr(want, f"{axis}_nodes")
        assert (g is None and w is None) or g.tobytes() == w.tobytes()
    # one axis alone leaves the others as they were
    for axis in ("y", "z") if grid.x_nodes is None else ("x", "y", "z"):
        one = refine_grid(grid, axis)
        assert one.n_steps == grid.n_steps
        for other in ("x", "y", "z"):
            g, base = getattr(one, f"{other}_nodes"), getattr(grid, f"{other}_nodes")
            assert g is base if other != axis else g.size == 2 * base.size - 1
    if grid.x_nodes is None:
        with pytest.raises(ParameterError) as err:
            refine_grid(grid, "x")
        assert err.value.field == "grid.x_nodes"


@st.composite
def _axes_and_queries(draw):
    # nodes on a binary lattice are exact floats, so the check below measures
    # the lookup rather than the rounding of the axis itself
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["uniform", "ragged", "crowded"]))
    if kind == "uniform":
        gaps = [draw(st.integers(1, 1000))] * (n - 1)
    elif kind == "ragged":
        gaps = draw(st.lists(st.integers(1, 1000), min_size=n - 1, max_size=n - 1))
    else:
        # one wide cell among unit ones: span over smallest gap passes 2^15, so
        # the 2^16 buckets of nearest's table are capped and hold several midpoints
        gaps = draw(st.lists(st.integers(1, 2), min_size=n - 1, max_size=n - 1))
        gaps[draw(st.integers(0, n - 2))] = draw(st.integers(2**17, 2**22))
    start = draw(st.integers(-1000, 1000))
    nodes = 2.0 ** draw(st.integers(-20, 20)) * (start + np.concatenate([[0], np.cumsum(gaps)]))
    span = nodes[-1] - nodes[0]
    mids = nodes[:-1] + 0.5 * np.diff(nodes)
    marks = np.concatenate([nodes, mids])
    queries = draw(st.lists(st.floats(nodes[0] - span, nodes[-1] + span), min_size=1, max_size=50))
    # every node and midpoint, their float neighbours, and points off both
    # ends, as far off as a float goes
    queries += [*marks, *np.nextafter(marks, -np.inf), *np.nextafter(marks, np.inf),
                nodes[0] - span, nodes[-1] + span, -1e300, 1e300, -np.inf, np.inf]
    return nodes, np.array(queries)


@settings(max_examples=200, deadline=None)
@given(case=_axes_and_queries())
def test_axis_nearest_picks_a_closest_node(case):
    nodes, q = case
    got = _Axis(nodes, "q").nearest(q)
    # the lookup counts the midpoints strictly below each query, exactly
    mids = nodes[:-1] + 0.5 * np.diff(nodes)
    assert np.array_equal(got, np.searchsorted(mids, q, side="left"))
    # the bucket clamp sends the farthest queries to the end nodes
    far = np.abs(q) >= 1e300
    assert np.array_equal(got[far], np.where(q[far] < 0.0, 0, nodes.size - 1))
    q, got = q[~far], got[~far]
    dist = np.abs(nodes[None, :] - q[:, None])
    cell = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
    width = nodes[cell + 1] - nodes[cell]
    assert np.all(dist[np.arange(q.size), got] - dist.min(axis=1) <= 1e-12 * width)


def test_axis_nearest_breaks_ties_low():
    for nodes, q, want in (([0.0, 1.0, 2.0], [0.5, 1.5], [0, 1]),  # uniform
                           ([0.0, 1.0, 3.0], [0.5, 2.0], [0, 1])):  # searched
        assert _Axis(np.array(nodes), "q").nearest(np.array(q)).tolist() == want


def test_axis_locate_extrapolates_past_either_end_and_leaves_its_query():
    q = np.array([-1.0, 0.0, 2.0, 3.0, 5.0])
    idx, w = _Axis(np.array([0.0, 1.0, 3.0]), "q").locate(q)
    assert idx.tolist() == [0, 0, 1, 1, 1]
    assert w.tolist() == [-1.0, 0.0, 0.5, 1.0, 2.0]
    assert q.tolist() == [-1.0, 0.0, 2.0, 3.0, 5.0]


@settings(max_examples=60, deadline=None)
@given(normalized=st.booleans(), ny=st.integers(3, 199), eps=st.floats(0.01, 0.2))
@example(normalized=True, ny=41, eps=0.2)  # a fine node fell on a coarse one: 40 nodes
@example(normalized=False, ny=32, eps=0.2)
def test_default_grid_lays_the_asked_y_count(normalized, ny, eps):
    spec = _spec(weight_mode="normalized") if normalized else _spec()
    grid = default_grid(PARAMS, spec, build_family(eps, spec, PARAMS), ny=ny, nz=5, n_steps=4)
    assert grid.y_nodes.size == ny


# The transport step as first written, before the buffered kernel: fresh
# arrays throughout, each cell's width by subtraction, the x gather by
# take_along_axis, and every foot located again at every call.  A foot
# past either end of an axis extrapolates the end cell.  The kernel must
# reproduce it bit for bit.
def _oracle_locate(nodes, q):
    idx = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, nodes.size - 2)
    return idx, (q - nodes[idx]) / (nodes[idx + 1] - nodes[idx])


def _oracle_transport(values, grid, foot_y, pay):
    iy, wy = _oracle_locate(grid.y_nodes, foot_y)
    wy = wy[:, None]
    cand = (1.0 - wy) * values[..., iy, :] + wy * values[..., iy + 1, :]
    if grid.x_nodes is None:
        return cand + pay
    ix, wx = _oracle_locate(grid.x_nodes, grid.x_nodes[:, None, None] + pay)
    return ((1.0 - wx) * np.take_along_axis(cand, ix, axis=0)
            + wx * np.take_along_axis(cand, ix + 1, axis=0))


class _OracleTransport:
    """``_Transport``'s interface over ``_oracle_transport``: nothing is kept between calls."""

    def __init__(self, grid):
        self.grid = grid

    def __call__(self, cur, foot_y, gain, phi, out, slot=0):
        out[...] = _oracle_transport(cur, self.grid, foot_y, gain[:, None] * phi[None, :])
        return out


@st.composite
def _transport_axes(draw, kinds=("uniform", "knee", "geometric")):
    """An axis from 0 of three kinds: uniform, a knee (dense below 3 knee, coarse above)
    and [0] + geomspace, the normalized x axis."""
    n = draw(st.integers(3, 30))
    top = 10.0 ** draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from(kinds))
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
        grid = _refine_each_axis(grid)
        feet_x = _feet(grid.x_nodes)
        grid = replace(grid, z_nodes=np.linspace(0.0, 1.0, feet_x.size))
    feet_y = _feet(grid.y_nodes)
    ny = grid.y_nodes.size
    rng = np.random.default_rng(seed)
    # gain rows that repeat, one of 0 and distinct ones; x node 0 is 0, so
    # where the gain is 1 the feet are the x-shifts themselves: every entry
    # of feet_x
    gain = np.resize(np.concatenate([[0.0, 1.0, 1.0], rng.uniform(0.0, 2.0, ny)]), ny)
    rng.shuffle(gain)
    # phi exactly 0 at the low end, at the high end, in the middle and
    # everywhere: the kernel leaves those z columns out of the x step
    k = np.arange(feet_x.size)
    third = feet_x.size // 3
    zeroed = [np.where(mask, 0.0, feet_x) for mask in
              (k < third, k >= feet_x.size - third, (k >= third) & (k < feet_x.size - third), k >= 0)]
    for g in (grid, replace(grid, x_nodes=None)):
        kernel = _Transport(g)
        out = np.empty(g.shape)
        # each start is a changed shift; at each, the same inputs twice (the
        # second call reads the kept feet), then a changed phi
        for start in range(0, feet_y.size, ny):
            foot_y = np.resize(feet_y[start:], ny)
            for phi in (feet_x, feet_x.copy(), feet_x[::-1].copy(), *zeroed):
                values = rng.standard_normal(g.shape)
                want = _oracle_transport(values, g, foot_y, gain[:, None] * phi[None, :])
                assert kernel(values, foot_y, gain, phi, out=out) is out
                assert np.array_equal(out, want)


@st.composite
def _desk_y_axes(draw):
    """The y axis default_grid lays: even on [0, 1], or an even base merged with the fine run."""
    spec = _spec(weight_mode="normalized") if draw(st.booleans()) else _spec()
    fam = build_family(draw(st.floats(0.01, 0.2)), spec, PARAMS)
    return default_grid(PARAMS, spec, fam, ny=draw(st.integers(5, 80)), nz=2, n_steps=1).y_nodes


# A control whose y-shift is exactly 0 reads the slice at its own nodes, and
# the sweep takes the slice itself as its candidate.  That is bit-identical
# to the transport because the locate places node i at (i, 0.0) on every
# axis, uniform or not.
@settings(max_examples=60, deadline=None)
@given(x=_transport_axes(), y=st.one_of(_transport_axes(), _desk_y_axes()),
       halve=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_transport_without_shift_returns_the_slice(x, y, halve, seed):
    grid = StateGrid(x_nodes=x, y_nodes=y, z_nodes=np.linspace(0.0, 1.0, 7), n_steps=1)
    if halve:
        grid = _refine_each_axis(grid)
    rng = np.random.default_rng(seed)
    gain, phi = np.zeros(grid.y_nodes.size), rng.standard_normal(grid.z_nodes.size)
    for g in (grid, replace(grid, x_nodes=None)):
        values = rng.standard_normal(g.shape)
        out = _Transport(g)(values, g.y_nodes.copy(), gain, phi, out=np.empty(g.shape))
        assert out.tobytes() == values.tobytes()


def test_solver_rejects_uncovering_grids():
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    z0 = math.log(100.0)
    bad_y = StateGrid(y_nodes=np.linspace(0.0, 0.98, 21),
                      z_nodes=np.linspace(z0 - 1, z0 + 1, 41), n_steps=20)
    with pytest.raises(ParameterError) as err:
        solve_linear_reduced(PARAMS, spec, fam, bad_y)
    assert err.value.field == "grid.y_nodes"
    off_z = StateGrid(y_nodes=np.linspace(0.0, 1.3, 21),
                      z_nodes=np.linspace(z0 + 1, z0 + 2, 41), n_steps=20)
    with pytest.raises(ParameterError) as err:
        solve_linear_reduced(PARAMS, spec, fam, off_z)
    assert err.value.field == "grid.z_nodes"
    # a foot past the x axis extrapolates its last cell, which must lie where
    # g_hat is affine: at or above the cap's bend, 8 (1 + eps) = 8.8
    cap = _spec(g_kind="cap", g_cap=8.0)
    cap_fam = build_family(0.1, cap, PARAMS)
    bend = 8.0 * 1.1
    for x in (np.linspace(0.0, 1.0, 9), np.array([0.0, np.nextafter(bend, 0.0), 10.0])):
        small_x = StateGrid(x_nodes=x, y_nodes=np.linspace(0.0, 1.3, 21),
                            z_nodes=np.linspace(z0 - 1, z0 + 1, 41), n_steps=20)
        with pytest.raises(ParameterError, match="below the reward's bend") as err:
            solve_adapted(PARAMS, cap, cap_fam, small_x)
        assert err.value.field == "grid.x_nodes"
    at_bend = replace(small_x, x_nodes=np.array([0.0, bend, 10.0]))
    assert np.isfinite(price_from_value(solve_adapted(PARAMS, cap, cap_fam, at_bend), PARAMS).value)


def test_normalized_grid_short_of_the_y_reach_is_refused():
    # AC-2 normalized with d0 = 0.5 at eps = 0.1: the default 21 x 21 x 31 grid
    # prices 8.612, and the same grid cut to y <= 0.857 clamped its y-feet and
    # priced 16.810 without a complaint.  The weight state reaches d1 T = 2.
    spec = _spec(weight_mode="normalized", bounds=ControlBounds(0.5, 2.0))
    grid = default_grid(PARAMS, spec, build_family(0.1, spec, PARAMS), nx=21, ny=21, nz=31, n_steps=60)
    y = grid.y_nodes
    for cut in (y[y <= 0.857], np.append(y[y < 2.0], np.nextafter(2.0, 0.0))):
        with pytest.raises(ParameterError, match="below reachable bound") as err:
            solve(PARAMS, spec, 0.1, replace(grid, y_nodes=cut))
        assert err.value.field == "grid.y_nodes"
    at_reach = replace(grid, y_nodes=np.append(y[y < 2.0], 2.0))
    assert np.isfinite(price_from_value(_quiet_solve(solve, PARAMS, spec, 0.1, at_reach), PARAMS).value)


@pytest.mark.parametrize("variant,overrides", [("adapted", {"g_kind": "cap", "g_cap": 8.0}),
                                               ("normalized", {"weight_mode": "normalized"})])
def test_planar_grid_refused_by_3d_variants(variant, overrides):
    # a (y, z) grid has no x axis to carry the accumulated payment
    z0 = math.log(100.0)
    planar = StateGrid(y_nodes=np.linspace(0.0, 1.3, 21),
                       z_nodes=np.linspace(z0 - 1, z0 + 1, 41), n_steps=4)
    with pytest.raises(ParameterError, match=f"the {variant} variant needs an x axis") as err:
        solve(PARAMS, _spec(**overrides), 0.1, planar)
    assert err.value.field == "grid.x_nodes"


def test_ramp_advisory_only_for_the_normalized_weight():
    # a budget contract has no terminal ramp, so its time step resolves none
    for g in ({}, {"g_kind": "cap", "g_cap": 8.0}):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve(PARAMS, _spec(**g), 0.05, None)
    with pytest.warns(RuntimeWarning, match="eps\\^2 ramp near T"):
        solve(PARAMS, _spec(weight_mode="normalized"), 0.05, PIN_DIMS)


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


def test_desk_ladder_prices_the_deferral_contract_within_a_tenth_of_a_percent():
    # the 2-D desk ladder stops paying at the budget: its rungs read 6.5073,
    # 6.7697, 6.8399, and the smoothed cutoff that it replaced left the
    # extrapolated price 0.40% low
    est, _ = ladder_price(PARAMS, _spec())
    assert abs(est.value - TAIL_PRICE) <= 1e-3 * TAIL_PRICE


@pytest.mark.parametrize("variant", ["linear_reduced", "adapted", "adapted_d0"])
def test_budget_price_ignores_y_nodes_above_the_budget(variant):
    # no step pays past the budget, so no foot passes the excess budget
    # W = 1 - d0 T and nodes above it are never read
    spec = _spec(**PINS[variant][0])
    fam = build_family(0.1, spec, PARAMS)
    base = default_grid(PARAMS, spec, fam, **PIN_DIMS)
    excess = 1.0 - spec.bounds.d0 * PARAMS.t_horizon
    assert base.y_nodes[-1] == excess
    taller = replace(base, y_nodes=np.append(base.y_nodes, np.linspace(excess, excess + 0.3, 7)[1:]))
    prices = [price_from_value(solve(PARAMS, spec, 0.1, grid), PARAMS).value for grid in (base, taller)]
    assert prices[1] == pytest.approx(prices[0], rel=1e-12, abs=0.0)


def test_budget_grid_refuses_a_decreasing_reward():
    # the grid may leave budget unspent, which prices "at most the budget":
    # with g = (100 - x)^+ every rung read 100.0, where every policy the
    # engine has prices at most 6.51 by Monte Carlo
    spec = _spec(f_kind="identity", f_strike=None, payment_timing="spot", g_kind="put", g_strike=100.0)
    for route in (solve, extract_policy):
        with pytest.raises(ParameterError, match="nondecreasing g") as err:
            route(PARAMS, spec, 0.05, PIN_DIMS)
        assert err.value.field == "payoff.g_kind"


@pytest.mark.parametrize("g_kind,slope", [("cap", 0.0), ("call", 1.0)])
def test_value_is_affine_above_the_reward_bend(g_kind, slope):
    # g_hat is affine above its bend, and the payment only grows: with a rate
    # that never dips below 0 (identity f), a foot from a node at or above the
    # bend stays there, and one past the axis extrapolates its last cell.  So
    # in every slice each cell above the bend steps by slope times its width,
    # on the default axis and on one with three more cells past it
    spec = _spec(f_kind="identity", f_strike=None, payment_timing="spot",
                 g_kind=g_kind, g_cap=30.0, g_strike=30.0)
    fam = build_family(0.1, spec, PARAMS)
    base = default_grid(PARAMS, spec, fam, **PIN_DIMS)
    x = base.x_nodes
    assert x[-2] == 30.0 * 1.1 > x[-3]
    taller = replace(base, x_nodes=np.append(x, x[-1] + (x[-1] - x[-2]) * np.arange(1.0, 4.0)))
    for grid in (base, taller):
        above = grid.x_nodes >= x[-2]
        width = np.diff(grid.x_nodes[above])[:, None, None]
        for values in _history(solve_adapted, PARAMS, spec, fam, grid):
            steps = np.diff(values[above], axis=0)
            assert np.max(np.abs(steps - slope * width)) <= 1e-13 * np.max(np.abs(values))


def test_adapted_equals_reduced_for_identity_reward():
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    g_r = default_grid(PARAMS, spec, fam, ny=31, nz=41, n_steps=80)
    # an x axis out to the payment's reach, d1 T times the peak rate
    x_max = spec.bounds.d1 * PARAMS.t_horizon * _peak_rate(fam, g_r.z_nodes) * (1.0 + 1e-9)
    g_a = replace(g_r, x_nodes=np.linspace(0.0, x_max, 31))
    p_r = price_from_value(_quiet_solve(solve_linear_reduced, PARAMS, spec, fam, g_r), PARAMS)
    p_a = price_from_value(_quiet_solve(solve_adapted, PARAMS, spec, fam, g_a), PARAMS)
    # the value is linear in accumulated payout, so both routes coincide
    assert p_a.value == pytest.approx(p_r.value, rel=1e-9)
    # identity g has no bend, and a foot past the axis extrapolates its last
    # cell, so an x axis of two or three nodes prices it to rounding
    for x in ([0.0, 1.0], [0.0, 0.5, 1.0]):
        p_x = price_from_value(solve_adapted(PARAMS, spec, fam, replace(g_r, x_nodes=np.array(x))), PARAMS)
        assert p_x.value == pytest.approx(p_r.value, rel=1e-12, abs=0.0)


def test_capped_desk_ladder_holds_its_own_policy_by_mc():
    # a policy's Monte Carlo price is a lower bound on the contract's.  With
    # the x axis run out to d1 T times the peak rate, 343.7, and 11 of its 41
    # nodes in [0, 8], the ladder read 4.0816, 16 stderr below its own
    # policy's 4.1487 +- 0.0041 (the CLI's default seed); the axis that ends
    # one cell past the cap's bend reads 4.1768, against 4.1525 +- 0.0041
    spec = _spec(g_kind="cap", g_cap=8.0)
    est, _ = ladder_price(PARAMS, spec)
    pol = extract_policy(PARAMS, spec, DESK_EPSILONS[-1], None)
    mc = evaluate_policy(pol, spec, PARAMS, 100_000, 250, seed=20240801)
    assert est.value >= mc.value - 5.0 * mc.stderr


def test_call_reward_rung_matches_a_fine_x_axis():
    # 4.44794 is the eps = 0.05 desk rung of g = (x - 5)^+ on a 161-node x
    # axis, 129 nodes up to 3 K and 32 more out to d1 T times the peak rate;
    # that axis at 41 nodes read 4.47468 under an earlier smoothing family
    spec = _spec(g_kind="call", g_strike=5.0)
    rung = price_from_value(solve(PARAMS, spec, 0.05, None), PARAMS).value
    assert abs(rung - 4.44794) <= 0.002


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


def _bounded_price(d0, d1):
    spec = _spec(bounds=ControlBounds(d0, d1))
    est, _ = _quiet_ladder(PARAMS, spec, epsilons=(0.1,), grid={"ny": 31, "nz": 41, "n_steps": 80})
    return est.value


@pytest.mark.parametrize("g", [{}, {"g_kind": "cap", "g_cap": 8.0}], ids=["identity", "capped"])
def test_a_forced_weight_prices_alike_whatever_its_upper_bound(g):
    # d0 T = 1 forces u = d0 = 1, so (d0, d1) = (1, 1) and (1, 2) are one
    # contract (exact price 5.31392); a y axis of spent weight on [0, 1] read
    # them as 4.96792 and 5.68511
    prices = [ladder_price(PARAMS, _spec(bounds=ControlBounds(1.0, d1), **g))[0].value for d1 in (1.0, 2.0)]
    assert prices[1] == pytest.approx(prices[0], rel=1e-12, abs=0.0)


def test_budget_sweep_takes_each_controls_room_once(monkeypatch):
    # in the excess weight w = y - d0 t a step's room does not depend on t,
    # so a budget sweep asks for the budget interval once, not at every step
    calls = []
    interval = hjb.budget_interval
    monkeypatch.setattr(hjb, "budget_interval", lambda *args: calls.append(args) or interval(*args))
    _quiet_solve(solve, PARAMS, _spec(g_kind="cap", g_cap=8.0, bounds=ControlBounds(0.5, 2.0)), 0.1, PIN_DIMS)
    assert len(calls) == 1


@settings(max_examples=15, deadline=None)
@given(pair=st.lists(st.floats(1.0, 6.0), min_size=2, max_size=2).map(sorted))
@example(pair=[1.5, 2.0])
@example(pair=[2.0, 3.0])
def test_price_nondecreasing_in_d1(pair):
    low, high = pair
    assert _bounded_price(0.0, low) <= _bounded_price(0.0, high) + 1e-9


@settings(max_examples=15, deadline=None)
@given(pair=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=2, max_size=2).map(sorted))
@example(pair=[0.0, 0.4])
@example(pair=[0.4, 0.8])
def test_price_nonincreasing_in_d0(pair):
    low, high = pair
    assert _bounded_price(low, 2.0) >= _bounded_price(high, 2.0) - 1e-9


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
        psi = float(fam.terminal_ramp(i * dtf))
        h = 2.0 * (1.0 - psi) + spec.bounds.d1 * psi
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


@pytest.mark.parametrize("timing", TIMINGS)
@pytest.mark.parametrize("r", [0.0, 0.05])
@settings(max_examples=20, deadline=None)
@given(f_kind=st.sampled_from(F_KINDS), strike=st.floats(50.0, 200.0), eps=st.floats(0.01, 0.45))
def test_peak_rate_is_the_rate_at_the_start(r, timing, f_kind, strike, eps):
    # r >= 0, so e^{r (T - t)} and the rate phi do not increase in t: their
    # largest value on the z axis is the one at t = 0, here up into the cap
    params = replace(PARAMS, r=r)
    spec = _spec(f_kind=f_kind, f_strike=None if f_kind == "identity" else strike, payment_timing=timing)
    fam = build_family(eps, spec, params)
    z = np.linspace(math.log(20.0), math.log(100.0 + 200.0 / eps), 61)
    probe = fam.payoff_rate(np.exp(z)[None, :], np.linspace(0.0, params.t_horizon, 1001)[:, None])
    assert _peak_rate(fam, z) == np.max(probe)


def _sweep_shifts(d0):
    """Each control's (d0, d1) y-shift at every step of a normalized sweep of 25 steps at
    eps = 0.1, read off the y-feet the sweep hands its transport; a control it hands none
    does not move, and its shift is 0.  Also returns the family and the step times."""
    spec = _spec(weight_mode="normalized", bounds=ControlBounds(d0, 2.0))
    fam = build_family(0.1, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, nx=9, ny=9, nz=11, n_steps=25)
    assert grid.y_nodes[0] == 0.0  # so node 0's foot is the shift itself
    shifts, step = np.zeros((grid.n_steps, 2)), {}
    call = hjb._Transport.__call__

    def record(self, cur, foot_y, *args, **kw):
        step[kw.get("slot", 0)] = foot_y[0]
        return call(self, cur, foot_y, *args, **kw)

    def observe(n, slice_n, d1_wins):
        if d1_wins is not None:
            shifts[n] = [step.pop(slot, 0.0) for slot in (0, 1)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hjb._Transport, "__call__", record)
        _quiet_solve(solve_normalized, PARAMS, spec, fam, grid, observe=observe)
    return fam, np.linspace(0.0, PARAMS.t_horizon, grid.n_steps + 1), shifts


def test_sweep_shift_is_u_dt_before_the_ramp_and_d1_dt_after():
    # h(u, t) integrates to u dt on a step before the ramp, which starts at
    # 0.9, and to d1 dt on one past its end, 0.91, whatever u is; 25 steps
    # put one step across the ramp and two past it
    dt = PARAMS.t_horizon / 25
    for d0 in (0.0, 0.7):
        fam, times, shifts = _sweep_shifts(d0)
        before, after = times[1:] <= fam.ramp_start, times[:-1] >= fam.ramp_start + fam.ramp_width
        assert before.sum() == 22 and after.sum() == 2
        for u, shift in zip((d0, 2.0), shifts.T):
            assert np.all(shift[before] == u * dt)
            assert shift[after] == pytest.approx(2.0 * dt, rel=0.0, abs=1e-12)


def test_sweep_shifts_sum_to_the_quadrature_of_h():
    # the sweep credits the ramp in closed form: each control's shifts over
    # the horizon add up to int_0^T h(u, t) dt, h = u (1 - psi) + d1 psi
    for d0 in (0.0, 0.5):
        fam, _, shifts = _sweep_shifts(d0)
        ramp = [fam.ramp_start, fam.ramp_start + fam.ramp_width]
        for u, shift in zip((d0, 2.0), shifts.T):
            ref, _ = quad(lambda t: u + (2.0 - u) * float(fam.terminal_ramp(t)), 0.0, PARAMS.t_horizon,
                          points=ramp, limit=200)
            assert shift.sum() == pytest.approx(ref, rel=0.0, abs=1e-10)


@pytest.mark.parametrize("eps", DESK_EPSILONS)
def test_normalized_sweep_locates_its_y_feet_again_only_in_the_ramp(eps, monkeypatch):
    # outside the ramp each control's shift is u dt exactly, so the feet it
    # kept serve every step there: the y-feet are located once per control
    # and at most once more per step that meets the ramp.  With the shift
    # taken from each step's own linspace width, this sweep at eps = 0.05
    # located them 54 times, where the bound is 9
    spec = _spec(weight_mode="normalized")
    fam = build_family(eps, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, nx=27, ny=27, nz=53, n_steps=130)
    located = []
    locate = _Axis.locate
    monkeypatch.setattr(_Axis, "locate", lambda axis, q: located.append(axis) or locate(axis, q))
    _quiet_solve(solve_normalized, PARAMS, spec, fam, grid)
    ramp_steps = np.count_nonzero(np.diff(fam.terminal_ramp_integral(np.linspace(0.0, 1.0, 131))))
    assert sum(axis is grid.axes[-2] for axis in located) <= ramp_steps + 2


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

def test_extracted_policy_is_bang_bang_and_ties_go_high(policy_table):
    # the sweep records cand(d1) >= cand(d0); where the two candidates are
    # equal everywhere, the whole table is a tie and so selects d1
    dims = {"ny": 21, "nz": 31, "n_steps": 40}
    zero_rate = _spec(f_kind="call", f_strike=1e9)  # the payment rate vanishes identically
    singleton = _spec(bounds=ControlBounds(1.0, 1.0))
    for spec, d1 in ((zero_rate, 2.0), (singleton, 1.0)):
        pol = _quiet_solve(extract_policy, PARAMS, spec, 0.1, dims)
        assert pol.rule.bits.dtype == np.uint8
        assert pol.rule.bits.shape == (40, (math.prod(pol.rule.grid.shape) + 7) // 8)
        assert np.all(policy_table(pol.rule))
        u = pol.evaluate(0.2, 0.0, np.array([0.1, 0.5]), np.array([60.0, 140.0]))
        assert set(np.unique(u)) == {d1}


def test_extracted_policy_recovers_deferral_feedback(policy_table):
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
    assert pol.rule.bits.dtype == np.uint8  # one bit per node: bang-bang by construction
    times = np.linspace(0.0, 1.0, grid.n_steps + 1)[:-1]
    tt = times[:, None, None]
    yy = grid.y_nodes[None, 1:-1, None]
    zz = grid.z_nodes[None, None, 1:-1]
    interior = policy_table(pol.rule)[:, 1:-1, 1:-1]
    feedback = np.broadcast_to(tt >= 1.0 - (1.0 - yy) / 2.0, interior.shape)
    open_loop = np.broadcast_to((tt >= 0.5) * np.ones_like(yy), interior.shape)
    mask = np.broadcast_to((yy < 1.0 - eps) & (np.abs(zz - z0) <= 0.6), interior.shape)
    frac = ((interior == feedback) & mask).sum() / mask.sum()
    frac_open = ((interior == open_loop) & mask).sum() / mask.sum()
    print(f"feedback-rule agreement {frac:.3f}, open-loop agreement {frac_open:.3f}")
    assert frac >= 0.95


def _packed(table):
    """A (n_steps,) + grid.shape boolean table packed as ``extract_policy`` packs it."""
    return np.packbits(table.reshape(table.shape[0], -1), axis=1, bitorder="little")


@st.composite
def _table_rules(draw):
    """A small grid, 2-9 nodes per axis and non-uniform in x and y (so the
    cell count is rarely a multiple of 8), and a random table on it."""
    def nodes():
        gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=8))
        return draw(st.floats(-2.0, 2.0)) + np.concatenate(([0.0], np.cumsum(gaps)))

    x = nodes() if draw(st.booleans()) else None
    y = nodes()
    z0 = draw(st.floats(3.0, 5.0))
    z = np.linspace(z0, z0 + draw(st.floats(0.1, 2.0)), draw(st.integers(2, 9)))
    grid = StateGrid(y_nodes=y, z_nodes=z, n_steps=draw(st.integers(1, 4)), x_nodes=x)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.random((grid.n_steps,) + grid.shape) < 0.5
    return TableRule(_packed(table), grid, 2.0, 0.5, 1.5), table


@settings(max_examples=200, deadline=None)
@given(_table_rules(), st.data())
def test_packed_table_read_is_the_nearest_node_rule(case, data):
    # a query on a node, exactly on a cell midpoint (the tie takes the lower
    # node) or off either end reads the dense table at the oracle's node
    rule, table = case
    grid = rule.grid
    n = data.draw(st.integers(0, grid.n_steps - 1))
    n_query = data.draw(st.integers(1, 12))
    query, flat_index = [], []
    for axis in grid.axes:
        nodes = axis.nodes
        mids = nodes[:-1] + 0.5 * np.diff(nodes)
        candidates = np.concatenate((nodes, mids, [nodes[0] - 1.0, nodes[-1] + 1.0]))
        picks = data.draw(st.lists(st.integers(0, candidates.size - 1),
                                   min_size=n_query, max_size=n_query))
        q = candidates[picks]
        if axis is grid.axes[-1]:  # the rule reads z as log s
            query.append(np.exp(q))
            q = np.log(query[-1])
        else:
            query.append(q)
        flat_index.append(np.searchsorted(mids, q, side="left"))
    if grid.x_nodes is None:
        query.insert(0, 0.0)
    want = np.where(table[(n,) + tuple(flat_index)], rule.d1, rule.d0)
    t = (n + 0.5) * rule.t_horizon / grid.n_steps
    assert np.array_equal(rule(t, *query), want)


def test_table_rule_refuses_bits_that_do_not_fit_the_grid():
    grid = StateGrid(y_nodes=np.linspace(0.0, 1.0, 5), z_nodes=np.linspace(4.0, 5.0, 7), n_steps=3)
    table = np.random.default_rng(1).random((3,) + grid.shape) < 0.5  # 35 cells: 5 bytes a slice
    TableRule(_packed(table), grid, 1.0, 0.0, 2.0)
    for bits in (_packed(np.concatenate((table, table[:1]))),  # one slice too many
                 _packed(table)[:, :-1],                      # a byte missing from each slice
                 table.astype(np.uint8).reshape(3, -1),       # one byte per node
                 table):                                      # the dense boolean table
        with pytest.raises(ParameterError) as err:
            TableRule(bits, grid, 1.0, 0.0, 2.0)
        assert err.value.field == "grid"


def test_extract_policy_never_holds_a_dense_table():
    # a dense boolean table of this grid takes 100 x 18,081 bytes (1.72 MiB);
    # the sweep itself peaks well below that, and the packed table takes 1/8
    spec, dims = _spec(g_kind="cap", g_cap=8.0), {"nx": 21, "ny": 21, "nz": 41, "n_steps": 100}
    _quiet_solve(extract_policy, PARAMS, spec, 0.1, {"nx": 5, "ny": 5, "nz": 5, "n_steps": 2})  # lazy imports
    tracemalloc.start()
    try:
        pol = _quiet_solve(extract_policy, PARAMS, spec, 0.1, dims)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = 21 * 21 * 41
    assert peak < 100 * cells
    assert pol.rule.grid.shape == (21, 21, 41)
    assert pol.rule.bits.nbytes == 100 * ((cells + 7) // 8)


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
    with pytest.raises(ParameterError) as err:
        price_from_value(vf, PARAMS)
    assert err.value.field == "grid.z_nodes"
    shifted_x = StateGrid(x_nodes=np.linspace(0.5, 2.0, 5), y_nodes=np.linspace(0, 1.3, 5),
                          z_nodes=np.linspace(4.0, 5.2, 5), n_steps=4)
    with pytest.raises(ParameterError, match="does not start at x = 0") as err:
        price_from_value(ValueFunction(grid=shifted_x, variant="adapted", epsilon=0.1,
                                       values=np.zeros((5, 5, 5))), PARAMS)
    assert err.value.field == "grid.x_nodes"
    # node 0 is read as the origin: a y axis that starts at -0.25 priced
    # the value with 1.25 budget units, 7.5287 against 6.2903
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    base = default_grid(PARAMS, spec, fam, ny=21, nz=31, n_steps=40)
    below = StateGrid(y_nodes=np.concatenate([[-0.25], base.y_nodes]), z_nodes=base.z_nodes,
                      n_steps=base.n_steps)
    with pytest.raises(ParameterError) as err:
        price_from_value(_quiet_solve(solve_linear_reduced, PARAMS, spec, fam, below), PARAMS)
    assert err.value.field == "grid.y_nodes"


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
    # can pay (the whole budget, 1, at the largest capped rate)
    spec = _spec()
    fam = build_family(0.1, spec, PARAMS)
    grid = default_grid(PARAMS, spec, fam, ny=21, nz=31, n_steps=40)
    history = _quiet_solve(_history, solve_linear_reduced, PARAMS, spec, fam, grid)
    t_probe = np.linspace(0.0, 1.0, 9)[:, None]
    phi_max = float(np.max(fam.payoff_rate(np.exp(grid.z_nodes)[None, :], t_probe)))
    assert history.min() >= -1e-12
    assert history.max() <= phi_max * (1.0 + 1e-9)


def test_epsilon_domination():
    spec = _spec()
    est, raw = _quiet_ladder(PARAMS, spec, epsilons=(0.2, 0.1, 0.05))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        delta = refinement_delta(PARAMS, spec, raw[-1])["delta_grid"]
    finest = raw[-1].value
    for r in raw:
        assert r.value <= finest + delta + 1e-9


def test_grid_allowance_covers_each_axis_refined_alone():
    # AC-2 on the desk 2-D grid at eps = 0.05.  Refining every axis at once
    # moves the price by +0.0121, while halving y alone moves it by +0.0719:
    # the axes' errors cancel, so the allowance is taken one axis at a time
    spec = _spec()
    rung = price_from_value(_quiet_solve(solve, PARAMS, spec, 0.05, None), PARAMS)
    base = default_grid(PARAMS, spec, build_family(0.05, spec, PARAMS))
    changes = {axis: price_from_value(_quiet_solve(solve, PARAMS, spec, 0.05, refine_grid(base, axis)),
                                      PARAMS).value - rung.value
               for axis in ("y", "z", "t")}
    delta = _quiet_solve(refinement_delta, PARAMS, spec, rung)
    assert delta["delta_axes"] == changes
    assert delta["delta_grid"] >= max(abs(c) for c in changes.values())


def test_grid_allowance_takes_a_state_grid():
    # solve, ladder_price and extract_policy take a StateGrid or node counts,
    # and so does refinement_delta; a rung from another grid is refused
    spec = _spec()
    counts = {"ny": 21, "nz": 31, "n_steps": 40}
    grid = default_grid(PARAMS, spec, build_family(0.1, spec, PARAMS), **counts)
    _, rungs = _quiet_ladder(PARAMS, spec, epsilons=(0.1,), grid=grid)
    by_grid = _quiet_solve(refinement_delta, PARAMS, spec, rungs[-1], grid)
    assert by_grid == _quiet_solve(refinement_delta, PARAMS, spec, rungs[-1], counts)
    with pytest.raises(ParameterError) as err:
        refinement_delta(PARAMS, spec, rungs[-1], refine_grid(grid, "t"))
    assert err.value.field == "grid"


# AC-2 at eps = 0.1 on a 9 x 11 x 15 grid with 12 steps: the exact t = 0
# price, the number of d1 cells in the policy table, and the exact Monte
# Carlo price of that table (20k paths, 40 steps, seed 11).  Any change to
# the order of the sweep's arithmetic, or to the table lookup, shows here.
# ``adapted_d0`` puts a floor d0 = 0.5 under the capped contract, so both of
# its controls pay and both take the transport; its y axis is the excess
# weight on [0, 0.5], which the table reads as y - d0 t.  Its policy pays
# d1 early on some paths and d0 up to the ramp on others, so its Monte Carlo
# price also pins both ends of the budget interval each step is clipped to.
PIN_DIMS = {"nx": 9, "ny": 11, "nz": 15, "n_steps": 12}
PINS = {
    "linear_reduced": ({}, "0x1.b885cac0c112cp+2", 963, "0x1.b68b8f66407a0p+2"),
    "adapted": ({"g_kind": "cap", "g_cap": 8.0}, "0x1.a4059dfee8d99p+1", 12836, "0x1.ee9c9f11e8950p+1"),
    "adapted_d0": ({"g_kind": "cap", "g_cap": 8.0, "bounds": ControlBounds(0.5, 2.0)},
                   "0x1.a3b5d169b94c8p+1", 11516, "0x1.f260dd2a07e4ap+1"),
    "normalized": ({"weight_mode": "normalized"}, "0x1.ee79efca61264p+4", 6068, "0x1.caf329008728ep+2"),
}


def _pin_price(variant, params, **scaled):
    spec = _spec(**{**PINS[variant][0], **scaled})
    vf = _quiet_solve(solve, params, spec, 0.1, PIN_DIMS)
    return price_from_value(vf, params).value


@pytest.mark.parametrize("variant", sorted(PINS))
def test_sweep_is_pinned_bit_for_bit(variant, policy_table):
    overrides, price, d1_cells, mc_price = PINS[variant]
    assert _pin_price(variant, PARAMS).hex() == price
    spec = _spec(**overrides)
    pol = _quiet_solve(extract_policy, PARAMS, spec, 0.1, PIN_DIMS)
    assert int(policy_table(pol.rule).sum()) == d1_cells
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


@pytest.mark.parametrize("r", [0.0, 0.05])
@pytest.mark.parametrize("variant", sorted(PINS))
def test_sweep_with_kept_feet_matches_oracle_transport(variant, r, monkeypatch):
    # at r = 0 every step after the first reads the feet its control kept;
    # at r = 0.05 the compounded payment rate changes phi at every step, so
    # every step locates them again
    params = replace(PARAMS, r=r)
    spec = _spec(**PINS[variant][0])
    dims = {"nx": 9, "ny": 9, "nz": 11, "n_steps": 12}

    def seen():
        kept = []
        _quiet_solve(solve, params, spec, 0.1, dims,
                     observe=lambda n, slice_n, d1_wins: kept.append((slice_n, d1_wins)))
        return kept

    got = seen()
    monkeypatch.setattr("controlled_options.hjb._Transport", _OracleTransport)
    want = seen()
    assert len(got) == len(want) == dims["n_steps"] + 1
    for (slice_g, wins_g), (slice_w, wins_w) in zip(got, want):
        assert slice_g.tobytes() == slice_w.tobytes()
        assert (wins_g is None and wins_w is None) or np.array_equal(wins_g, wins_w)


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


@pytest.mark.parametrize("lam", [0.25, 4.0])
@pytest.mark.parametrize("variant", sorted(PINS))
def test_time_rescaling_leaves_every_grid_price_bit_identical(variant, lam):
    # (T, sigma, r, d0, d1) -> (T / lam, sigma sqrt(lam), lam r, lam d0, lam d1)
    # is the same contract, and at a power of 4 every rescaled input is exact.
    # Each eps is dimensionless, so no grid price may move.  With the ramp
    # in absolute time, the normalized one moved by about 20%; at lam = 4
    # (T = 0.25) the budget contract now prices on the desk ladder
    base = replace(PARAMS, r=0.05)
    scaled = MarketParams(s0=100.0, r=0.05 * lam, sigma=0.2 * math.sqrt(lam), t_horizon=1.0 / lam)
    overrides = PINS[variant][0]
    bounds = overrides.get("bounds", ControlBounds(0.0, 2.0))
    spec = _spec(**overrides)
    spec_lam = replace(spec, bounds=ControlBounds(lam * bounds.d0, lam * bounds.d1))
    for eps in DESK_EPSILONS:
        want = price_from_value(_quiet_solve(solve, base, spec, eps, PIN_DIMS), base).value
        got = price_from_value(_quiet_solve(solve, scaled, spec_lam, eps, PIN_DIMS), scaled).value
        assert got.hex() == want.hex()
    if variant == "linear_reduced":
        want = _quiet_ladder(base, spec, grid=PIN_DIMS)[0].value
        assert _quiet_ladder(scaled, spec_lam, grid=PIN_DIMS)[0].value.hex() == want.hex()


# every f kind and timing, every nondecreasing g kind, both weight modes and
# d0 = 0 or 0.5; the bend scales with the cap or strike, so money rescaling
# covers the budget x axis
_GRID_CONTRACTS = st.fixed_dictionaries({
    "f_kind": st.sampled_from(F_KINDS), "payment_timing": st.sampled_from(TIMINGS),
    "g_kind": st.sampled_from([g for g in G_KINDS if g != "put"]),
    "weight_mode": st.sampled_from(WEIGHT_MODES), "bounds": st.sampled_from([0.0, 0.5]).map(
        lambda d0: ControlBounds(d0, 2.0)),
})


@settings(max_examples=80, deadline=None)
@given(contract=_GRID_CONTRACTS, k=st.integers(-3, 3), eps=st.sampled_from(DESK_EPSILONS))
@example(contract={"f_kind": "call", "payment_timing": "spot", "g_kind": "cap", "weight_mode":
                   "adapted_fixed_cumulative", "bounds": ControlBounds(0.5, 2.0)}, k=3, eps=0.05)
def test_grid_price_is_invariant_under_time_and_money_rescaling(contract, k, eps):
    # (T, sigma, r, d0, d1) -> (T / lam, sigma sqrt(lam), lam r, lam d0, lam d1)
    # is the same contract.  At lam = 2^k every input is exact but sigma
    # sqrt(lam) at odd k, where sqrt(2) rounds: the price is bit-identical
    # to that of lam = 1 at even k and of lam = 2 at odd k, and the two agree
    # to rounding.  Scaling s0, the strikes and the cap by 2^k scales it
    spec = _spec(g_strike=8.0, g_cap=8.0, **contract)

    def timed(lam):
        params = MarketParams(s0=100.0, r=0.05 * lam, sigma=0.2 * math.sqrt(lam), t_horizon=1.0 / lam)
        bounds = ControlBounds(lam * spec.bounds.d0, lam * spec.bounds.d1)
        return price_from_value(_quiet_solve(solve, params, replace(spec, bounds=bounds), eps, PIN_DIMS),
                                params).value

    lam = 2.0**k
    want, got = timed(1.0), timed(lam)
    assert got.hex() == (want if k % 2 == 0 else timed(2.0)).hex()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    params = MarketParams(s0=100.0 * lam, r=0.05, sigma=0.2, t_horizon=1.0)
    money = replace(spec, f_strike=100.0 * lam, g_strike=8.0 * lam, g_cap=8.0 * lam)
    scaled = price_from_value(_quiet_solve(solve, params, money, eps, PIN_DIMS), params).value / lam
    assert scaled == pytest.approx(want, rel=1e-10, abs=0.0)


def test_tiny_spot_prices_at_scale():
    # at s0 = 1e-9 every x step lies below 1e-8; an absolute uniformity
    # tolerance called a knee axis uniform, located its feet by arithmetic,
    # and the price came out 7.5 times too high
    lam = 1e-11
    dims = {"nx": 21, "ny": 21, "nz": 41, "n_steps": 60}
    prices = []
    for scale in (1.0, lam):
        params = MarketParams(s0=100.0 * scale, r=0.0, sigma=0.2, t_horizon=1.0)
        spec = _spec(f_strike=100.0 * scale, g_kind="call", g_strike=8.0 * scale)
        prices.append(_quiet_ladder(params, spec, epsilons=(0.2, 0.1), grid=dims)[0].value)
    assert prices[0] == pytest.approx(3.6713, abs=1e-4)
    assert prices[1] / lam == pytest.approx(prices[0], rel=1e-10, abs=0.0)


def _stub_ladder(monkeypatch, prices, epsilons):
    """``ladder_price`` over rungs that price as ``prices`` at ``epsilons``, with no grid solved."""
    rungs = dict(zip(epsilons, prices))
    monkeypatch.setattr("controlled_options.hjb.solve",
                        lambda params, spec, eps, grid: ValueFunction(None, "stub", eps, None))
    monkeypatch.setattr("controlled_options.hjb.price_from_value",
                        lambda vf, params: PriceEstimate(rungs[vf.epsilon], 0.0, "hjb",
                                                         {"grid_shape": [1], "n_steps": 1}))
    return ladder_price(PARAMS, _spec(), epsilons=epsilons)[0].value


def test_ladder_extrapolates_at_the_order_its_rungs_measure(monkeypatch):
    # rungs 10 - 4^(1 - k): the gaps shrink fourfold, and Aitken's step lands on 10
    assert _stub_ladder(monkeypatch, [6.0, 9.0, 9.75], [0.2, 0.1, 0.05]) == 10.0
    assert _stub_ladder(monkeypatch, [2.0, 8.0, 9.5, 9.875], [0.4, 0.2, 0.1, 0.05]) == 10.0
    # a gap ratio of 1.05 would take Aitken 20 gaps on; the step is held to
    # the first-order one, last gap times e2 / (e1 - e2)
    assert _stub_ladder(monkeypatch, [0.0, 1.05, 2.05], [0.2, 0.1, 0.05]) == pytest.approx(3.05)
    assert _stub_ladder(monkeypatch, [0.0, 1.05, 2.05], [0.3, 0.2, 0.05]) == pytest.approx(2.05 + 1.0 / 3.0)
    # two rungs take the first-order step
    assert _stub_ladder(monkeypatch, [9.0, 9.75], [0.1, 0.05]) == 10.5
    assert _stub_ladder(monkeypatch, [9.0, 9.75], [0.15, 0.05]) == pytest.approx(9.75 + 0.375)


def test_diverging_ladder_raises_numerical_failure():
    # on this coarse grid the normalized rungs read 9.15, 11.94, 15.50:
    # Richardson would report 19.06, above E[max S] - K = 16.98
    spec = _spec(weight_mode="normalized")
    with pytest.raises(NumericalFailure, match="2.79256 then 3.56242"):
        _quiet_ladder(PARAMS, spec, grid={"nx": 21, "ny": 21, "nz": 41, "n_steps": 100})


Z_STEP_DRAWS = dict(
    sigma=st.floats(0.01, 2.0),
    r=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    nz=st.integers(2, 641),
    n_steps=st.integers(1, 6400),
    half_sd=st.floats(2.0, 8.0),
)


def _z_step_case(sigma, r, nz, n_steps, half_sd):
    """Market, z axis of +-half_sd sigma around log s0, dt, and the rounding bound.

    The bound is 16 eps times the infinity-norm condition number of
    (I - dt A), 1 + 2 dt (sigma^2/dz^2 + |mu|/dz): its inverse has norm 1.
    """
    params = MarketParams(s0=100.0, r=r, sigma=sigma, t_horizon=1.0)
    z = math.log(100.0) + np.linspace(-half_sd * sigma, half_sd * sigma, nz)
    dt = 1.0 / n_steps
    dz = z[1] - z[0]
    mu = r - 0.5 * sigma**2
    tol = 16.0 * np.finfo(float).eps * (1.0 + 2.0 * dt * (sigma**2 / dz**2 + abs(mu) / dz))
    return params, z, dt, tol


@settings(max_examples=40, deadline=None)
@given(**Z_STEP_DRAWS)
@example(sigma=0.2, r=0.0, nz=641, n_steps=1, half_sd=5.0)
@example(sigma=0.2, r=0.0, nz=15, n_steps=1, half_sd=5.0)
def test_z_step_keeps_discrete_maximum_principle(sigma, r, nz, n_steps, half_sd):
    # (I - dt A) is an M-matrix whose rows sum to 1, so its inverse is
    # entrywise >= 0 with rows summing to 1: each step is an average of the
    # next slice, and cannot leave its range.  The dense inverse has rounding
    # negatives; the clipped one must have none.
    params, z, dt, tol = _z_step_case(sigma, r, nz, n_steps, half_sd)
    mt = _z_step_matrix(params, z, dt)
    assert mt.shape == (nz, nz)
    assert np.all(mt >= 0.0)
    assert np.max(np.abs(mt.sum(axis=0) - 1.0)) <= tol


def _banded_z_step(params, z, dt):
    """(I - dt A) in the (3, nz) layout of solve_banded: the upwind stencil, written out."""
    dz = z[1] - z[0]
    mu = params.r - 0.5 * params.sigma**2
    mu_p, mu_m = max(mu, 0.0), min(mu, 0.0)
    a = 0.5 * params.sigma**2 / dz**2
    upper = np.full(z.size - 1, mu_p / dz + a)
    lower = np.full(z.size - 1, -mu_m / dz + a)
    diag = np.full(z.size, -(mu_p - mu_m) / dz - 2.0 * a)
    upper[0], diag[0] = mu_p / dz, -mu_p / dz
    lower[-1], diag[-1] = -mu_m / dz, mu_m / dz
    ab = np.zeros((3, z.size))
    ab[0, 1:], ab[1], ab[2, :-1] = -dt * upper, 1.0 - dt * diag, -dt * lower
    return ab


@settings(max_examples=40, deadline=None)
@given(**Z_STEP_DRAWS, lead=st.sampled_from([(9,), (5, 7)]), seed=st.integers(0, 2**32 - 1))
@example(sigma=0.2, r=0.0, nz=641, n_steps=1, half_sd=5.0, lead=(5, 7), seed=0)
def test_z_step_matches_banded_solve(sigma, r, nz, n_steps, half_sd, lead, seed):
    # the product with the clipped inverse against LAPACK's tridiagonal solve
    # of the same three diagonals, on 2-D and 3-D slices of unit-scale data
    params, z, dt, tol = _z_step_case(sigma, r, nz, n_steps, half_sd)
    values = np.random.default_rng(seed).random(lead + (nz,))
    want = solve_banded((1, 1), _banded_z_step(params, z, dt), values.reshape(-1, nz).T).T
    got = _solve_z(_z_step_matrix(params, z, dt), values)
    assert got.shape == values.shape
    assert np.max(np.abs(got.reshape(-1, nz) - want)) <= tol


def test_nan_from_family_raises_numerical_failure():
    spec = _spec()

    class PoisonFamily:
        epsilon = 0.1

        def payoff_rate(self, s, t):
            return np.full(np.shape(s), np.nan)

    z0 = math.log(100.0)
    grid = StateGrid(y_nodes=np.linspace(0, 1.3, 9),
                     z_nodes=np.linspace(z0 - 1, z0 + 1, 9), n_steps=6)
    with pytest.raises(NumericalFailure) as err:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            solve_linear_reduced(PARAMS, spec, PoisonFamily(), grid)
    assert err.value.time_index == 5
