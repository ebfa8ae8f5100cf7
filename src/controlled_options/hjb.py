"""Backward dynamic-programming solvers on tensor grids in (x, y, log S, t).

Three regularised problems share one sweep:

* ``adapted``        -- state (x, y, z); dx = u xi(y) phi(S, t) dt,
  dy = u dt, terminal reward g_hat(x).
* ``linear_reduced`` -- state (y, z); running reward u xi(y) phi(S, t),
  terminal value 0.  Valid for identity g only.
* ``normalized``     -- state (x, y, z); dx = h(u, t) phi(S, t) dt,
  dy = h(u, t) dt, terminal reward g2(x, y).

A normalized weight is solved as ``normalized``, a budget contract as
``adapted`` on a grid with an x axis and as ``linear_reduced`` on one
without, which ``default_grid`` lays for identity g.

The scheme is monotone without a transport CFL restriction:

* x and y carry no diffusion, so their transport is semi-Lagrangian --
  each backward step reads the next slice at the foot of the (exact,
  degenerate) characteristic, with feet clamped to the grid (the flow is
  outward for non-negative rates).  The y-foot depends on y alone, so
  each control locates its (ny,) line of feet once and interpolates in
  y; the x-foot x + gain(y) phi(z) is then interpolated in x.  One
  kernel, ``_Transport``, built once per sweep, does both steps in
  scratch arrays it owns and writes each control's candidate into a
  buffer the sweep reuses from step to step.
* z carries the only diffusion; drift r - sigma^2/2 is upwinded and the
  diffusion solved implicitly (unconditionally stable).  The banded
  matrix is built once per sweep, and ``solve_banded`` (LAPACK gtsv)
  factors it again at every step.  At z_min/z_max the second difference
  is dropped (the value is asymptotically linear there) and the drift is
  kept only when its upwind neighbour lies inside the grid.
* The Hamiltonian is affine in u, so the max is taken over the two
  endpoint controls only; ties go to d1.
* One locator, ``_Axis``, validates each axis and places every query on
  it: the characteristic feet, the readout at log s0, the policy table.

The payoff weight u enters both transport rates linearly, which is what
makes the optimal control bang-bang.  The sweep keeps one slice at a
time; the slices and choices it hands an observer are fresh arrays,
never reused by the sweep.  ``extract_policy`` records the scheme's own
choice at every node and step (the ``hjb`` policy): d1 where its
candidate value is >= that of d0, so ties go to d1.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import solve_banded

from .errors import ExtrapolationError, GridError, NumericalFailure, ParameterError
from .market import MarketParams
from .payoffs import PayoffSpec
from .results import PriceEstimate
from .smoothing import SmoothingFamily, build_family

# node counts of the desk grid, which a missing ``grid`` count takes
DESK_GRID = {"nx": 41, "ny": 41, "nz": 81, "n_steps": 200}
DESK_EPSILONS = (0.2, 0.1, 0.05)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class _Axis:
    """A validated 1-d axis that places query points on it, with a uniform fast path."""

    def __init__(self, nodes: np.ndarray, name: str):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise GridError(f"{name} axis needs at least two nodes")
        d = np.diff(nodes)
        if np.any(d <= 0.0):
            raise GridError(f"{name} axis must be strictly increasing")
        self.nodes = nodes
        self.step = d  # step[i] = nodes[i + 1] - nodes[i]
        self.uniform = bool(np.allclose(d, d[0], rtol=1e-9))
        self.lo = nodes[0]
        self.hi = nodes[-1]
        self.inv_step = 1.0 / d[0] if self.uniform else None

    def locate(self, q: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and in-cell fraction of each query, clamped to the axis.

        With ``out=(idx, frac)``, an int64 and a float array of q's shape,
        the result is written there and q, a float array, is overwritten as
        scratch; without it, q is left alone and fresh arrays come back.
        """
        if out is None:
            q = np.array(q, dtype=float)
            idx, frac = np.empty(q.shape, dtype=np.int64), np.empty(q.shape)
        else:
            idx, frac = out
        np.clip(q, self.lo, self.hi, out=q)
        if self.uniform:
            pos = np.multiply(np.subtract(q, self.lo, out=q), self.inv_step, out=q)
            np.copyto(idx, pos, casting="unsafe")  # truncation: pos >= 0
            np.minimum(idx, self.nodes.size - 2, out=idx)
            np.subtract(pos, idx, out=frac)
        else:
            np.subtract(np.searchsorted(self.nodes, q, side="right"), 1, out=idx)
            np.clip(idx, 0, self.nodes.size - 2, out=idx)
            np.subtract(q, self.nodes.take(idx, out=frac, mode="clip"), out=frac)
            np.divide(frac, self.step.take(idx, out=q, mode="clip"), out=frac)
        np.clip(frac, 0.0, 1.0, out=frac)
        return idx, frac

    def nearest(self, q: np.ndarray) -> np.ndarray:
        """Index of the node nearest each query; a query halfway between takes the lower."""
        idx, frac = self.locate(q)
        return idx + (frac > 0.5)


@dataclass(frozen=True)
class StateGrid:
    """Tensor grid; ``x_nodes`` is None for the reduced (y, z) problem."""

    y_nodes: np.ndarray
    z_nodes: np.ndarray
    n_steps: int
    x_nodes: np.ndarray | None = None

    def __post_init__(self):
        if self.x_nodes is not None:
            _Axis(self.x_nodes, "x")
        _Axis(self.y_nodes, "y")
        z = _Axis(self.z_nodes, "z")
        if self.n_steps < 1:
            raise GridError("need at least one time step")
        if not z.uniform:
            raise GridError("z axis must be uniform (implicit diffusion stencil)")

    @property
    def shape(self) -> tuple[int, ...]:
        if self.x_nodes is None:
            return (self.y_nodes.size, self.z_nodes.size)
        return (self.x_nodes.size, self.y_nodes.size, self.z_nodes.size)


def default_grid(
    params: MarketParams,
    spec: PayoffSpec,
    fam: SmoothingFamily,
    nx: int = DESK_GRID["nx"],
    ny: int = DESK_GRID["ny"],
    nz: int = DESK_GRID["nz"],
    n_steps: int = DESK_GRID["n_steps"],
) -> StateGrid:
    """Desk-scale grid with the given node counts, z-range log s0 +- 5 sig sqrt(T).

    Identity g in budget mode gets no x axis and ignores ``nx``.  The x
    axis densifies below the reward kink (cap level or strike) when one
    exists, so coarse far-field nodes do not starve the curved region.
    """
    normalized = spec.weight_mode == "normalized"
    planar = not normalized and spec.g_kind == "identity"
    # x is the origin, the kink region or eps^2 run, and the far field
    if not planar and nx < 3:
        raise ParameterError(f"the x axis needs at least three nodes, not {nx}", field="grid.nx")
    # y is the origin, y_max and the eps^2 run, or the 3-node cutoff band in budget mode
    min_ny = 3 if normalized else 5
    if ny < min_ny:
        raise ParameterError(f"the y axis needs at least {min_ny} nodes, not {ny}", field="grid.ny")
    if nz < 2:
        raise ParameterError(f"the z axis needs at least two nodes, not {nz}", field="grid.nz")
    if n_steps < 1:
        raise ParameterError(f"need at least one time step, not {n_steps}", field="grid.n_steps")
    T = params.t_horizon
    eps = fam.epsilon
    half = max(5.0 * params.sigma * np.sqrt(T), 1e-6)
    z0 = np.log(params.s0)
    # the axis tracks the drift-carried spot; the pure +-5 sigma sqrt(T) band
    # loses the state entirely when r dominates sigma
    mu_span = (params.r - 0.5 * params.sigma**2) * T
    z_nodes = np.linspace(z0 + min(mu_span, 0.0) - half, z0 + max(mu_span, 0.0) + half, nz)

    if normalized:
        # the ratio reward bends on the y ~ eps^2 scale near the origin;
        # geometric packing there keeps the interpolation honest
        y_max = spec.bounds.d1 * T + 1.0
        fine_top = min(4.0 * eps, 0.5 * y_max)
        y_nodes = _y_axis(y_max, lambda k: np.geomspace(0.25 * eps * eps, fine_top, k),
                          min(max(3, ny // 4), ny - 2), ny, 1e-12 * y_max)
    else:
        # keep the node budget but resolve the eps^2 cutoff band, where the
        # value has a kink in y that coarse linear interpolation biases
        y_max = max(1.25, 1.0 + eps + 0.05)
        y_nodes = _y_axis(y_max, lambda k: np.linspace(1.0 - eps, 1.0 - eps + eps * eps, k),
                          min(9, max(3, ny // 5)), ny, 1e-9 * y_max)

    x_nodes = None
    if not planar:
        phi_max = _peak_rate(params, fam, z_nodes)
        x_max = spec.bounds.d1 * T * max(phi_max, 1e-12) * (1.0 + 1e-9)
        if normalized:
            # log spacing from the eps^2 scale up: the reward depends on x/y,
            # so cells near the origin must shrink in x as they do in y or
            # interpolation corners see wildly inflated ratios
            lo = max(0.25 * eps * eps * phi_max, 1e-12 * x_max)
            if not lo < x_max:
                raise ParameterError(f"x reach {x_max:g} (d1 T times the peak rate) does not "
                                     f"pass the eps^2 scale {lo:g}", field="payoff.d1")
            x_nodes = np.concatenate([[0.0], np.geomspace(lo, x_max, nx - 1)])
        else:
            knee = spec.g_cap if spec.g_kind == "cap" else spec.g_strike
            if knee is not None and 3.0 * knee < 0.5 * x_max:
                n_dense = max(2, int(round(0.8 * nx)))
                dense = np.linspace(0.0, 3.0 * knee, n_dense)
                coarse = np.linspace(3.0 * knee, x_max, nx - n_dense + 1)[1:]
                x_nodes = np.concatenate([dense, coarse])
            else:
                x_nodes = np.linspace(0.0, x_max, nx)
    return StateGrid(y_nodes=y_nodes, z_nodes=z_nodes, n_steps=n_steps, x_nodes=x_nodes)


def _y_axis(y_max: float, run: Callable, n_run: int, ny: int, tol: float) -> np.ndarray:
    """``ny`` distinct y nodes: ``run(k)`` merged with ny - k even nodes over [0, y_max].

    k starts at ``n_run``.  While a base node coincides with a run node
    (within ``tol``), the run takes one more node from the base, so the
    axis keeps the count it was asked for.
    """
    for k in range(n_run, ny - 1):
        y_nodes = np.unique(np.concatenate([np.linspace(0.0, y_max, ny - k), run(k)]))
        y_nodes = y_nodes[np.concatenate([[True], np.diff(y_nodes) > tol])]
        if y_nodes.size == ny:
            return y_nodes
    raise ParameterError(f"the y axis cannot lay {ny} distinct nodes", field="grid.ny")


def _peak_rate(params: MarketParams, fam: SmoothingFamily, z_nodes: np.ndarray) -> float:
    """Largest payment rate on the z axis over a 9-point time probe; x must reach d1 T times it."""
    t_probe = np.linspace(0.0, params.t_horizon, 9)[:, None]
    return float(np.max(fam.payoff_rate(np.exp(z_nodes)[None, :], t_probe)))


def refine_grid(grid: StateGrid) -> StateGrid:
    """Halve every spacing (node counts 2n-1) and double the step count."""

    def _halve(nodes):
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        out = np.empty(nodes.size * 2 - 1)
        out[0::2] = nodes
        out[1::2] = mid
        return out

    return StateGrid(
        y_nodes=_halve(grid.y_nodes),
        z_nodes=_halve(grid.z_nodes),
        n_steps=2 * grid.n_steps,
        x_nodes=None if grid.x_nodes is None else _halve(grid.x_nodes),
    )


# ---------------------------------------------------------------------------
# semi-Lagrangian transport
# ---------------------------------------------------------------------------

class _Transport:
    """The transport step of one sweep: a slice read at the characteristic feet.

    Built once per sweep, it owns scratch arrays of the grid's shape and
    writes each candidate into a buffer the caller passes.  The feet are
    interpolated linearly, (1 - w) a + w b, in y on the (ny,) line of
    y-feet and then in x, where node i's foot is x_i + pay(y, z); the x
    gather is one flat ``take`` of x-plane offsets.
    """

    def __init__(self, grid: StateGrid):
        self.ax_y = _Axis(grid.y_nodes, "y")
        self.a, self.b = np.empty(grid.shape), np.empty(grid.shape)
        if grid.x_nodes is None:
            self.ax_x = None
            return
        self.ax_x = _Axis(grid.x_nodes, "x")
        self.x_col = grid.x_nodes[:, None, None]
        self.foot, self.wx = np.empty(grid.shape), np.empty(grid.shape)
        self.ix = np.empty(grid.shape, dtype=np.int64)
        _, ny, nz = grid.shape
        self.plane = ny * nz
        self.col = np.arange(self.plane).reshape(ny, nz)  # offset of (y, z) in an x plane

    def __call__(self, cur: np.ndarray, foot_y: np.ndarray, pay: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
        """Write into ``out`` the slice ``cur`` read at the feet, and return it.

        ``foot_y`` (ny,) holds the y-feet.  ``pay`` (ny, nz) is added to the
        result on a (y, z) grid and is the x-foot offset on an (x, y, z) grid.
        """
        # every index is in range; mode="clip" lets take write into out unbuffered
        a, b = self.a, self.b
        iy, wy = self.ax_y.locate(foot_y)
        wy = wy[:, None]
        np.multiply(1.0 - wy, np.take(cur, iy, axis=-2, out=a, mode="clip"), out=a)
        np.multiply(wy, np.take(cur, iy + 1, axis=-2, out=b, mode="clip"), out=b)
        if self.ax_x is None:
            return np.add(np.add(a, b, out=out), pay, out=out)
        flat = np.add(a, b, out=a).reshape(-1)
        ix, wx = self.ax_x.locate(np.add(self.x_col, pay, out=self.foot), out=(self.ix, self.wx))
        np.add(np.multiply(ix, self.plane, out=ix), self.col, out=ix)
        flat.take(ix, out=b, mode="clip")
        flat.take(np.add(ix, self.plane, out=ix), out=out, mode="clip")
        np.multiply(np.subtract(1.0, wx, out=self.foot), b, out=b)
        return np.add(b, np.multiply(wx, out, out=out), out=out)


# ---------------------------------------------------------------------------
# implicit z-step
# ---------------------------------------------------------------------------

def _z_step_matrix(params: MarketParams, z_nodes: np.ndarray, dt: float) -> np.ndarray:
    """Banded (I - dt A) for A = mu d_z (upwind) + sigma^2/2 d_zz.

    Boundary rows drop the second difference; the drift survives there
    only when its upwind neighbour is interior (outflow is dropped).
    Returns the (3, nz) banded form for scipy.linalg.solve_banded.
    """
    nz = z_nodes.size
    dz = z_nodes[1] - z_nodes[0]
    mu = params.r - 0.5 * params.sigma**2
    mu_p, mu_m = max(mu, 0.0), min(mu, 0.0)
    a = 0.5 * params.sigma**2 / dz**2

    upper = np.full(nz - 1, mu_p / dz + a)
    lower = np.full(nz - 1, -mu_m / dz + a)
    diag = np.full(nz, -(mu_p - mu_m) / dz - 2.0 * a)
    # boundary rows: no diffusion; drift only toward the interior
    upper[0] = mu_p / dz
    diag[0] = -mu_p / dz
    lower[-1] = -mu_m / dz
    diag[-1] = mu_m / dz

    ab = np.zeros((3, nz))
    ab[0, 1:] = -dt * upper
    ab[1, :] = 1.0 - dt * diag
    ab[2, :-1] = -dt * lower
    if np.any(ab[0, 1:] > 0.0) or np.any(ab[2, :-1] > 0.0) or np.any(ab[1] <= 0.0):
        raise GridError("z-step lost the M-matrix property; check sigma, dz, dt")
    return ab


def _solve_z(ab: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply (I - dt A)^-1 along the last (z) axis."""
    flat = values.reshape(-1, values.shape[-1])
    out = solve_banded((1, 1), ab, flat.T, overwrite_b=False, check_finite=False)
    return np.ascontiguousarray(out.T).reshape(values.shape)


# ---------------------------------------------------------------------------
# value functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValueFunction:
    """Grid-sampled t = 0 value of one regularised problem; ``values`` has ``grid.shape``."""

    grid: StateGrid
    variant: str
    epsilon: float
    values: np.ndarray


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Policy:
    """Feedback control map (t, x, y, S) -> u in {d0, d1} or [d0, d1].

    ``grid_table`` policies hold one boolean slab per time step (True
    selects d1) and use nearest-node lookup in (x, y, z) with the
    enclosing time slice.  ``analytic`` policies wrap a callable.
    """

    source: str
    d0: float
    d1: float
    name: str = "policy"
    fn: Callable | None = None
    table: np.ndarray | None = None
    grid: StateGrid | None = None
    t_horizon: float | None = None
    meta: dict = field(default_factory=dict)

    def evaluate(self, t: float, x, y, s):
        """Vectorised over path arrays x, y, s at a common time t."""
        if self.source == "analytic":
            u = np.asarray(self.fn(t, x, y, s), dtype=float)
            return np.clip(u, self.d0, self.d1)
        g = self.grid
        n_steps = self.table.shape[0]
        dt = self.t_horizon / n_steps
        n = min(int(t / dt + 1e-12), n_steps - 1)
        node = (_Axis(g.y_nodes, "y").nearest(y), _Axis(g.z_nodes, "z").nearest(np.log(s)))
        if g.x_nodes is not None:
            node = (_Axis(g.x_nodes, "x").nearest(x),) + node
        picks = self.table[(n,) + node]
        return np.where(picks, self.d1, self.d0)


# ---------------------------------------------------------------------------
# the backward sweep
# ---------------------------------------------------------------------------

def _variant(spec: PayoffSpec, grid: StateGrid) -> str:
    """The problem that the contract and the grid pose; (y, z) grids need identity g."""
    variant = "normalized" if spec.weight_mode == "normalized" else "adapted"
    if grid.x_nodes is None:
        if variant == "adapted" and spec.g_kind == "identity":
            return "linear_reduced"
        raise GridError(f"the {variant} variant needs an x axis; this grid has only y and z")
    return variant


def _validate(params, spec, fam, grid, variant):
    z0 = np.log(params.s0)
    if not grid.z_nodes[0] <= z0 <= grid.z_nodes[-1]:
        raise GridError("z axis must contain log s0")
    eps = fam.epsilon
    if variant != "normalized" and grid.y_nodes[-1] < 1.0 + eps:
        raise GridError("y_max must cover the budget cutoff region (>= 1 + eps)")
    if variant != "linear_reduced":
        need = spec.bounds.d1 * params.t_horizon * _peak_rate(params, fam, grid.z_nodes)
        if grid.x_nodes[-1] < need * (1.0 - 1e-9):
            raise GridError(f"x_max {grid.x_nodes[-1]:g} below reachable bound {need:g}")
    # resolution advisories (accuracy, not stability)
    dy = float(np.min(np.diff(grid.y_nodes)))
    dt = params.t_horizon / grid.n_steps
    if variant != "normalized" and dy > 0.5 * eps * eps:
        warnings.warn(
            f"y spacing {dy:.4g} does not resolve the eps^2 cutoff band "
            f"({eps * eps:.4g}); expect extra smearing",
            RuntimeWarning,
            stacklevel=3,
        )
    if dt > 0.5 * eps * eps:
        warnings.warn(
            f"time step {dt:.4g} does not resolve the eps^2 ramp near T",
            RuntimeWarning,
            stacklevel=3,
        )


def _sweep(params: MarketParams, spec: PayoffSpec, fam: SmoothingFamily,
           grid: StateGrid, observe: Callable | None = None) -> ValueFunction:
    """Backward sweep holding one slice at a time; returns the t = 0 slice.

    ``observe(n, slice_n, d1_wins_n)``, when given, sees every slice from
    n = n_steps down to 0.  ``d1_wins_n`` is the scheme's own choice at
    each node of step n -> n + 1, ``cand(d1) >= cand(d0)`` (ties go to
    d1, all True when d0 == d1), and None at the terminal slice.  The
    arrays are not reused by the sweep; the observer must not modify them.
    """
    variant = _variant(spec, grid)
    _validate(params, spec, fam, grid, variant)
    T = params.t_horizon
    nt = grid.n_steps
    dt = T / nt
    times = np.linspace(0.0, T, nt + 1)
    y = grid.y_nodes
    z = grid.z_nodes
    s_of_z = np.exp(z)
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    controls = (d0,) if d1 == d0 else (d0, d1)
    ab = _z_step_matrix(params, z, dt)
    transport = _Transport(grid)
    cands = [np.empty(grid.shape) for _ in controls]

    x = grid.x_nodes
    if variant == "linear_reduced":
        terminal = 0.0
    elif variant == "adapted":
        terminal = fam.terminal_reward(x)[:, None, None]
    else:
        terminal = fam.ratio_reward(x[:, None], y[None, :])[:, :, None]
    cur = np.broadcast_to(terminal, grid.shape).copy()
    if observe is not None:
        observe(nt, cur, None)

    for n in range(nt - 1, -1, -1):
        t_n = times[n]
        phi = fam.payoff_rate(s_of_z, t_n)  # (nz,)
        for u, cand in zip(controls, cands):
            # the cutoff and ramp factors integrate in closed form along the
            # (deterministic) y/t characteristic, so the sub-cell eps^2 bands
            # are credited exactly rather than sampled at nodes
            if variant == "normalized":
                h_int = float(fam.effective_control_integral(u, t_n, times[n + 1]))
                foot_y, gain = y + h_int, np.full(y.size, h_int)
            else:
                foot_y = y + dt * u
                gain = fam.budget_cutoff_integral(foot_y) - fam.budget_cutoff_integral(y)
            transport(cur, foot_y, gain[:, None] * phi[None, :], out=cand)
        d1_wins = None
        if observe is not None:
            d1_wins = np.ones(cur.shape, dtype=bool) if len(cands) == 1 else cands[1] >= cands[0]
        best = cands[0] if len(cands) == 1 else np.maximum(cands[0], cands[1], out=cands[0])
        cur = _solve_z(ab, best)
        if not np.all(np.isfinite(cur)):
            raise NumericalFailure(f"non-finite values in slice {n}", time_index=n)
        if observe is not None:
            observe(n, cur, d1_wins)

    return ValueFunction(grid=grid, variant=variant, epsilon=fam.epsilon, values=cur)


# ``solve`` dispatches through ``_SOLVERS``.  Its three entries are the one
# sweep under the names bench/tracer.py wraps by attribute, as distinct
# objects so that each is wrapped once.
solve_adapted, solve_linear_reduced, solve_normalized = (partial(_sweep) for _ in range(3))
_SOLVERS = {"adapted": solve_adapted, "linear_reduced": solve_linear_reduced,
            "normalized": solve_normalized}


# ---------------------------------------------------------------------------
# price readout and policy extraction
# ---------------------------------------------------------------------------

def price_from_value(vf: ValueFunction, params: MarketParams) -> PriceEstimate:
    """Discounted value at (x=0, y=0, z=log s0, t=0), interpolated linearly in z."""
    z0 = np.log(params.s0)
    g = vf.grid
    if not g.z_nodes[0] <= z0 <= g.z_nodes[-1]:
        raise ExtrapolationError("log s0 outside the z grid")
    iz, wz = _Axis(g.z_nodes, "z").locate(np.array([z0]))
    # node 0 is read as the origin, so it must be exactly 0 on x and y
    if g.x_nodes is not None:
        if g.x_nodes[0] != 0.0 or g.y_nodes[0] != 0.0:
            raise ExtrapolationError("grid does not start at the origin in (x, y)")
        line = vf.values[0, 0, :]
    else:
        if g.y_nodes[0] != 0.0:
            raise ExtrapolationError("grid does not start at y = 0")
        line = vf.values[0, :]
    raw = float((1.0 - wz[0]) * line[iz[0]] + wz[0] * line[iz[0] + 1])
    value = float(np.exp(-params.r * params.t_horizon) * raw)
    return PriceEstimate(
        value=value,
        stderr=0.0,
        method="hjb",
        meta={
            "epsilon": vf.epsilon,
            "variant": vf.variant,
            "grid_shape": list(vf.grid.shape),
            "n_steps": vf.grid.n_steps,
        },
    )


def extract_policy(params: MarketParams, spec: PayoffSpec, epsilon: float,
                   grid: StateGrid | dict | None) -> Policy:
    """Bang-bang feedback table of the discrete scheme itself.

    The Hamiltonian is affine in u, so each backward step takes the
    better of the two endpoint controls; the sweep records that choice,
    ``cand(d1) >= cand(d0)`` with ties to d1, at every node and step.
    Arguments are those of ``solve``.
    """
    table = None

    def record(n, slice_n, d1_wins):
        nonlocal table
        if d1_wins is None:
            table = np.empty((n,) + slice_n.shape, dtype=bool)
        else:
            table[n] = d1_wins

    vf = solve(params, spec, epsilon, grid, observe=record)
    return Policy(
        source="grid_table",
        d0=spec.bounds.d0,
        d1=spec.bounds.d1,
        name=f"hjb[{vf.variant}]",
        table=table,
        grid=vf.grid,
        t_horizon=params.t_horizon,
        meta={"epsilon": vf.epsilon},
    )


# ---------------------------------------------------------------------------
# epsilon ladders
# ---------------------------------------------------------------------------

def solve(params: MarketParams, spec: PayoffSpec, epsilon: float, grid: StateGrid | dict | None,
          observe: Callable | None = None) -> ValueFunction:
    """Solve the regularised problem at one epsilon.

    ``grid`` is a StateGrid, or ``default_grid`` node counts (nx, ny, nz,
    n_steps), where a missing count or ``grid=None`` takes the desk value;
    the grid and ``spec`` pick the variant (see ``_variant``).
    ``observe`` sees every slice of the sweep (see ``_sweep``).
    """
    params.check_log_band()
    fam = build_family(epsilon, spec, params)
    if not isinstance(grid, StateGrid):
        grid = default_grid(params, spec, fam, **(grid or {}))
    return _SOLVERS[_variant(spec, grid)](params, spec, fam, grid, observe=observe)


def ladder_price(
    params: MarketParams,
    spec: PayoffSpec,
    epsilons=DESK_EPSILONS,
    grid: StateGrid | dict | None = None,
) -> tuple[PriceEstimate, list[PriceEstimate]]:
    """Solve along a decreasing epsilon ladder and Richardson-extrapolate.

    The regularisation error is first order in epsilon, so the reported
    price combines the last two rungs as
    p* = p(e2) + (p(e2) - p(e1)) e2 / (e1 - e2).
    That only holds once the rungs converge: with three or more rungs, a
    last gap |p(e2) - p(e1)| that is nonzero and not smaller than the one
    before raises NumericalFailure.  Raw per-epsilon estimates come back
    alongside.  ``grid`` is taken as by ``solve``.
    """
    epsilons = sorted(set(float(e) for e in epsilons), reverse=True)
    if not epsilons:
        raise ParameterError("need at least one epsilon", field="epsilons")
    raw: list[PriceEstimate] = []
    for eps in epsilons:
        vf = solve(params, spec, eps, grid)
        raw.append(price_from_value(vf, params))
    if len(raw) >= 3:
        p = [r.value for r in raw[-3:]]
        before, last = abs(p[1] - p[0]), abs(p[2] - p[1])
        if last >= before and last > 0.0:
            raise NumericalFailure(f"epsilon ladder diverges: rung gaps {before:.6g} then {last:.6g}; "
                                   "refine the grid")
    if len(raw) >= 2:
        e1, e2 = epsilons[-2], epsilons[-1]
        p1, p2 = raw[-2].value, raw[-1].value
        value = p2 + (p2 - p1) * e2 / (e1 - e2)
    else:
        value = raw[0].value
    est = PriceEstimate(
        value=value,
        stderr=0.0,
        method="hjb",
        meta={
            "variant": vf.variant,
            "epsilons": list(epsilons),
            "raw_values": [r.value for r in raw],
            "extrapolated": len(raw) >= 2,
            "grid_shape": list(raw[-1].meta["grid_shape"]),
            "n_steps": raw[-1].meta["n_steps"],
        },
    )
    return est, raw


def refinement_delta(
    params: MarketParams,
    spec: PayoffSpec,
    rung: PriceEstimate,
    grid: dict | None = None,
) -> float:
    """|price(grid) - price(refined grid)| at one epsilon: the empirical
    discretisation allowance used in cross-method tolerances.

    ``rung`` is a ``ladder_price`` rung priced on the default grid with
    the node counts ``grid`` (missing counts take the desk values); only
    the refined grid is solved here.
    """
    eps = rung.meta["epsilon"]
    base = default_grid(params, spec, build_family(eps, spec, params), **(grid or {}))
    if list(base.shape) != rung.meta["grid_shape"] or base.n_steps != rung.meta["n_steps"]:
        raise ParameterError("rung was not priced on these node counts", field="grid")
    fine = solve(params, spec, eps, refine_grid(base))
    return abs(rung.value - price_from_value(fine, params).value)


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_csv(grid: StateGrid, t_horizon: float, time_index: int, slab: np.ndarray,
               path: str, col: str) -> None:
    """Write slice ``time_index`` of ``grid`` as CSV with columns t,x,y,z,<col>.

    The reduced variant has no x state; its x column is written as 0.
    """
    t = float(np.linspace(0.0, t_horizon, grid.n_steps + 1)[time_index])
    x_nodes = grid.x_nodes if grid.x_nodes is not None else np.array([0.0])
    vals = slab if slab.ndim == 3 else slab[None, ...]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t,x,y,z,{col}\n")
        for i, xv in enumerate(x_nodes):
            for j, yv in enumerate(grid.y_nodes):
                for k, zv in enumerate(grid.z_nodes):
                    fh.write(f"{t:.12g},{xv:.12g},{yv:.12g},{zv:.12g},{vals[i, j, k]:.12g}\n")
