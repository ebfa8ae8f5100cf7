"""Backward dynamic-programming solvers on tensor grids in (x, y, log S, t).

Three regularised problems share one sweep:

* ``adapted``        -- state (x, y, z); dx = v phi(S, t) dt, dy = v dt,
  terminal reward g_hat(x).
* ``linear_reduced`` -- state (y, z); running reward v phi(S, t),
  terminal value 0.  Valid for identity g only.
* ``normalized``     -- state (x, y, z); dx = h(u, t) phi(S, t) dt,
  dy = h(u, t) dt, terminal reward g2(x, y).

In budget mode y is the weight spent above the floor, w = y - d0 t, on
[0, W] with W = 1 - d0 T ([0, 1] at W = 0: no foot leaves w = 0 there).
A step pays v dt = dt min(u, max(0, hi)), hi the upper end of
``payoffs.budget_interval``, which the Monte Carlo clips u to, and moves
w by (v - d0) dt; in w, hi is the same at every step, and no foot passes W.
Budget may be left unspent, so the grid prices "at most the budget", the
contract's price for nondecreasing g; other g are refused in both modes.

A normalized weight is solved as ``normalized``, a budget contract as
``adapted`` on a grid with an x axis and as ``linear_reduced`` on one
without, which ``default_grid`` lays for identity g.  The payment x only
grows and g_hat is affine above ``SmoothingFamily.reward_bend``, so a
budget x axis ends one cell past the bend, and a foot past it extrapolates.

The scheme is monotone but for that extrapolation, with no CFL limit:

* x and y carry no diffusion, so their transport is semi-Lagrangian --
  each backward step reads the next slice at the foot of the (exact,
  degenerate) characteristic, extrapolated past the top of an axis; no
  foot moves down, since phi >= 0 (see ``smoothing``).  The y-foot
  depends on y alone, so each control locates its (ny,) line of feet
  and interpolates in y; the x-foot x + gain(y) phi(z) depends on y
  only through the gain, so it is located once per distinct gain value
  and then interpolated in x.  One kernel, ``_Transport``, built once
  per sweep, does both steps and writes each control's candidate into
  a buffer the sweep reuses from step to step.  A control's move follows
  u and t alone, so the sweep fixes every step's moves and phi before
  its loop.  The kernel keeps each control's located feet and locates
  them again only when its y-feet, gain or phi change: at r = 0, never
  after the first step in budget mode, and in normalized mode only from
  the ramp's start T (1 - eps) on, as the shift is u dt exactly before
  it (d1 dt throughout for d1).  Where phi is 0 (a call or put rate out
  of the money) the x-foot is the node itself, so the x step runs only
  on the z columns from the first nonzero phi to the last.
* A control whose y-shift is exactly 0 at every node (u = 0 in budget
  mode, and u = 0 before the ramp in normalized mode) has an x-shift of
  0 too, so its characteristic does not move: its candidate is the slice
  as it is, and the transport is skipped.  That is bit-identical to the
  transport, because the locate places node i at (i, 0.0) on every axis.
* z carries the only diffusion; drift r - sigma^2/2 is upwinded and the
  diffusion solved implicitly (unconditionally stable).  (I - dt A) is
  the same at every step, so each sweep inverts it once, clips the
  inverse's rounding negatives to 0, and applies it at every step as one
  matrix product over the (rows, nz) slice.  At z_min/z_max the second
  difference is dropped (the value is asymptotically linear there) and
  the drift is kept only when its upwind neighbour lies inside the grid.
* The Hamiltonian is affine in u, so the max is taken over the two
  endpoint controls only; ties go to d1.
* One class, ``_Axis``, validates each axis and places every query on
  it; a ``StateGrid`` builds its axes once and keeps them in ``axes``.
  ``locate`` places the characteristic feet and the readout at log s0
  by a search on every axis, uniform or not; ``nearest``, the policy
  table's lookup, counts the cell midpoints below each query through a
  bucket table the axis builds on its first call.

The payoff weight u enters both transport rates linearly, which is what
makes the optimal control bang-bang.  The sweep keeps one slice at a
time; the slices and choices it hands an observer are fresh arrays,
never reused by the sweep.  ``extract_policy`` records the scheme's own
choice at every node and step (the ``hjb`` policy, whose rule is a
``TableRule``): d1 where its candidate value is >= that of d0, so ties
go to d1.  The choice is bang-bang, so it keeps one bit per node, packed
slice by slice as the sweep hands it over.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from .errors import NumericalFailure, ParameterError
from .market import MarketParams
from .payoffs import PayoffSpec, budget_interval
from .results import PriceEstimate
from .smoothing import SmoothingFamily, build_family

# node counts of the desk grid, which a missing ``grid`` count takes
DESK_GRID = {"nx": 41, "ny": 41, "nz": 81, "n_steps": 200}
DESK_EPSILONS = (0.2, 0.1, 0.05)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

class _Axis:
    """A validated 1-d axis that places query points on it."""

    def __init__(self, nodes: np.ndarray, name: str):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ParameterError(f"{name} axis needs at least two nodes", field=f"grid.{name}_nodes")
        d = np.diff(nodes)
        if np.any(d <= 0.0):
            raise ParameterError(f"{name} axis must be strictly increasing", field=f"grid.{name}_nodes")
        self.nodes = nodes
        self.step = d  # step[i] = nodes[i + 1] - nodes[i]
        # the tolerance follows the axis' own scale: relative to the step, plus
        # the rounding of the nodes themselves; a fixed absolute one would call
        # every axis with steps below it uniform
        tol = 1e-9 * d[0] + 4.0 * np.spacing(np.max(np.abs(nodes)))
        self.uniform = bool(np.all(np.abs(d - d[0]) <= tol))

    def locate(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell index and in-cell fraction of each query.

        The cell is searched on every axis, uniform or not, and the fraction
        is (q - nodes[i]) / step[i], so node i is placed at (i, 0.0) exactly.
        A query past either end extrapolates the end cell.  The caller's
        array is left as it is.
        """
        idx = np.searchsorted(self.nodes, q, side="right")
        np.clip(np.subtract(idx, 1, out=idx), 0, self.nodes.size - 2, out=idx)
        frac = np.subtract(q, self.nodes.take(idx))
        return idx, np.divide(frac, self.step.take(idx), out=frac)

    def nearest(self, q: np.ndarray) -> np.ndarray:
        """Index of the node nearest each query; a query halfway between takes the lower.

        That index is the number of cell midpoints strictly below the query,
        ``np.searchsorted(mids, q, side="left")``, counted through the bucket
        table: the count below the query's bucket, plus the midpoints in that
        bucket that lie below the query.
        """
        lo, inv_width, top, first, mids, n_cmp = self._midpoint_buckets
        pos = np.subtract(q, lo)
        np.multiply(pos, inv_width, out=pos)
        # a far-off or infinite query clamps to an end bucket before the cast
        np.minimum(np.maximum(pos, 0.0, out=pos), top, out=pos)
        k = first.take(pos.astype(np.int64), mode="clip")
        for _ in range(n_cmp):
            k += mids.take(k, mode="clip") < q
        return k

    @cached_property
    def _midpoint_buckets(self) -> tuple:
        """The table ``nearest`` reads, built on its first call.

        The buckets are half as wide as the smallest midpoint gap, but no
        more than 2^16 of them; ``first[b]`` is the number of midpoints in
        the buckets below b.  The bucket map is monotone in the query, so a
        midpoint in a lower bucket is below it and one in a higher bucket is
        not.  ``n_cmp`` is the most midpoints one bucket holds, and ``mids``
        ends in +inf so that no compare runs off the axis.
        """
        mids = self.nodes[:-1] + 0.5 * self.step
        lo, span = mids[0], mids[-1] - mids[0]
        # one midpoint takes half the step; the smallest normal float keeps
        # 1 / width finite on an axis of subnormal steps
        width = max(0.5 * np.min(np.diff(mids), initial=self.step[0]), span / (2**16 - 1),
                    np.finfo(float).tiny)
        inv_width = 1.0 / width
        top = float(np.floor(span * inv_width))
        bucket = np.clip((mids - lo) * inv_width, 0.0, top).astype(np.int64)
        first = np.searchsorted(bucket, np.arange(int(top) + 1), side="left")
        n_cmp = int(np.bincount(bucket).max())
        return lo, inv_width, top, first, np.append(mids, np.inf), n_cmp


@dataclass(frozen=True)
class StateGrid:
    """Tensor grid; ``x_nodes`` is None for the reduced (y, z) problem.
    ``axes`` keeps the validated ``_Axis`` of each dimension, in ``shape`` order."""

    y_nodes: np.ndarray
    z_nodes: np.ndarray
    n_steps: int
    x_nodes: np.ndarray | None = None
    axes: tuple[_Axis, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = () if self.x_nodes is None else (_Axis(self.x_nodes, "x"),)
        axes = x + (_Axis(self.y_nodes, "y"), _Axis(self.z_nodes, "z"))
        object.__setattr__(self, "axes", axes)
        if self.n_steps < 1:
            raise ParameterError(f"need at least one time step, not {self.n_steps}", field="grid.n_steps")
        if not axes[-1].uniform:
            raise ParameterError("z axis must be uniform (implicit diffusion stencil)",
                                 field="grid.z_nodes")

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

    Identity g in budget mode gets no x axis and ignores ``nx``.  Other
    budget contracts get x even on [0, bend] plus one more step: above the
    bend g_hat is affine, so the last cell, extrapolated, covers every x.
    """
    normalized = spec.weight_mode == "normalized"
    planar = _linear_in_x(spec)
    # x is the origin and two nodes or more from the bend (the eps^2 scale) up
    if not planar and nx < 3:
        raise ParameterError(f"the x axis needs at least three nodes, not {nx}", field="grid.nx")
    # y is the origin, y_max, and the normalized eps^2 run or a budget node between
    if ny < 3:
        raise ParameterError(f"the y axis needs at least three nodes, not {ny}", field="grid.ny")
    if nz < 2:
        raise ParameterError(f"the z axis needs at least two nodes, not {nz}", field="grid.nz")
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
        # geometric packing there keeps the interpolation honest.  While an
        # even node falls on a fine one, the fine run takes one more node
        # from the even base, so the axis keeps its ny nodes
        y_max = spec.bounds.d1 * T + 1.0
        fine_top = min(4.0 * eps, 0.5 * y_max)
        for k in range(min(max(3, ny // 4), ny - 2), ny - 1):
            y_nodes = np.unique(np.concatenate([np.linspace(0.0, y_max, ny - k),
                                                np.geomspace(0.25 * eps * eps, fine_top, k)]))
            y_nodes = y_nodes[np.concatenate([[True], np.diff(y_nodes) > 1e-12 * y_max])]
            if y_nodes.size == ny:
                break
        else:
            raise ParameterError(f"the y axis cannot lay {ny} distinct nodes", field="grid.ny")
    else:
        # no foot passes the excess budget W = 1 - d0 T, so the axis ends there
        y_nodes = np.linspace(0.0, max(1.0 - spec.bounds.d0 * T, 0.0) or 1.0, ny)

    x_nodes = None
    if normalized:
        phi_max = _peak_rate(fam, z_nodes)
        x_max = spec.bounds.d1 * T * max(phi_max, 1e-12) * (1.0 + 1e-9)  # the reach
        # log spacing from the eps^2 scale up: the reward depends on x/y,
        # so cells near the origin must shrink in x as they do in y or
        # interpolation corners see wildly inflated ratios
        lo = max(0.25 * eps * eps * phi_max, 1e-12 * x_max)
        if not lo < x_max:
            raise ParameterError(f"x reach {x_max:g} (d1 T times the peak rate) does not "
                                 f"pass the eps^2 scale {lo:g}", field="payoff.d1")
        x_nodes = np.concatenate([[0.0], np.geomspace(lo, x_max, nx - 1)])
    elif not planar:
        bend = fam.reward_bend
        x_nodes = np.append(np.linspace(0.0, bend, nx - 1), bend + bend / (nx - 2))
    return StateGrid(y_nodes=y_nodes, z_nodes=z_nodes, n_steps=n_steps, x_nodes=x_nodes)


def _linear_in_x(spec: PayoffSpec) -> bool:
    """A budget contract with identity g: its reward is linear in x, so it needs no x axis."""
    return spec.weight_mode != "normalized" and spec.g_kind == "identity"


def _peak_rate(fam: SmoothingFamily, z_nodes: np.ndarray) -> float:
    """Largest payment rate on the z axis, at t = 0: phi does not increase in t, as r >= 0."""
    return float(np.max(fam.payoff_rate(np.exp(z_nodes), 0.0)))


def refine_grid(grid: StateGrid, axis: str) -> StateGrid:
    """Halve the spacing of the x, y or z axis (node count 2n - 1), or double the step count (t)."""
    if axis == "t":
        return replace(grid, n_steps=2 * grid.n_steps)
    nodes = getattr(grid, f"{axis}_nodes")
    if nodes is None:
        raise ParameterError(f"this grid has no {axis} axis to refine", field=f"grid.{axis}_nodes")
    out = np.empty(nodes.size * 2 - 1)
    out[0::2] = nodes
    out[1::2] = 0.5 * (nodes[:-1] + nodes[1:])
    return replace(grid, **{f"{axis}_nodes": out})


# ---------------------------------------------------------------------------
# semi-Lagrangian transport
# ---------------------------------------------------------------------------

class _Transport:
    """The transport step of one sweep: a slice read at the characteristic feet.

    Built once per sweep, it owns two scratch slices and writes each
    candidate into a buffer the caller passes.  The feet are interpolated
    linearly, (1 - w) a + w b, in y on the (ny,) line of y-feet and then
    in x, where node i's foot is x_i + gain(y) phi(z).  That foot depends
    on y only through the gain, so the x-feet are located once for each
    distinct value of ``gain`` and spread over y with one take; the x
    gather is one flat ``take`` of x-plane offsets.  Where phi is exactly
    0 the x-foot is the node itself, and the x step would return the
    y-interpolated value unchanged, so the x-feet are located and gathered
    only on the z columns from the first nonzero phi to the last.

    Each slot (the sweep gives each control its own) keeps the feet it
    located last, and a call whose ``foot_y``, ``gain`` and ``phi`` are
    bitwise those of the slot's previous call reads them as they are.
    Every index a take reads is in range; mode="clip" only lets take write
    into its out unbuffered.
    """

    def __init__(self, grid: StateGrid):
        self.ax_y = grid.axes[-2]
        self.a, self.b = np.empty(grid.shape), np.empty(grid.shape)
        self.kept = {}  # slot -> (inputs, 1 - wy, wy, iy, z columns, flat x offsets, 1 - wx, wx)
        if grid.x_nodes is None:
            self.ax_x = None
            return
        self.ax_x = grid.axes[0]
        self.x_col = grid.x_nodes[:, None, None]
        _, ny, nz = grid.shape
        self.plane = ny * nz
        self.col = np.arange(self.plane).reshape(ny, nz)  # offset of (y, z) in an x plane

    def _feet(self, slot: int, foot_y: np.ndarray, gain: np.ndarray, phi: np.ndarray) -> tuple:
        """The slot's feet for these inputs, located again only when the inputs changed."""
        inputs = foot_y.tobytes() + gain.tobytes() + phi.tobytes()
        kept = self.kept.get(slot)
        if kept is not None and kept[0] == inputs:
            return kept
        iy, wy = self.ax_y.locate(foot_y)
        cols = ix = vx = wx = None
        if self.ax_x is not None:
            moving = np.flatnonzero(phi)
            cols = slice(moving[0], moving[-1] + 1) if moving.size else slice(0, 0)
            g, row = np.unique(gain, return_inverse=True)
            ic, wc = self.ax_x.locate(self.x_col + g[:, None] * phi[None, cols])
            wx = wc.take(row, axis=1)
            vx = 1.0 - wx
            ix = ic.take(row, axis=1)
            np.add(np.multiply(ix, self.plane, out=ix), self.col[:, cols], out=ix)
        kept = self.kept[slot] = (inputs, 1.0 - wy[:, None], wy[:, None], iy, cols, ix, vx, wx)
        return kept

    def __call__(self, cur: np.ndarray, foot_y: np.ndarray, gain: np.ndarray, phi: np.ndarray,
                 out: np.ndarray, slot: int = 0) -> np.ndarray:
        """Write into ``out`` the slice ``cur`` read at the feet, and return it.

        ``foot_y`` (ny,) holds the y-feet.  ``gain`` (ny,) times ``phi``
        (nz,) is added to the result on a (y, z) grid and is the x-foot
        offset on an (x, y, z) grid.
        """
        a, b = self.a, self.b
        _, vy, wy, iy, cols, ix, vx, wx = self._feet(slot, foot_y, gain, phi)
        np.multiply(vy, np.take(cur, iy, axis=-2, out=a, mode="clip"), out=a)
        np.multiply(wy, np.take(cur, iy + 1, axis=-2, out=b, mode="clip"), out=b)
        if self.ax_x is None:
            return np.add(np.add(a, b, out=out), gain[:, None] * phi[None, :], out=out)
        # out holds the y-interpolated slice, which is the result on the columns
        # where phi is 0; the gathers read it before the moving columns are written
        flat = np.add(a, b, out=out).reshape(-1)
        lo, hi = a.reshape(-1)[:ix.size].reshape(ix.shape), b.reshape(-1)[:ix.size].reshape(ix.shape)
        flat.take(ix, out=lo, mode="clip")
        # the cell's upper x node is one plane on; the highest cell is nx - 2, so
        # no offset leaves the view
        flat[self.plane:].take(ix, out=hi, mode="clip")
        np.multiply(vx, lo, out=lo)
        np.add(lo, np.multiply(wx, hi, out=hi), out=out[..., cols])
        return out


# ---------------------------------------------------------------------------
# implicit z-step
# ---------------------------------------------------------------------------

def _z_step_matrix(params: MarketParams, z_nodes: np.ndarray, dt: float) -> np.ndarray:
    """(I - dt A)^-1, transposed, for A = mu d_z (upwind) + sigma^2/2 d_zz.

    Boundary rows drop the second difference; the drift survives there
    only when its upwind neighbour is interior (outflow is dropped).
    (I - dt A) is an M-matrix, so its inverse is entrywise >= 0; the
    dense inverse carries rounding negatives (about -1e-14 at nz = 641),
    which are clipped to 0 so the step stays monotone in floating point.
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

    off_up, main, off_low = -dt * upper, 1.0 - dt * diag, -dt * lower
    # the upwind stencil gives off-diagonals -dt·(>= 0) and a diagonal
    # 1 + dt·(>= 0) for any valid input, so a breach is a scheme fault
    if np.any(off_up > 0.0) or np.any(off_low > 0.0) or np.any(main <= 0.0):
        raise NumericalFailure("z-step lost the M-matrix property; check sigma, dz, dt")
    m = np.diag(main) + np.diag(off_up, 1) + np.diag(off_low, -1)
    return np.maximum(np.linalg.inv(m).T, 0.0)


def _solve_z(mt: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply (I - dt A)^-1 along the last (z) axis; ``mt`` is its transpose."""
    return (values.reshape(-1, mt.shape[0]) @ mt).reshape(values.shape)


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
    floor: float = 0.0  # y is the weight spent above floor t: d0 on a budget grid


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Policy:
    """Feedback control map (t, x, y, S) -> proposed u: a name and a rule.

    A policy only proposes a control; ``mc.evaluate_policy`` enforces
    admissibility by clipping each step's u to the payments that keep the
    contract feasible, within [d0, d1].
    """

    name: str
    rule: Callable

    def evaluate(self, t: float, x, y, s):
        """``rule(t, x, y, s)`` as it is, an array or a float; vectorised over
        path arrays x, y, s at a common time t.  The Monte Carlo walk never
        writes into what a rule returns, so a rule may return one of its
        inputs or an array it keeps and refills; x, y and s are the walk's
        own rows, which it advances in place after the call."""
        return self.rule(t, x, y, s)


@dataclass(frozen=True)
class TableRule:
    """The rule of the ``hjb`` policy: one bit per node and time step of
    ``grid`` (1 selects d1), each slice's flat (x,) y, z order packed
    little-endian into a row of ``bits``, read at the nearest node of the
    enclosing time slice.  ``_Axis.nearest`` counts the cell midpoints
    below each coordinate through a bucket table, not a search."""

    bits: np.ndarray
    grid: StateGrid
    t_horizon: float
    d0: float
    d1: float
    floor: float = 0.0  # the rule reads y - floor t, the grid's y (see ``ValueFunction``)

    def __post_init__(self):
        want = (self.grid.n_steps, (math.prod(self.grid.shape) + 7) // 8)
        if self.bits.dtype != np.uint8 or self.bits.shape != want:
            raise ParameterError(f"policy bits {self.bits.dtype}{list(self.bits.shape)} do not fit "
                                 f"the grid, which needs uint8{list(want)}", field="grid")

    def __call__(self, t: float, x, y, s):
        n_steps = self.grid.n_steps
        dt = self.t_horizon / n_steps
        n = min(int(t / dt + 1e-12), n_steps - 1)
        y = y - self.floor * t if self.floor else y
        query = (y, np.log(s)) if self.grid.x_nodes is None else (x, y, np.log(s))
        axes = self.grid.axes
        flat = axes[0].nearest(query[0])  # the node's offset in slice n, ((ix) ny + iy) nz + iz
        for axis, q in zip(axes[1:], query[1:]):
            flat *= axis.nodes.size
            flat += axis.nearest(q)
        byte = self.bits[n].take(flat >> 3)
        np.bitwise_and(flat, 7, out=flat)  # the node's bit in its byte
        picks = np.bitwise_and(np.right_shift(byte, flat, out=flat), 1, out=flat)
        return np.array([self.d0, self.d1]).take(picks)


# ---------------------------------------------------------------------------
# the backward sweep
# ---------------------------------------------------------------------------

def _variant(spec: PayoffSpec, grid: StateGrid) -> str:
    """The problem that the contract and the grid pose; (y, z) grids need identity g,
    and every grid nondecreasing g (see the module notes)."""
    if not spec.g_is_nondecreasing:
        raise ParameterError(f"the grid prices nondecreasing g, not {spec.g_kind} g", field="payoff.g_kind")
    variant = "normalized" if spec.weight_mode == "normalized" else "adapted"
    if grid.x_nodes is None:
        if _linear_in_x(spec):
            return "linear_reduced"
        raise ParameterError(f"the {variant} variant needs an x axis; this grid has only y and z",
                             field="grid.x_nodes")
    return variant


def _validate(params, spec, fam, grid, variant):
    z0, T = np.log(params.s0), params.t_horizon
    if not grid.z_nodes[0] <= z0 <= grid.z_nodes[-1]:
        raise ParameterError("z axis must contain log s0", field="grid.z_nodes")
    # y must hold the excess budget W or the normalized weight's reach, int h <= d1 T;
    # a shorter axis would extrapolate the value at feet the weight reaches
    need_y = spec.bounds.d1 * T if variant == "normalized" else 1.0 - spec.bounds.d0 * T
    if grid.y_nodes[-1] < need_y:
        raise ParameterError(f"y_max {grid.y_nodes[-1]:g} below reachable bound {need_y:g}",
                             field="grid.y_nodes")
    if variant == "normalized":
        need = spec.bounds.d1 * params.t_horizon * _peak_rate(fam, grid.z_nodes)
        if grid.x_nodes[-1] < need * (1.0 - 1e-9):
            raise ParameterError(f"x_max {grid.x_nodes[-1]:g} below reachable bound {need:g}",
                                 field="grid.x_nodes")
    elif variant == "adapted":  # a foot past x_max extrapolates, exact only above the bend
        bend = fam.reward_bend
        if not grid.x_nodes[-2] >= bend:
            raise ParameterError(f"the last x cell starts at {grid.x_nodes[-2]:g}, below the "
                                 f"reward's bend {bend:g}", field="grid.x_nodes")
    # a resolution advisory (accuracy, not stability): only the normalized
    # weight ramps up near T; a budget contract has no ramp
    dt = T / grid.n_steps
    if variant == "normalized" and dt > 0.5 * fam.ramp_width:
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
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    controls = (d0,) if d1 == d0 else (d0, d1)
    mt = _z_step_matrix(params, z, dt)
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

    # every step's payment rate (identity f gives one (1, nz) row) and each
    # control's move, its (y-feet, gain) or None where nothing moves, are fixed here
    phis = np.broadcast_to(fam.payoff_rate(np.exp(z)[None, :], times[:-1, None]), (nt, z.size))
    if variant == "normalized":
        # int h over each step, in closed form, credits the sub-cell eps^2 T band
        # exactly; before the ramp it is u dt exactly, and each distinct shift gets one move
        u = np.array(controls)
        shifts = u * dt + (d1 - u) * np.diff(fam.terminal_ramp_integral(times))[:, None]
        move = {s: None if s == 0.0 else (y + s, np.full(y.size, s)) for s in np.unique(shifts).tolist()}
        moves = [[move[s] for s in row] for row in shifts.tolist()]
    else:
        # a step's room, need - d0 left = W - w + d0 dt in w, is the first step's at every step
        room = np.maximum(0.0, budget_interval(y, dt, T - dt, d0, d1)[1])
        gains = (dt * np.minimum(u, room) for u in controls)
        moves = [[(y + (gain - d0 * dt), gain) if gain.any() else None for gain in gains]] * nt
    for n in range(nt - 1, -1, -1):
        # a control that does not move takes the slice as it is for its candidate
        picks = [cur if move is None else transport(cur, *move, phis[n], out=cand, slot=slot)
                 for slot, (move, cand) in enumerate(zip(moves[n], cands))]
        if observe is not None:
            d1_wins = np.ones(cur.shape, dtype=bool) if len(picks) == 1 else picks[1] >= picks[0]
        # the d0 buffer holds no d1 candidate, and cur is never written
        best = picks[0] if len(picks) == 1 else np.maximum(picks[0], picks[1], out=cands[0])
        cur = _solve_z(mt, best)
        if not np.all(np.isfinite(cur)):
            raise NumericalFailure(f"non-finite values in slice {n}", time_index=n)
        if observe is not None:
            observe(n, cur, d1_wins)

    return ValueFunction(grid=grid, variant=variant, epsilon=fam.epsilon, values=cur,
                         floor=0.0 if variant == "normalized" else d0)


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
        raise ParameterError("log s0 outside the z grid", field="grid.z_nodes")
    iz, wz = g.axes[-1].locate(np.array([z0]))
    # node 0 is read as the origin, so it must be exactly 0 on x and y
    if g.x_nodes is not None and g.x_nodes[0] != 0.0:
        raise ParameterError("grid does not start at x = 0", field="grid.x_nodes")
    if g.y_nodes[0] != 0.0:
        raise ParameterError("grid does not start at y = 0", field="grid.y_nodes")
    line = vf.values[0, :] if g.x_nodes is None else vf.values[0, 0, :]
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
    bits = None

    def record(n, slice_n, d1_wins):
        nonlocal bits
        if d1_wins is None:
            bits = np.empty((n, (slice_n.size + 7) // 8), dtype=np.uint8)
        else:
            bits[n] = np.packbits(d1_wins.reshape(-1), bitorder="little")

    vf = solve(params, spec, epsilon, grid, observe=record)
    rule = TableRule(bits, vf.grid, params.t_horizon, spec.bounds.d0, spec.bounds.d1, vf.floor)
    return Policy(f"hjb[{vf.variant}]", rule)


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
    grid = _state_grid(params, spec, fam, grid)
    return _SOLVERS[_variant(spec, grid)](params, spec, fam, grid, observe=observe)


def _state_grid(params, spec, fam, grid: StateGrid | dict | None) -> StateGrid:
    """``grid`` itself, or the default grid with its node counts (see ``solve``).

    A budget grid keeps its y nodes up to the first one at or past the
    excess budget W = 1 - d0 T, and at least two: no foot passes W, so a
    node below W reads none past that one, and no node past it is solved.
    """
    if not isinstance(grid, StateGrid):
        grid = default_grid(params, spec, fam, **(grid or {}))
    if spec.weight_mode == "normalized":
        return grid
    keep = max(int(np.searchsorted(grid.y_nodes, 1.0 - spec.bounds.d0 * params.t_horizon)) + 1, 2)
    return grid if keep >= grid.y_nodes.size else replace(grid, y_nodes=grid.y_nodes[:keep])


def ladder_price(
    params: MarketParams,
    spec: PayoffSpec,
    epsilons=DESK_EPSILONS,
    grid: StateGrid | dict | None = None,
) -> tuple[PriceEstimate, list[PriceEstimate]]:
    """Solve along a decreasing epsilon ladder and extrapolate to epsilon = 0.

    The reported price is the last rung plus a step.  Two rungs take the
    first-order step, Richardson for an error linear in epsilon:
    (p(e2) - p(e1)) e2 / (e1 - e2).  Three or more measure the order from
    the last two gaps, whose ratio is q = (p(e2) - p(e1)) / (p(e1) - p(e0)),
    and take Aitken's delta-squared step, (p(e2) - p(e1)) q / (1 - q), which
    is Richardson at that order; it never steps further than the first-order
    step.  That only holds once the rungs converge: a last gap that is
    nonzero and not smaller than the one before raises NumericalFailure.
    Raw per-epsilon estimates come back alongside.  ``grid`` is taken as by
    ``solve``.
    """
    epsilons = sorted(set(float(e) for e in epsilons), reverse=True)
    if not epsilons:
        raise ParameterError("need at least one epsilon", field="epsilons")
    raw: list[PriceEstimate] = []
    for eps in epsilons:
        vf = solve(params, spec, eps, grid)
        raw.append(price_from_value(vf, params))
    p = [r.value for r in raw[-3:]]
    value = p[-1]
    if len(raw) >= 2:
        e1, e2 = epsilons[-2], epsilons[-1]
        step = (p[-1] - p[-2]) * e2 / (e1 - e2)  # the first-order step
        if len(raw) >= 3:
            before, last = p[1] - p[0], p[2] - p[1]
            if abs(last) >= abs(before) and last != 0.0:
                raise NumericalFailure(f"epsilon ladder diverges: rung gaps {abs(before):.6g} then "
                                       f"{abs(last):.6g}; refine the grid")
            if last != 0.0:
                q = last / before  # Aitken's step at this gap ratio, no longer than the first-order one
                step = min(max(last * q / (1.0 - q), -abs(step)), abs(step))
        value += step
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
    grid: StateGrid | dict | None = None,
) -> dict:
    """The empirical discretisation allowance of one rung, refined one axis at a time.

    ``rung`` is a ``ladder_price`` rung priced on ``grid``, taken as by
    ``solve``.  Each
    axis the grid has is refined alone (``refine_grid``) and solved at the
    rung's epsilon.  Returns ``delta_axes``, the signed change
    price(refined) - price(rung) per axis, and ``delta_grid``, the sum of
    their magnitudes: refining every axis at once lets errors of opposite
    sign cancel, so its one change can understate each of them.
    """
    eps = rung.meta["epsilon"]
    base = _state_grid(params, spec, build_family(eps, spec, params), grid)
    if list(base.shape) != rung.meta["grid_shape"] or base.n_steps != rung.meta["n_steps"]:
        raise ParameterError("rung was not priced on this grid", field="grid")
    axes = ("y", "z", "t") if base.x_nodes is None else ("x", "y", "z", "t")
    delta_axes = {}
    for axis in axes:
        fine = solve(params, spec, eps, refine_grid(base, axis))
        delta_axes[axis] = price_from_value(fine, params).value - rung.value
    return {"delta_grid": sum(abs(d) for d in delta_axes.values()), "delta_axes": delta_axes}


# ---------------------------------------------------------------------------
# CSV export
# ---------------------------------------------------------------------------

def export_csv(grid: StateGrid, t_horizon: float, time_index: int, slab: np.ndarray,
               path: str, col: str, floor: float = 0.0) -> None:
    """Write slice ``time_index`` of ``grid`` as CSV with columns t,x,y,z,<col>.

    The reduced variant has no x state; its x column is written as 0.  The y
    column is the spent weight, y + ``floor`` t (see ``ValueFunction``).
    """
    t = float(np.linspace(0.0, t_horizon, grid.n_steps + 1)[time_index])
    x_nodes = grid.x_nodes if grid.x_nodes is not None else np.array([0.0])
    vals = slab if slab.ndim == 3 else slab[None, ...]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"t,x,y,z,{col}\n")
        for i, xv in enumerate(x_nodes):
            for j, yv in enumerate(grid.y_nodes + floor * t):
                for k, zv in enumerate(grid.z_nodes):
                    fh.write(f"{t:.12g},{xv:.12g},{yv:.12g},{zv:.12g},{vals[i, j, k]:.12g}\n")
