"""Payoff functionals for weight-controlled options.

Two weight modes are supported:

* ``adapted_fixed_cumulative`` -- the holder picks an adapted weight
  u(t) in [d0, d1] with a hard budget  int_0^T u dt = 1; the payoff is
  g(int u(t) f(S(t), t) dt).
* ``normalized`` -- u(t) in [d0, d1] is free and the payoff uses the
  renormalised weight v = u / int u ds, i.e. g(int u f dt / int u dt).
  When the weight integral vanishes the payoff degenerates to the
  terminal value g(f(S(T), T)).

The bet rate f can pay at spot time or be compounded to the terminal
date (multiplied by e^{r(T-t)}).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .market import MarketParams

F_KINDS = ("identity", "call", "put")
G_KINDS = ("identity", "call", "put", "cap")
TIMINGS = ("spot", "terminal_compounded")
WEIGHT_MODES = ("adapted_fixed_cumulative", "normalized")

# Below this weight integral the normalized payoff takes the terminal branch.
DEGENERATE_WEIGHT = 1e-10
# Tolerance on the trapezoidal budget check for adapted control paths.
BUDGET_TOL = 1e-9
# Budget by which a step's payment interval may be empty before it is counted.
FORCE_TOL = 1e-12


@dataclass(frozen=True)
class ControlBounds:
    """Control range [d0, d1].  d0 == d1 (a singleton set) is allowed."""

    d0: float
    d1: float

    def __post_init__(self):
        if not 0.0 <= self.d0:
            raise ParameterError("lower bound must be >= 0", field="payoff.d0")
        if self.d1 < self.d0:
            raise ParameterError("d0 must not exceed d1", field="payoff.d0")
        if not self.d1 < np.inf:
            raise ParameterError("upper bound must be finite", field="payoff.d1")

    def validate_budget_feasible(self, t_horizon: float) -> None:
        """For the adapted mode the budget int u = 1 must be reachable."""
        if self.d0 * t_horizon > 1.0 + BUDGET_TOL:
            raise ParameterError("d0 * T must not exceed 1 in adapted mode", field="payoff.d0")
        if self.d1 * t_horizon < 1.0 - BUDGET_TOL:
            raise ParameterError("d1 * T must be >= 1 in adapted mode", field="payoff.d1")


@dataclass(frozen=True)
class PayoffSpec:
    """Full description of a controlled payoff."""

    f_kind: str
    g_kind: str
    weight_mode: str
    bounds: ControlBounds
    f_strike: float | None = None
    g_strike: float | None = None
    g_cap: float | None = None
    payment_timing: str = "spot"

    def __post_init__(self):
        if self.f_kind not in F_KINDS:
            raise ParameterError(f"unknown f_kind {self.f_kind!r}", field="payoff.f_kind")
        if self.g_kind not in G_KINDS:
            raise ParameterError(f"unknown g_kind {self.g_kind!r}", field="payoff.g_kind")
        if self.payment_timing not in TIMINGS:
            raise ParameterError(f"unknown timing {self.payment_timing!r}", field="payoff.payment_timing")
        if self.weight_mode not in WEIGHT_MODES:
            raise ParameterError(f"unknown weight mode {self.weight_mode!r}", field="payoff.weight_mode")
        if self.f_kind in ("call", "put") and not (self.f_strike or 0.0) > 0.0:
            raise ParameterError("call/put f needs a positive strike", field="payoff.f_strike")
        if self.g_kind in ("call", "put") and not (self.g_strike or 0.0) > 0.0:
            raise ParameterError("call/put g needs a positive strike", field="payoff.g_strike")
        if self.g_kind == "cap" and not (self.g_cap or 0.0) > 0.0:
            raise ParameterError("cap g needs a positive cap", field="payoff.g_cap")

    @property
    def g_is_nondecreasing(self) -> bool:
        return self.g_kind in ("identity", "cap", "call")


def validate_spec(spec: PayoffSpec, params: MarketParams) -> None:
    """Cross-field checks that need the market horizon."""
    if spec.weight_mode == "adapted_fixed_cumulative":
        spec.bounds.validate_budget_feasible(params.t_horizon)


def budget_interval(y, dt, left, d0, d1, out=(None, None, None, None)):
    """The payments [lo, hi] of a budget-mode step that keep int u dt = 1
    reachable with ``left`` time after it: with need = 1 - y, [max(d0,
    (need - d1 left) / dt), min(d1, (need - d0 left) / dt)], the single
    point need / dt on the last step.  Also the number of rows whose
    interval is empty by more than ``FORCE_TOL`` of budget.  ``out`` may
    hold arrays shaped like ``y`` for lo, hi, a scratch row and the flags."""
    lo, hi, tmp, flags = out
    need = np.subtract(1.0, y, out=tmp)
    lo = np.maximum(np.divide(np.subtract(need, d1 * left, out=lo), dt, out=lo), d0, out=lo)
    hi = np.minimum(np.divide(np.subtract(need, d0 * left, out=hi), dt, out=hi), d1, out=hi)
    bad = np.greater(lo, np.add(hi, FORCE_TOL / dt, out=tmp), out=flags)
    return lo, hi, int(np.count_nonzero(bad))


def eval_f(spec: PayoffSpec, params: MarketParams, s, t):
    """The payment rate f(s, t).  Vectorised over ``s`` (and matching ``t``)."""
    s = np.asarray(s, dtype=float)
    if spec.f_kind == "identity":
        base = s
    elif spec.f_kind == "call":
        base = np.maximum(s - spec.f_strike, 0.0)
    else:
        base = np.maximum(spec.f_strike - s, 0.0)
    if spec.payment_timing == "terminal_compounded":
        base = base * np.exp(params.r * (params.t_horizon - np.asarray(t, dtype=float)))
    return base if base.ndim else float(base)


def eval_g(spec: PayoffSpec, x):
    """Terminal reward g(x).  Vectorised."""
    x = np.asarray(x, dtype=float)
    if spec.g_kind == "identity":
        out = x
    elif spec.g_kind == "call":
        out = np.maximum(x - spec.g_strike, 0.0)
    elif spec.g_kind == "put":
        out = np.maximum(spec.g_strike - x, 0.0)
    else:
        out = np.minimum(x, spec.g_cap)
    return out if out.ndim else float(out)


def _check_bounds(spec: PayoffSpec, u: np.ndarray) -> None:
    lo, hi = spec.bounds.d0, spec.bounds.d1
    if np.any(u < lo - BUDGET_TOL) or np.any(u > hi + BUDGET_TOL):
        raise ParameterError(f"control leaves [{lo}, {hi}]", field="u_values")


def payoff_adapted(spec: PayoffSpec, params: MarketParams, times, s_values, u_values) -> float:
    """g of the trapezoidal integral of u * f along one path.

    The control must respect the bounds and integrate to 1
    (trapezoidal rule, tolerance 1e-9).
    """
    times = np.asarray(times, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    u = np.asarray(u_values, dtype=float)
    _check_bounds(spec, u)
    budget = np.trapezoid(u, times)
    if abs(budget - 1.0) > BUDGET_TOL:
        raise ParameterError(f"weight integral {budget!r} != 1 beyond tolerance", field="u_values")
    f_vals = eval_f(spec, params, s_values, times)
    return float(eval_g(spec, np.trapezoid(u * f_vals, times)))


def payoff_normalized(spec: PayoffSpec, params: MarketParams, times, s_values, u_values) -> float:
    """g of the weight-normalised integral of u * f along one path.

    Degenerates to g(f(S(T), T)) when the weight integral is below
    the degeneracy threshold.
    """
    times = np.asarray(times, dtype=float)
    s_values = np.asarray(s_values, dtype=float)
    u = np.asarray(u_values, dtype=float)
    _check_bounds(spec, u)
    total = np.trapezoid(u, times)
    if total < DEGENERATE_WEIGHT:
        terminal = eval_f(spec, params, s_values[-1], times[-1])
        return float(eval_g(spec, terminal))
    f_vals = eval_f(spec, params, s_values, times)
    return float(eval_g(spec, np.trapezoid(u * f_vals, times) / total))
