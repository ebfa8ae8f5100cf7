"""Regularisation families for the degenerate control problems.

The raw pricing problems have kinked payoffs and (in the normalized
mode) a 0/0 terminal ratio.  The grid solvers work on an epsilon-indexed
family of smooth surrogates that approach the raw data from below as
epsilon -> 0.  The budget needs no surrogate: the grid stops paying at
it, as the Monte Carlo does (see ``hjb``).  Epsilon has no dimension;
each role carries the scale it smooths:

* ``terminal_ramp``   psi(t): 0 for t <= T (1 - eps), 1 for
  t >= T (1 - eps + eps^2), quintic-smoothstep ramp in between (C2
  joins); both the start and the width are in units of the horizon T.
* ``effective_control`` h(u, t) = u (1 - psi) + d1 psi, which forces the
  weight toward d1 on the last eps T of the horizon.
* ``payoff_rate``     phi(s, t): the payment rate f with its strike kink
  replaced by a C1 blend of half-width eps * K, then capped smoothly at
  s0 / eps (softmin with temperature eps^2 * s0).  Always <= f.
* ``terminal_reward`` g_hat(x):  g with its kink blended the same way and
  smoothly clamped to scale / eps.  Always <= g.
* ``ratio_reward``    g2(x, y) = g_hat(x y / (y^2 + eps^4)), a bounded
  surrogate for g(x / y) that stays below it for x, y >= 0 and recovers
  g(c) along x/y -> c, y -> 0 with y >> eps^2.

All kink blends sit *below* the function they replace so that the
regularised value never exceeds the true price; convex kinks need a
quartic bump correction on top of the quadratic blend to achieve that
(see ``_pos_below``).  Blend widths, caps and clamp levels carry the
strike, cap or spot scale, and the ramp carries T, so the family is
invariant under quoting the spot in other units and under rescaling
time: (T, sigma, r, d0, d1) -> (T / lam, sigma sqrt(lam), lam r, lam d0,
lam d1) is the same contract.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .market import MarketParams
from .payoffs import PayoffSpec


def smoothstep(t):
    """Quintic smoothstep: 0 below 0, 1 above 1, 6t^5-15t^4+10t^3 between."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    # the polynomial lives in [0, 1] exactly; clip away float residue
    return np.clip(t * t * t * (t * (6.0 * t - 15.0) + 10.0), 0.0, 1.0)


def smoothstep_integral(t):
    """int_0^t smoothstep(s) ds; equals t - 1/2 for t >= 1."""
    t = np.asarray(t, dtype=float)
    tc = np.clip(t, 0.0, 1.0)
    band = tc**4 * (tc * (tc - 3.0) + 2.5)
    return np.where(t >= 1.0, band + (t - tc), band)


def _pos_below(v, half_width):
    """C1 approximation of max(v, 0) from below, exact outside [-d, d].

    Quadratic blend (v+d)^2/(4d) matches value and slope at the ends but
    overshoots the kink by (|v|-d)^2/(4d); subtracting the quartic bump
    (d/4)(1-(v/d)^2)^2 >= overshoot restores domination while keeping the
    C1 joins.  Max deviation d/4, confined to the blend band.
    """
    v = np.asarray(v, dtype=float)
    d = half_width
    s = np.clip(v / d, -1.0, 1.0)
    blend = (v + d) ** 2 / (4.0 * d) - 0.25 * d * (1.0 - s * s) ** 2
    return np.where(v <= -d, 0.0, np.where(v >= d, v, blend))


def _pos_above(v, half_width):
    """C1 approximation of max(v, 0) from above: plain quadratic blend."""
    v = np.asarray(v, dtype=float)
    d = half_width
    blend = (v + d) ** 2 / (4.0 * d)
    return np.where(v <= -d, 0.0, np.where(v >= d, v, blend))


def _softmin(a, cap, temperature):
    """Smooth min(a, cap), always <= min(a, cap)."""
    a = np.asarray(a, dtype=float)
    lo = np.minimum(a, cap)
    return lo - temperature * np.log1p(np.exp(-np.abs(a - cap) / temperature))


@dataclass(frozen=True)
class SmoothingFamily:
    """One member of the regularisation family, at a fixed epsilon."""

    epsilon: float
    spec: PayoffSpec
    params: MarketParams
    # derived constants
    ramp_start: float = field(init=False)
    ramp_width: float = field(init=False)
    phi_cap: float = field(init=False)
    phi_temperature: float = field(init=False)
    reward_scale: float = field(init=False)
    reward_cap: float = field(init=False)

    def __post_init__(self):
        eps = self.epsilon
        object.__setattr__(self, "ramp_start", self.params.t_horizon * (1.0 - eps))
        object.__setattr__(self, "ramp_width", eps * eps * self.params.t_horizon)
        s0 = self.params.s0
        object.__setattr__(self, "phi_cap", s0 / eps)
        object.__setattr__(self, "phi_temperature", eps * eps * s0)
        scale = s0 * max(1.0, self.spec.bounds.d1 * self.params.t_horizon)
        object.__setattr__(self, "reward_scale", scale)
        object.__setattr__(self, "reward_cap", scale / eps)

    # -- terminal ramp psi and effective control h ------------------------
    def terminal_ramp(self, t):
        return smoothstep((np.asarray(t, dtype=float) - self.ramp_start) / self.ramp_width)

    def terminal_ramp_integral(self, t):
        """int_0^t psi(s) ds, exact."""
        width = self.ramp_width
        return width * smoothstep_integral((np.asarray(t, dtype=float) - self.ramp_start) / width)

    def effective_control(self, u, t):
        psi = self.terminal_ramp(t)
        return np.asarray(u, dtype=float) * (1.0 - psi) + self.spec.bounds.d1 * psi

    def effective_control_integral(self, u, t0, t1):
        """int_{t0}^{t1} h(u, s) ds, exact in the ramp."""
        ramp = self.terminal_ramp_integral(t1) - self.terminal_ramp_integral(t0)
        return np.asarray(u, dtype=float) * (t1 - t0) + (self.spec.bounds.d1 - np.asarray(u, dtype=float)) * ramp

    # -- smoothed payment rate phi ----------------------------------------
    def _kinkless_f(self, s):
        spec = self.spec
        s = np.asarray(s, dtype=float)
        if spec.f_kind == "identity":
            return s
        d = self.epsilon * spec.f_strike
        if spec.f_kind == "call":
            return _pos_below(s - spec.f_strike, d)
        return _pos_below(spec.f_strike - s, d)

    def payoff_rate(self, s, t):
        base = self._kinkless_f(s)
        if self.spec.payment_timing == "terminal_compounded":
            base = base * np.exp(self.params.r * (self.params.t_horizon - np.asarray(t, dtype=float)))
        return _softmin(base, self.phi_cap, self.phi_temperature)

    # -- smoothed terminal reward g_hat -----------------------------------
    def _kinkless_g(self, x):
        spec = self.spec
        x = np.asarray(x, dtype=float)
        if spec.g_kind == "identity":
            return x
        if spec.g_kind == "call":
            return _pos_below(x - spec.g_strike, self.epsilon * spec.g_strike)
        if spec.g_kind == "put":
            return _pos_below(spec.g_strike - x, self.epsilon * spec.g_strike)
        # cap: min(M, x) = x - max(x - M, 0); the above-blend keeps it below.
        return x - _pos_above(x - spec.g_cap, self.epsilon * spec.g_cap)

    def terminal_reward(self, x):
        cap, d = self.reward_cap, self.epsilon * self.reward_scale
        return cap - _pos_above(cap - self._kinkless_g(x), d)

    # -- two-argument terminal reward for the normalized mode -------------
    def ratio_substitute(self, x, y):
        eps4 = self.epsilon**4
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * y / (y * y + eps4)

    def ratio_reward(self, x, y):
        return self.terminal_reward(self.ratio_substitute(x, y))

    # -- construction-time verification -----------------------------------
    def self_check(self, n: int = 41) -> None:
        """Re-verify the family inequalities on a sample lattice."""
        from .payoffs import eval_f, eval_g

        p, spec = self.params, self.spec
        s = np.linspace(0.2 * p.s0, 5.0 * p.s0, n)
        t = np.linspace(0.0, p.t_horizon, n)[:, None]
        if np.any(self.payoff_rate(s[None, :], t) > eval_f(spec, p, s[None, :], t) + 1e-12 * p.s0):
            raise ParameterError("payoff_rate exceeds the raw payment rate", field="epsilons")
        psi = self.terminal_ramp(t.ravel())
        if np.any(psi < -1e-15) or np.any(psi > 1.0 + 1e-15) or np.any(np.diff(psi) < -1e-15):
            raise ParameterError("terminal_ramp must be non-decreasing with range [0, 1]", field="epsilons")
        x = np.linspace(0.0, 4.0 * self.reward_scale, n)
        if np.any(self.terminal_reward(x) > eval_g(spec, x) + 1e-12 * self.reward_scale):
            raise ParameterError("terminal_reward exceeds the raw reward", field="epsilons")
        if spec.g_is_nondecreasing:
            y = np.linspace(1e-3, max(1.5, spec.bounds.d1 * p.t_horizon + 1.0), n)
            xx, yy = np.meshgrid(np.linspace(0.0, 2.0 * p.s0, n), y)
            if np.any(self.ratio_reward(xx, yy) > eval_g(spec, xx / yy) + 1e-12 * self.reward_scale):
                raise ParameterError("ratio_reward exceeds g at the weight ratio", field="epsilons")


def build_family(epsilon: float, spec: PayoffSpec, params: MarketParams) -> SmoothingFamily:
    """Construct and verify the family member for one epsilon."""
    if not 0.0 < epsilon < 0.5:
        raise ParameterError("epsilon must lie in (0, 1/2)", field="epsilons")
    fam = SmoothingFamily(epsilon=epsilon, spec=spec, params=params)
    fam.self_check()
    return fam
