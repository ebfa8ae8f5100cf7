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
  The normalized mode pays at h(u, t) = u (1 - psi) + d1 psi, which
  forces the weight toward d1 on the last eps T of the horizon;
  ``terminal_ramp_integral`` integrates psi exactly, so h does too.
* ``payoff_rate``     phi(s, t): the payment rate f with its strike kink
  blended from below over a width eps * K, then capped at s0 / eps by
  a blend of half-width eps * s0.  0 <= phi <= f, and phi = 0 exactly
  wherever f = 0.
* ``terminal_reward`` g_hat(x):  g with its kink blended the same way and
  clamped to scale / eps by the cap's blend.  Always <= g.
* ``ratio_reward``    g2(x, y) = g_hat(x y / (y^2 + eps^4)), a bounded
  surrogate for g(x / y) that stays below it for x, y >= 0 and recovers
  g(c) along x/y -> c, y -> 0 with y >> eps^2.

Two C1 blends do all the smoothing, and both sit *below* the function
they replace and inside its range, so the regularised value never
exceeds the true price and no payment rate is negative:
``_pos_below`` for the convex kink of max(v, 0) and ``_min_below`` for
the concave kink of min(a, cap).  Blend widths, caps and clamp levels
carry the strike, cap or spot scale, and the ramp carries T, so the
family is invariant under quoting the spot in other units and under
rescaling time: (T, sigma, r, d0, d1) -> (T / lam, sigma sqrt(lam),
lam r, lam d0, lam d1) is the same contract.
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


def _pos_below(v, w):
    """C1 approximation of max(v, 0) from below, exact outside (0, w).

    max(v, 0) t (2 - t) with t = v / w clipped to [0, 1]: 0 for v <= 0,
    v for v >= w, and value and slope matched at both ends.  Max
    deviation 4w/27, at v = w/3.
    """
    v = np.asarray(v, dtype=float)
    t = np.clip(v / w, 0.0, 1.0)
    return np.maximum(v, 0.0) * (t * (2.0 - t))


def _min_below(a, cap, d):
    """C1 approximation of min(a, cap) from below, exact outside (cap - d, cap + d).

    cap less the quadratic blend (v + d)^2 / (4d) of max(v, 0) at
    v = cap - a, which lies above max(v, 0) and matches its value and
    slope at v = -d and v = d; their difference is (d - |v|)^2 / (4d).
    Max deviation d/4, at a = cap.
    """
    a = np.asarray(a, dtype=float)
    return np.minimum(a, cap) - np.maximum(d - np.abs(cap - a), 0.0) ** 2 / (4.0 * d)


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
    reward_scale: float = field(init=False)
    reward_cap: float = field(init=False)

    def __post_init__(self):
        eps = self.epsilon
        object.__setattr__(self, "ramp_start", self.params.t_horizon * (1.0 - eps))
        object.__setattr__(self, "ramp_width", eps * eps * self.params.t_horizon)
        s0 = self.params.s0
        object.__setattr__(self, "phi_cap", s0 / eps)
        scale = s0 * max(1.0, self.spec.bounds.d1 * self.params.t_horizon)
        object.__setattr__(self, "reward_scale", scale)
        object.__setattr__(self, "reward_cap", scale / eps)

    # -- terminal ramp psi and the integral of h --------------------------
    def terminal_ramp(self, t):
        return smoothstep((np.asarray(t, dtype=float) - self.ramp_start) / self.ramp_width)

    def terminal_ramp_integral(self, t):
        """int_0^t psi(s) ds, exact."""
        width = self.ramp_width
        return width * smoothstep_integral((np.asarray(t, dtype=float) - self.ramp_start) / width)

    # -- smoothed payment rate phi ----------------------------------------
    def _kinkless_f(self, s):
        spec = self.spec
        s = np.asarray(s, dtype=float)
        if spec.f_kind == "identity":
            return s
        w = self.epsilon * spec.f_strike
        if spec.f_kind == "call":
            return _pos_below(s - spec.f_strike, w)
        return _pos_below(spec.f_strike - s, w)

    def payoff_rate(self, s, t):
        base = self._kinkless_f(s)
        if self.spec.payment_timing == "terminal_compounded":
            base = base * np.exp(self.params.r * (self.params.t_horizon - np.asarray(t, dtype=float)))
        return _min_below(base, self.phi_cap, self.epsilon * self.params.s0)

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
        return _min_below(x, spec.g_cap, self.epsilon * spec.g_cap)

    def terminal_reward(self, x):
        return _min_below(self._kinkless_g(x), self.reward_cap, self.epsilon * self.reward_scale)

    @property
    def reward_bend(self) -> float:
        """The x above which g_hat is affine: g's cap or strike past its eps blend, 0 for identity g."""
        spec = self.spec
        return {"identity": 0.0, "cap": spec.g_cap}.get(spec.g_kind, spec.g_strike) * (1.0 + self.epsilon)

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
        phi = self.payoff_rate(s[None, :], t)
        if np.any(phi < 0.0) or np.any(phi > eval_f(spec, p, s[None, :], t) + 1e-12 * p.s0):
            raise ParameterError("payoff_rate leaves [0, f], the raw payment rate's range", field="epsilons")
        psi = self.terminal_ramp(t.ravel())
        if not (np.all(psi >= -1e-15) and np.all(psi <= 1.0 + 1e-15) and np.all(np.diff(psi) >= -1e-15)):
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
    if not fam.ramp_start < min(fam.ramp_start + fam.ramp_width, params.t_horizon):
        raise ParameterError(f"{epsilon:g} leaves the terminal ramp empty in floating point", field="epsilons")
    fam.self_check()
    return fam
