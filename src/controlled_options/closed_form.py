"""Closed-form pricing for the budget-capped linear payoff.

For the payoff  int_0^T u(t) f(S(t), t) dt  with u in [0, L],
int u dt <= 1 and f(x, t) = e^{r(T-t)} h(x) for convex h, deferring the
whole budget to the last 1/L of the horizon is optimal (later payment
dates dominate by Jensen's inequality on the risk-neutral martingale).
The price is then a single time integral of Black-Scholes expectations,

    price = e^{-rT} * L * int_{T-1/L}^{T} E*[f(S(t), t)] dt,

evaluated here by adaptive Gauss-Legendre quadrature.

The leading factor is L: the strategy pays at rate u = L over a window
of length 1/L, so the weight in front of the average integrand is
L * (1/L) = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure, ParameterError
from .hjb import Policy
from .market import MarketParams, bs_expected_payoff
from .results import PriceEstimate

QUAD_REL_TOL = 1e-8

# 20-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


@dataclass(frozen=True)
class TailStrategyConfig:
    """Inputs of the deferred ("tail") strategy price.

    ``h_kind``: "call" (needs ``strike``) or "identity".
    ``cap``: the weight ceiling L; the deferral window is [T - 1/L, T].
    """

    params: MarketParams
    cap: float
    h_kind: str
    strike: float | None = None

    def __post_init__(self):
        if not self.cap > 0.0:
            raise ParameterError("cap L must be positive", field="cap")
        if self.h_kind not in ("call", "put", "identity"):
            raise ParameterError(f"unknown h_kind {self.h_kind!r}", field="h_kind")
        if self.h_kind in ("call", "put") and not (self.strike or 0.0) > 0.0:
            raise ParameterError("call/put h needs a positive strike", field="strike")
        if not self.switch_time < self.params.t_horizon:
            raise ParameterError("the deferral window [T - 1/L, T] has zero width in floating "
                                 "point at this horizon", field="t_horizon")

    @property
    def degenerate(self) -> bool:
        """cap * T <= 1: the budget cannot be exhausted, so u = L throughout."""
        return self.cap * self.params.t_horizon <= 1.0

    @property
    def switch_time(self) -> float:
        """Start of the deferral window: T - 1/L, or 0 when degenerate."""
        return 0.0 if self.degenerate else self.params.t_horizon - 1.0 / self.cap


def hypothesis_report(cfg: TailStrategyConfig) -> dict:
    """Which optimality hypotheses hold for this configuration.

    (i)  a^{-1} h(a x) non-decreasing in a on (0, 1]  -- true for calls,
         which scale like a x - K, and vacuous for identity;
    (ii) r = 0.
    Convexity must be strict somewhere for the deferral to be strictly
    better; identity h is linear, so every admissible weight prices the
    same and the formula remains valid.
    """
    cond_i = cfg.h_kind in ("call", "identity")
    cond_ii = cfg.params.r == 0.0
    return {
        "scaling_condition": cond_i,
        "zero_rate_condition": cond_ii,
        "h_strictly_convex": cfg.h_kind in ("call", "put"),
        "applicable": cond_i or cond_ii,
    }


def tail_strategy(cfg: TailStrategyConfig) -> Policy:
    """u(t) = L for t >= T - 1/L, else 0.  Integrates to exactly 1.

    When cap * T <= 1 the budget constraint cannot bind and the policy
    degenerates to u = L on all of [0, T] (flagged in meta).
    """
    L, switch = cfg.cap, cfg.switch_time

    def rule(t, x, y, s):
        u = L if t >= switch else 0.0
        return np.full(np.broadcast(np.asarray(x), np.asarray(s)).shape, u)

    return Policy(
        source="analytic",
        d0=0.0,
        d1=L,
        name="tail",
        fn=rule,
        t_horizon=cfg.params.t_horizon,
        meta={"switch_time": switch, "degenerate": cfg.degenerate},
    )


def _adaptive_gl(f, a: float, b: float, rel_tol: float = QUAD_REL_TOL, depth: int = 0) -> float:
    """Adaptive Gauss-Legendre: bisect until the two-panel refinement agrees."""
    mid = 0.5 * (a + b)
    whole = _gl_panel(f, a, b)
    left = _gl_panel(f, a, mid)
    right = _gl_panel(f, mid, b)
    refined = left + right
    if not (math.isfinite(whole) and math.isfinite(refined)):  # would bisect to full depth
        raise NumericalFailure(f"non-finite quadrature panel on [{a:.17g}, {b:.17g}]")
    if abs(refined - whole) <= rel_tol * max(abs(refined), 1e-300) or depth >= 30:
        return refined
    return (_adaptive_gl(f, a, mid, rel_tol, depth + 1)
            + _adaptive_gl(f, mid, b, rel_tol, depth + 1))


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(w * f(mid + half * xi) for xi, w in zip(_GL_NODES, _GL_WEIGHTS))


def expected_payment_rate(cfg: TailStrategyConfig, t: float) -> float:
    """E*[f(S(t), t)] with f(x, t) = e^{r(T-t)} h(x)."""
    p = cfg.params
    comp = math.exp(p.r * (p.t_horizon - t))
    return comp * bs_expected_payoff(p, cfg.h_kind, t, strike=cfg.strike)


def tail_strategy_price(cfg: TailStrategyConfig) -> PriceEstimate:
    """Quadrature price of the deferred strategy.

    Refuses puts with r > 0: neither optimality hypothesis holds there,
    so the deferral formula does not price the option.
    """
    report = hypothesis_report(cfg)
    if cfg.h_kind == "put" and cfg.params.r > 0.0:
        raise ParameterError(
            "the deferral formula does not cover puts with r > 0 "
            "(neither the scaling nor the zero-rate hypothesis holds)",
            field="h_kind",
        )
    p = cfg.params
    L, T, lo = cfg.cap, p.t_horizon, cfg.switch_time
    integral = _adaptive_gl(lambda t: expected_payment_rate(cfg, t), lo, T)
    value = math.exp(-p.r * T) * L * integral
    return PriceEstimate(
        value=value,
        stderr=0.0,
        method="closed_form",
        meta={
            "cap": L,
            "window": [lo, T],
            "degenerate": cfg.degenerate,
            "integral_factor": "L",
            "hypotheses": report,
        },
    )
