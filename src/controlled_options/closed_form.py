"""Closed-form price of the deferred ("tail") strategy for the budget contract.

For the budget payoff  int_0^T u(t) f(S(t), t) dt  with u in [d0, d1],
int u dt = 1 and f(x, t) = e^{r(T-t)} h(x) for convex h, every weight pays
the floor d0 and places the excess W = 1 - d0 T at rates up to d1 - d0.
Deferring the excess to the window [s, T], s = ``switch_time``, is optimal
(later payment dates dominate by Jensen's inequality on the risk-neutral
martingale), so the price is a time integral of Black-Scholes expectations,

    price = e^{-rT} [d0 int_0^T E*[f] dt + (d1 - d0) int_s^T E*[f] dt],

evaluated here by adaptive Gauss-Legendre quadrature as d0 on [0, s] and
d1 (reported as ``cap``) on [s, T].

The formula reads the contract from the ``PayoffSpec`` that every route
shares, and ``tail_strategy_price`` refuses what it does not price:
the normalized weight (it has no deferral formula), a reward g other
than identity, payments at spot time when r > 0, and contracts where
neither optimality hypothesis of ``hypothesis_report`` holds.
"""
from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import NumericalFailure, ParameterError
from .market import MarketParams, bs_expected_payoff
from .payoffs import PayoffSpec
from .results import PriceEstimate

QUAD_REL_TOL = 1e-8
QUAD_MAX_PANELS = 3000  # the desk integrands take at most ~200, over decades of each input

# 20-point Gauss-Legendre nodes/weights on [-1, 1]
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def switch_time(spec: PayoffSpec, params: MarketParams) -> float:
    """Start s of the deferral window [s, T], s = T - W / (d1 - d0) for W = 1 - d0 T.

    0 when d1 * T <= 1: the budget cannot be exhausted, so u = d1 on the
    whole horizon (the degenerate window); T when W = 0 (u = d0 is forced).
    """
    d0, d1, T = spec.bounds.d0, spec.bounds.d1, params.t_horizon
    if not d1 > 0.0:
        raise ParameterError("the deferral window needs d1 > 0", field="payoff.d1")
    if d1 * T <= 1.0:
        return 0.0
    budget = 1.0 - d0 * T
    if not budget > 0.0:
        return T
    switch = T - budget / (d1 - d0)
    if not switch < T:
        raise ParameterError("the deferral window [T - W/(d1 - d0), T] has zero width in "
                             "floating point at this horizon", field="market.t_horizon")
    return switch


def hypothesis_report(spec: PayoffSpec, params: MarketParams) -> dict:
    """Which optimality hypotheses hold for the payment rate h = ``spec.f_kind``.

    (i)  a^{-1} h(a x) non-decreasing in a on (0, 1]  -- true for calls,
         which scale like a x - K, and vacuous for identity;
    (ii) r = 0.
    Convexity must be strict somewhere for the deferral to be strictly
    better; identity h is linear, so every admissible weight prices the
    same and the formula remains valid.
    """
    cond_i = spec.f_kind in ("call", "identity")
    cond_ii = params.r == 0.0
    return {
        "scaling_condition": cond_i,
        "zero_rate_condition": cond_ii,
        "h_strictly_convex": spec.f_kind in ("call", "put"),
        "applicable": cond_i or cond_ii,
    }


def _adaptive_gl(f, a: float, b: float) -> float:
    """Adaptive Gauss-Legendre: bisect until the two-panel refinement agrees,
    to depth 30 on a branch and ``QUAD_MAX_PANELS`` panels in all."""
    panels = 0

    def refine(a: float, b: float, depth: int) -> float:
        nonlocal panels
        panels += 3
        if panels > QUAD_MAX_PANELS:
            raise NumericalFailure(f"quadrature unresolved within {QUAD_MAX_PANELS} panels")
        mid = 0.5 * (a + b)
        whole = _gl_panel(f, a, b)
        left = _gl_panel(f, a, mid)
        right = _gl_panel(f, mid, b)
        refined = left + right
        if not (math.isfinite(whole) and math.isfinite(refined)):  # would bisect to full depth
            raise NumericalFailure(f"non-finite quadrature panel on [{a:.17g}, {b:.17g}]")
        if abs(refined - whole) <= QUAD_REL_TOL * max(abs(refined), 1e-300) or depth >= 30:
            return refined
        return refine(a, mid, depth + 1) + refine(mid, b, depth + 1)

    return refine(a, b, 0)


def _gl_panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * sum(w * f(mid + half * xi) for xi, w in zip(_GL_NODES, _GL_WEIGHTS))


def expected_payment_rate(spec: PayoffSpec, params: MarketParams, t: float) -> float:
    """E*[f(S(t), t)]: f(x, t) = h(x), times e^{r(T-t)} when payments compound to T."""
    rate = bs_expected_payoff(params, spec.f_kind, t, strike=spec.f_strike)
    if spec.payment_timing == "terminal_compounded":
        rate *= math.exp(params.r * (params.t_horizon - t))
    return rate


def tail_strategy_price(spec: PayoffSpec, params: MarketParams) -> PriceEstimate:
    """Quadrature price of the deferred strategy; refuses a contract it does not price."""
    report = hypothesis_report(spec, params)
    if spec.weight_mode != "adapted_fixed_cumulative":
        raise ParameterError("the closed form prices the fixed-cumulative (budget) weight only; "
                             "the normalized weight has no deferral formula",
                             field="payoff.weight_mode")
    if spec.g_kind != "identity":
        raise ParameterError("closed form covers identity g only", field="payoff.g_kind")
    if spec.payment_timing != "terminal_compounded" and params.r != 0.0:
        raise ParameterError("closed form needs terminal-compounded payments when r > 0",
                             field="payoff.payment_timing")
    if not report["applicable"]:
        raise ParameterError(f"the deferral formula does not cover a {spec.f_kind} rate with "
                             "r > 0 (neither the scaling nor the zero-rate hypothesis holds)",
                             field="payoff.f_kind")
    d0, L, T, lo = spec.bounds.d0, spec.bounds.d1, params.t_horizon, switch_time(spec, params)
    # at spot timing r = 0 here, so the rate is h without the compounding
    rate, disc = partial(expected_payment_rate, spec, params), math.exp(-params.r * T)
    floor = disc * d0 * _adaptive_gl(rate, 0.0, lo) if d0 * lo > 0.0 else 0.0
    value = floor + disc * L * _adaptive_gl(rate, lo, T)
    return PriceEstimate(
        value=value,
        stderr=0.0,
        method="closed_form",
        meta={
            "cap": L,
            "window": [lo, T],
            "degenerate": L * T <= 1.0,
            "integral_factor": "L",
            "hypotheses": report,
        },
    )
