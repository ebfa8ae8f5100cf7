"""Monte Carlo policy evaluation under the risk-neutral measure.

``evaluate_policy`` prices one feedback policy: paths advance step by
step and the controlled state (x, y) = (accumulated payment, spent
weight) advances with the control sampled at the *left* endpoint of each
step, so u at t_i uses information up to t_i only and adaptedness holds
by construction.

In the budget mode the engine projects the policy onto the feasible set:
u is clipped to [d0, d1], forced to d1 once the remaining budget can
only just be spent at full rate, capped so the budget never overshoots,
and adjusted exactly on the final step.  Paths where the bounds make the
exact finish impossible are counted in ``meta["forced_ramp_warnings"]``.

Antithetic variates are on by default; estimates and standard errors are
computed on pair averages.  Paths stream through fixed-size blocks with
per-block substreams (see ``market``), and block partials reduce in
index order.  Each block is walked in chunks of ``CHUNK_ROWS`` rows: a
chunk draws its normals in turn from the block's generator, takes the
growth factors exp(drift + vol * (sign * z)) of all its steps at once
into a step-major buffer, so step i multiplies the spots by one
contiguous row, and writes its terminal payoffs into the block's arrays.
The block's sums then run over the same arrays in the same order, so the
chunking changes no result, and the loop holds two chunk-sized buffers
rather than a block of normals.  The
second moment is summed about the first block's mean and divided by its
largest payoff, so the standard error scales with the price instead of
overflowing or underflowing at extreme spot levels.

The built-in ``tail`` policy is the deferral strategy that
``closed_form`` prices; both take its window from ``closed_form.switch_time``.
"""
from __future__ import annotations

import math

import numpy as np

from .closed_form import switch_time
from .errors import ParameterError
from .hjb import Policy
from .market import MarketParams, _block_stream
from .payoffs import DEGENERATE_WEIGHT, PayoffSpec, eval_f, eval_g, validate_spec
from .results import PriceEstimate

PAIR_BLOCK = 1 << 16
CHUNK_ROWS = 1 << 13  # rows of a block walked at once: 16 MB of normals at 250 steps
_FORCE_TOL = 1e-12


def _project_budget(u, y, t, dt, i, n_steps, d0, d1, t_horizon):
    """Feasibility projection for the unit-budget mode.  Returns (u, violations)."""
    u = np.clip(u, d0, d1)
    need = 1.0 - y
    force = need >= d1 * (t_horizon - t) - _FORCE_TOL
    u = np.where(force, d1, u)
    if i == n_steps - 1:
        u = need / dt
    else:
        u = np.minimum(u, need / dt)
    bad = int(np.count_nonzero((u > d1 + _FORCE_TOL) | (u < d0 - _FORCE_TOL)))
    return np.clip(u, max(d0, 0.0), d1), bad


def evaluate_policy(
    policy: Policy,
    spec: PayoffSpec,
    params: MarketParams,
    n_paths: int,
    n_steps: int,
    seed: int,
    antithetic: bool = True,
) -> PriceEstimate:
    """Discounted sample mean of the controlled payoff under ``policy``."""
    validate_spec(spec, params)
    params.check_log_band()
    if n_paths < 2:
        raise ParameterError("need at least two paths", field="mc.n_paths")
    if n_steps < 1:
        raise ParameterError("need at least one step", field="mc.n_steps")
    T = params.t_horizon
    dt = T / n_steps
    drift = (params.r - 0.5 * params.sigma**2) * dt
    vol = params.sigma * math.sqrt(dt)
    budget_mode = spec.weight_mode == "adapted_fixed_cumulative"
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    signs = (1.0, -1.0) if antithetic else (1.0,)
    n_rows_total = (n_paths + 1) // 2 if antithetic else n_paths

    sum_w = sum_d = sum_d2 = 0.0
    n_obs = 0
    warnings_count = 0
    disc = math.exp(-params.r * T)

    # one chunk's normals, and the growth factors of one leg, step-major
    chunk = min(CHUNK_ROWS, n_rows_total)
    z_flat = np.empty(chunk * n_steps)
    growth_flat = np.empty(chunk * n_steps)
    n_blocks = (n_rows_total + PAIR_BLOCK - 1) // PAIR_BLOCK
    for b in range(n_blocks):
        rows = min(PAIR_BLOCK, n_rows_total - b * PAIR_BLOCK)
        stream = _block_stream(seed, b)
        payoffs = [np.empty(rows) for _ in signs]
        for lo in range(0, rows, CHUNK_ROWS):
            n = min(CHUNK_ROWS, rows - lo)
            z = stream.standard_normal(out=z_flat[: n * n_steps].reshape(n, n_steps))
            growth = growth_flat[: n * n_steps].reshape(n_steps, n)
            for leg, sign in enumerate(signs):
                # exp(drift + vol * (sign * z)) for every step at once: sign = +-1
                # scales exactly, so each factor is bit for bit the one-step formula
                np.multiply(z.T, sign * vol, out=growth)
                np.add(growth, drift, out=growth)
                np.exp(growth, out=growth)
                s = np.full(n, params.s0)
                x = np.zeros(n)
                y = np.zeros(n)
                for i in range(n_steps):
                    t = i * dt
                    u = np.broadcast_to(
                        np.asarray(policy.evaluate(t, x, y, s), dtype=float), s.shape
                    )
                    if budget_mode:
                        u, bad = _project_budget(u, y, t, dt, i, n_steps, d0, d1, T)
                        warnings_count += bad
                    else:
                        u = np.clip(u, d0, d1)
                    f_now = eval_f(spec, params, s, t)
                    x = x + u * f_now * dt
                    y = y + u * dt
                    s = s * growth[i]
                if budget_mode:
                    payoffs[leg][lo : lo + n] = eval_g(spec, x)
                else:
                    terminal = eval_f(spec, params, s, T)
                    ratio = np.where(y >= DEGENERATE_WEIGHT, x / np.where(y == 0.0, 1.0, y), terminal)
                    payoffs[leg][lo : lo + n] = eval_g(spec, ratio)
        w = disc * (0.5 * (payoffs[0] + payoffs[1]) if antithetic else payoffs[0])
        if b == 0:  # the moments are taken about the first block's mean, in its units
            shift = float(np.mean(w))
            scale = float(np.max(np.abs(w))) or 1.0
        d = (w - shift) / scale
        sum_w += float(np.sum(w))
        sum_d += float(np.sum(d))
        sum_d2 += float(np.sum(d * d))
        n_obs += rows

    mean = sum_w / n_obs
    if n_obs > 1:
        var = max(sum_d2 - sum_d * sum_d / n_obs, 0.0) / (n_obs - 1)
        stderr = scale * math.sqrt(var / n_obs)
    else:
        stderr = 0.0
    # keep the stderr > 0 contract at every price scale
    stderr = max(stderr, 1e-16 * abs(mean), math.ulp(0.0))
    return PriceEstimate(
        value=mean,
        stderr=stderr,
        method="monte_carlo",
        meta={
            "policy": policy.name,
            "n_paths": n_obs * len(signs),
            "n_steps": n_steps,
            "seed": seed,
            "antithetic": antithetic,
            "forced_ramp_warnings": warnings_count,
        },
    )


def builtin_policies(spec: PayoffSpec, params: MarketParams) -> list[Policy]:
    """Reference policies: uniform, tail, a small threshold ladder on the
    payment rate, and the constant floor.

    ``tail`` (offered when d0 = 0 < d1) pays d1 from ``closed_form.switch_time``
    on: over [T - 1/d1, T] it spends the unit budget exactly, and when
    d1 T <= 1 it pays d1 throughout (``meta["degenerate"]``).
    """
    params.check_log_band()  # the threshold levels lie inside the band
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    T = params.t_horizon
    out = []

    def _const(level, name):
        return Policy(
            source="analytic", d0=d0, d1=d1, name=name, t_horizon=T,
            fn=lambda t, x, y, s, level=level: np.full(np.shape(np.asarray(s)), level),
        )

    out.append(_const(1.0 / T, "uniform"))
    if d0 == 0.0 < d1:
        switch = switch_time(spec, params)
        out.append(Policy(
            source="analytic", d0=0.0, d1=d1, name="tail", t_horizon=T,
            fn=lambda t, x, y, s: np.full(np.shape(np.asarray(s)), d1 if t >= switch else 0.0),
            meta={"switch_time": switch, "degenerate": d1 * T <= 1.0},
        ))
    for q in (-0.5, 0.0, 0.5):
        level = params.s0 * math.exp(params.sigma * math.sqrt(T) * q)
        c = float(eval_f(spec, params, level, 0.5 * T))

        def threshold_rule(t, x, y, s, c=c):
            f_now = eval_f(spec, params, np.asarray(s, dtype=float), t)
            return np.where(f_now > c, d1, d0)

        out.append(Policy(source="analytic", d0=d0, d1=d1, name=f"threshold[{q:+.1f}]",
                          fn=threshold_rule, t_horizon=T, meta={"cutoff": c}))
    out.append(_const(d0, "floor"))
    return out
