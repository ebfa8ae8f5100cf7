"""Monte Carlo policy evaluation under the risk-neutral measure.

``evaluate_policy`` prices one feedback policy: paths advance step by
step and the controlled state (x, y) = (accumulated payment, spent
weight) advances with the control sampled at the *left* endpoint of each
step, so u at t_i uses information up to t_i only and adaptedness holds
by construction.

Each step clips u once, to the payments that keep the contract
feasible: [d0, d1] in the normalized mode.  In the budget mode, with
need = 1 - y and left = T - t - dt, they are the u with
need - d1 * left <= u * dt <= need - d0 * left, so
[max(d0, (need - d1 * left) / dt), min(d1, (need - d0 * left) / dt)],
the single point need / dt on the last step.  A step inside it keeps
the next one non-empty, so only bounds at the edge of ``BUDGET_TOL``
empty it; u then takes its upper end, and such path-steps are counted
in ``meta["forced_ramp_warnings"]``.

Antithetic variates are on by default; estimates and standard errors are
computed on pair averages.  Paths stream through fixed-size blocks with
per-block substreams (see ``market``), and block partials reduce in
index order.  Each block is walked in chunks of ``CHUNK_ROWS`` rows, and
each chunk runs in two parts.  *Prepare* draws the chunk's normals in
turn from the block's generator, ``DRAW_ROWS`` rows at a time into a
small staging buffer, and writes the growth factors
exp(drift + vol * (sign * z)) of all its steps and of both antithetic
legs into a step-major slot: leg + in columns [0, n), leg - in [n, 2n),
whose vol * (-z) is the negated vol * z of leg +, exactly.  *Walk* is
the step loop; it advances both legs at once on 2n rows, so step i
multiplies the spots by one contiguous row of the slot and the policy
sees one call per step.  It clips u and advances x, y and s in place,
in rows it allocates once per call; it never writes into an array that
the policy or ``eval_f`` returns (``eval_f`` returns s itself for an
identity rate paid at spot).  It writes the terminal payoffs, split
back by leg, into the block's arrays.  A NaN proposal survives the clip
into the spent weight y, so y is checked once per chunk and such a
policy is refused by name.  One worker thread prepares
chunk k + 1 into the other slot while the main thread walks chunk k:
the draws and the exp are numpy calls that release the interpreter lock,
and the policy, ``eval_f`` and ``eval_g`` run on the main thread only.
The worker prepares the chunks in stream order, every value is the same
elementwise arithmetic on the same normals, and the block's sums run
over the same arrays in the same order, so neither the chunking nor the
thread changes a result.  Memory stays flat in the number of paths: two
slots of 2 * ``CHUNK_ROWS`` rows (8 MB each at 250 steps), the staging
buffer and the block's payoffs, rather than a block of normals.  The
second moment is summed about the first block's mean and divided by its
largest payoff, so the standard error scales with the price instead of
overflowing or underflowing at extreme spot levels.

The built-in ``tail`` policy is the deferral strategy that
``closed_form`` prices; both take its window from ``closed_form.switch_time``.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .closed_form import switch_time
from .errors import ParameterError
from .hjb import Policy
from .market import MarketParams, _block_stream
from .payoffs import DEGENERATE_WEIGHT, PayoffSpec, eval_f, eval_g, validate_spec
from .results import PriceEstimate

PAIR_BLOCK = 1 << 16
CHUNK_ROWS = 1 << 11  # rows of a block walked at once: 8 MB of growth factors per slot at 250 steps
DRAW_ROWS = 1 << 9  # rows of normals drawn at once: 1 MB of staging at 250 steps
_FORCE_TOL = 1e-12


def _budget_interval(y, dt, left, d0, d1, out=(None, None, None, None)):
    """The payments [lo, hi] of a budget-mode step that keep int u dt = 1
    reachable with ``left`` time after it, and the number of rows whose
    interval is empty by more than ``_FORCE_TOL`` of budget.  ``out`` may
    hold arrays shaped like ``y`` for lo, hi, a scratch row and the flags."""
    lo, hi, tmp, flags = out
    need = np.subtract(1.0, y, out=tmp)
    lo = np.maximum(np.divide(np.subtract(need, d1 * left, out=lo), dt, out=lo), d0, out=lo)
    hi = np.minimum(np.divide(np.subtract(need, d0 * left, out=hi), dt, out=hi), d1, out=hi)
    bad = np.greater(lo, np.add(hi, _FORCE_TOL / dt, out=tmp), out=flags)
    return lo, hi, int(np.count_nonzero(bad))


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
    legs = 2 if antithetic else 1
    n_rows_total = (n_paths + 1) // 2 if antithetic else n_paths

    sum_w = sum_d = sum_d2 = 0.0
    n_obs = 0
    warnings_count = 0
    disc = math.exp(-params.r * T)

    # every chunk in stream order: (its block's generator, first row, rows,
    # the block's rows)
    plan = []
    for b in range((n_rows_total + PAIR_BLOCK - 1) // PAIR_BLOCK):
        stream = _block_stream(seed, b)
        rows = min(PAIR_BLOCK, n_rows_total - b * PAIR_BLOCK)
        plan += [(stream, first, min(CHUNK_ROWS, rows - first), rows)
                 for first in range(0, rows, CHUNK_ROWS)]
    chunk = min(CHUNK_ROWS, n_rows_total)
    staging = np.empty(min(DRAW_ROWS, chunk) * n_steps)
    slots = [np.empty(n_steps * legs * chunk) for _ in range(2)]
    # the walk's rows: the state s, x, y, the clipped u, and the budget
    # interval's lo, hi, scratch and flags
    walk_rows = [np.empty(legs * chunk) for _ in range(7)] + [np.empty(legs * chunk, dtype=bool)]

    def prepare(k):
        """Growth factors of chunk k's legs, step-major, into slot k % 2."""
        stream, _, n, _ = plan[k]
        growth = slots[k % 2][: n_steps * legs * n].reshape(n_steps, legs * n)
        for r in range(0, n, DRAW_ROWS):
            m = min(DRAW_ROWS, n - r)
            z = stream.standard_normal(out=staging[: m * n_steps].reshape(m, n_steps))
            plus = np.multiply(z.T, vol, out=growth[:, r : r + m])
            if antithetic:
                # vol * (-z) is -(vol * z) exactly, so each factor is bit for
                # bit the one-step exp(drift + vol * (sign * z))
                np.negative(plus, out=growth[:, n + r : n + r + m])
        np.add(growth, drift, out=growth)
        return np.exp(growth, out=growth)

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(prepare, 0)
        for k, (_, first, n, rows) in enumerate(plan):
            growth = pending.result()
            if k + 1 < len(plan):  # its slot held chunk k - 1, which is walked
                pending = worker.submit(prepare, k + 1)
            if first == 0:
                payoffs = np.empty((legs, rows))
            s, x, y, u, lo_row, hi_row, tmp, flags = (row[: legs * n] for row in walk_rows)
            s.fill(params.s0)
            x.fill(0.0)
            y.fill(0.0)
            for i in range(n_steps):
                t = i * dt
                if budget_mode:
                    lo, hi, bad = _budget_interval(y, dt, (n_steps - i - 1) * dt, d0, d1,
                                                  (lo_row, hi_row, tmp, flags))
                    warnings_count += bad
                else:
                    lo, hi = d0, d1
                # clip the proposal to [lo, hi], hi where the interval is
                # empty; np.clip takes twice as long with array bounds.  The
                # rule's answer and f_now may be x, y, s or a kept array, so
                # only the walk's own rows are written
                np.minimum(np.maximum(policy.evaluate(t, x, y, s), lo, out=u), hi, out=u)
                f_now = eval_f(spec, params, s, t)
                np.add(y, np.multiply(u, dt, out=tmp), out=y)
                np.add(x, np.multiply(np.multiply(u, f_now, out=u), dt, out=u), out=x)
                np.multiply(s, growth[i], out=s)
            if np.isnan(y).any():  # a NaN proposal survives the clip into the spent weight
                raise ParameterError(f"policy {policy.name!r} proposed NaN", field="policy")
            if budget_mode:
                ends = eval_g(spec, x)
            else:
                terminal = eval_f(spec, params, s, T)
                ratio = np.where(y >= DEGENERATE_WEIGHT, x / np.where(y == 0.0, 1.0, y), terminal)
                ends = eval_g(spec, ratio)
            payoffs[:, first : first + n] = ends.reshape(legs, n)
            if first + n < rows:
                continue
            w = disc * (0.5 * (payoffs[0] + payoffs[1]) if antithetic else payoffs[0])
            if n_obs == 0:  # the moments are taken about the first block's mean, in its units
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
            "n_paths": n_obs * legs,
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
    d1 T <= 1 it pays d1 throughout.
    """
    params.check_log_band()  # the threshold levels lie inside the band
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    T = params.t_horizon
    out = [Policy("uniform", lambda t, x, y, s, level=1.0 / T: level)]
    if d0 == 0.0 < d1:
        switch = switch_time(spec, params)
        out.append(Policy("tail", lambda t, x, y, s: d1 if t >= switch else 0.0))
    for q in (-0.5, 0.0, 0.5):
        level = params.s0 * math.exp(params.sigma * math.sqrt(T) * q)
        c = float(eval_f(spec, params, level, 0.5 * T))

        def threshold_rule(t, x, y, s, c=c):
            f_now = eval_f(spec, params, np.asarray(s, dtype=float), t)
            return np.where(f_now > c, d1, d0)

        out.append(Policy(f"threshold[{q:+.1f}]", threshold_rule))
    out.append(Policy("floor", lambda t, x, y, s: d0))
    return out
