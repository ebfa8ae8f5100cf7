"""Monte Carlo policy evaluation under the risk-neutral measure.

``evaluate_policy`` prices one feedback policy: paths advance step by
step and the controlled state (x, y) = (accumulated payment, spent
weight) advances with the control sampled at the *left* endpoint of each
step, so u at t_i uses information up to t_i only and adaptedness holds
by construction.  The step pays by the trapezoid rule,
x += u * (f_i + f_{i+1}) / 2 * dt, with f_i = f(S(t_i), t_i); y = int u dt
is exact as it is.  For a fixed control the walk then converges to the
paper's integral at O(dt^2), where a left-endpoint sum is O(dt) away.

Each step clips u once, to the payments that keep the contract
feasible: [d0, d1] in the normalized mode, ``payoffs.budget_interval``
with left = T - t - dt in the budget mode.  A step inside that interval
keeps the next one non-empty, so only bounds at the edge of
``BUDGET_TOL`` empty it; u then takes its upper end, and such path-steps
are counted in ``meta["forced_ramp_warnings"]``.

Antithetic variates are on by default; estimates and standard errors are
computed on pair averages, and two controls with known means are fitted
on them.  The walk's own payment integral at u = 1,
C = sum_i (f_i + f_{i+1}) / 2 * dt, has E[C] the same trapezoid over the
Black-Scholes E*[f(S(t_i), t_i)], exact because the walk steps log S
exactly; the discounted terminal spot D = e^{-rT} S(T), from the walk's
last s row, has E[D] = s0 for the same reason.  The estimate is
mean(P) - beta_C (mean(C) - E[C]) - beta_D (mean(D) - s0), with
(beta_C, beta_D) fitted by least squares on the same pair averages, and
the standard error is the residual's, on n - 3 degrees of freedom for n
pair averages.  D is fitted only together with C.  It is dropped, and
the fit of C alone comes back bit for bit (beta = Cov(P, C) / Var(C), on
n - 2 degrees of freedom), with fewer than four pair averages, where
Var(D) = 0, where the 2 x 2 fit is singular (its determinant within
1e-12 of Var(C) Var(D)), or where either beta times its control's
rounding bound is not under a tenth of the error left.  C is dropped in
turn, and the plain mean and its standard error returned unchanged, with
fewer than three of them, or where C cannot be told from its rounding
(Var(C) = 0, as with a rate that never pays, or beta times C's rounding
bound is not under a tenth of the error left, as with a spot that barely
moves).  The bounds are (n_steps + 2) 2 eps times |E[C]| and s0: C sums
n_steps + 2 rounded terms, and D is n_steps products of an exp (within
an ulp) and a rounded factor, then the discount and the pair average.

Paths stream through fixed-size blocks with per-block substreams (see
``market``), and block partials reduce in index order.  Each block is
walked in chunks of ``CHUNK_ROWS`` rows, and each chunk runs in two
parts.  *Prepare* draws the chunk's normals in turn from the block's
generator, ``DRAW_ROWS`` rows at a time into a small staging buffer, and
writes vol * z of all its steps for leg + alone into a step-major slot,
n_steps rows of n.  *Walk* is the step loop; it advances both legs at
once on 2n rows, so the policy sees one call per step.  Step i writes
its growth factors into one 2n-row: drift + vol * z for leg + in
[0, n), drift - vol * z for leg - in [n, 2n), then one exp, and the
spots are multiplied by that row.  Subtracting vol * z is adding its
negation, so leg -'s factor is exp(drift + vol * (-z)) bit for bit.
The walk clips u and advances x, y and s in place, in rows it allocates
once per call; it never writes into an array that the policy or
``eval_f`` returns (``eval_f`` returns s itself for an identity rate
paid at spot).  It writes the pair averages of the discounted payoffs P,
of C and of D into one (3, rows) array that every block reuses.  A NaN
proposal survives the clip into the spent weight y, so y is checked once
per chunk and such a policy is refused by name.  One worker thread
prepares chunk k + 1 into the other slot while the main thread walks
chunk k: the draws and the product are numpy calls that release the
interpreter lock, and the policy, ``eval_f`` and ``eval_g`` run on the
main thread only.  The worker prepares the chunks in stream order, every
value is the same elementwise arithmetic on the same normals, and the
block's sums run over the same arrays in the same order, so neither the
chunking nor the thread changes a result.  Memory stays flat in the
number of paths: two slots of ``CHUNK_ROWS`` rows (4 MB each at 250
steps), the staging buffer and the block's pair averages of P, C and D,
rather than a block of normals.  The second moments are summed about the
first block's mean P and first C and D and divided by their largest
values, so the standard error scales with the price instead of
overflowing or underflowing at extreme spot levels.

In the budget mode a step whose chunk has the same interval at its
lowest and its highest y (every step of ``tail``, whose y is the same on
every path) takes the interval as two scalars; the steps are correctly
rounded and so monotone in y, which makes this bit-identical.

The built-in ``tail`` policy is the deferral strategy that
``closed_form`` prices; both take its window from ``closed_form.switch_time``.
"""
from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .closed_form import expected_payment_rate, switch_time
from .errors import ParameterError
from .hjb import Policy
from .market import MarketParams, _block_stream
from .payoffs import (DEGENERATE_WEIGHT, FORCE_TOL, PayoffSpec, budget_interval, eval_f, eval_g,
                       validate_spec)
from .results import PriceEstimate

PAIR_BLOCK = 1 << 16
CHUNK_ROWS = 1 << 11  # rows of a block walked at once: 4 MB of leg +'s vol * z per slot at 250 steps
DRAW_ROWS = 1 << 9  # rows of normals drawn at once: 1 MB of staging at 250 steps
# the least share of P's variance the controls are taken to leave, and of
# Var(C) Var(D) the 2 x 2 determinant: below it the residual or the
# determinant is the rounding of the sums it comes from (P = C leaves a few ulps)
_RESIDUAL_FLOOR = 1e-12


def _interval_at(y: float, dt, left, d0, d1):
    """``budget_interval``'s (lo, hi) at one spent weight y, by the same
    correctly rounded steps."""
    need = 1.0 - y
    return max((need - d1 * left) / dt, d0), min((need - d0 * left) / dt, d1)


def _chunk_interval(y, dt, left, d0, d1, out):
    """``budget_interval`` on a chunk's rows, as two scalars when its lowest
    and its highest spent weight give the same ends: each step is correctly
    rounded and so monotone in y, and the rows between have those ends too.
    A NaN weight makes the ends unequal."""
    lo, hi = _interval_at(float(y.min()), dt, left, d0, d1)
    lo_top, hi_top = _interval_at(float(y.max()), dt, left, d0, d1)
    if lo == lo_top and hi == hi_top:
        return lo, hi, y.size if lo > hi + FORCE_TOL / dt else 0
    return budget_interval(y, dt, left, d0, d1, out)


def _control_mean(spec: PayoffSpec, params: MarketParams, times) -> float:
    """E[C] for the control C = sum_i (f_i + f_{i+1}) / 2 * dt: the same
    trapezoid over E*[f(S(t_i), t_i)].  The walk steps log S exactly, so
    this is C's mean on the walk's own step grid."""
    rates = [expected_payment_rate(spec, params, t) for t in times]
    half_dt = 0.5 * (params.t_horizon / (len(times) - 1))
    return math.fsum((a + b) * half_dt for a, b in zip(rates, rates[1:]))


def evaluate_policy(
    policy: Policy,
    spec: PayoffSpec,
    params: MarketParams,
    n_paths: int,
    n_steps: int,
    seed: int,
    antithetic: bool = True,
) -> PriceEstimate:
    """Discounted mean of the controlled payoff P under ``policy``, less
    beta_C (mean C - E[C]) + beta_D (mean D - s0) for the payment integral
    C at u = 1 and the discounted terminal spot D.

    Each step pays u (f_i + f_{i+1}) / 2 dt (the trapezoid rule), with u
    fixed at t_i.  ``stderr`` is that of the residual, and
    ``meta["control_variate"]`` gives ``beta`` (beta_C), ``beta_spot``
    (beta_D, there only where D is fitted) and ``variance_ratio``, the
    residual's share of P's variance; ``beta`` and ``variance_ratio`` read
    0 and 1 where the plain mean is returned (see the module notes).
    """
    validate_spec(spec, params)
    params.check_log_band()
    if n_paths < 2:
        raise ParameterError("need at least two paths", field="mc.n_paths")
    if n_steps < 1:
        raise ParameterError("need at least one step", field="mc.n_steps")
    T = params.t_horizon
    dt = T / n_steps
    half_dt = 0.5 * dt
    times = [i * dt for i in range(n_steps)] + [T]
    drift = (params.r - 0.5 * params.sigma**2) * dt
    vol = params.sigma * math.sqrt(dt)
    budget_mode = spec.weight_mode == "adapted_fixed_cumulative"
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    legs = 2 if antithetic else 1
    n_rows_total = (n_paths + 1) // 2 if antithetic else n_paths

    # sums over the pair averages: of P and C, and of d, e, g (P, C and D
    # shifted and scaled by the first block), their squares and products
    sum_w = sum_c = sum_d = sum_e = sum_g = sum_d2 = sum_e2 = sum_g2 = sum_de = sum_dg = sum_eg = 0.0
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
    slots = [np.empty(n_steps * chunk) for _ in range(2)]
    # the walk's rows: the state s, x, y, the control's sum c, the rate f_i
    # carried from the step before, the step's payment at u = 1, the
    # clipped u, the step's growth factors, and the budget interval's lo,
    # hi, scratch and flags
    walk_rows = [np.empty(legs * chunk) for _ in range(11)] + [np.empty(legs * chunk, dtype=bool)]
    # the pair averages of P, C and D, one block at a time
    block = np.empty((3, min(PAIR_BLOCK, n_rows_total)))

    def prepare(k):
        """vol * z of chunk k's leg +, step-major, into slot k % 2."""
        stream, _, n, _ = plan[k]
        vz = slots[k % 2][: n_steps * n].reshape(n_steps, n)
        for r in range(0, n, DRAW_ROWS):
            m = min(DRAW_ROWS, n - r)
            z = stream.standard_normal(out=staging[: m * n_steps].reshape(m, n_steps))
            np.multiply(z.T, vol, out=vz[:, r : r + m])
        return vz

    with ThreadPoolExecutor(max_workers=1) as worker:
        pending = worker.submit(prepare, 0)
        mu_c = _control_mean(spec, params, times)
        for k, (_, first, n, rows) in enumerate(plan):
            vz = pending.result()
            if k + 1 < len(plan):  # its slot held chunk k - 1, which is walked
                pending = worker.submit(prepare, k + 1)
            s, x, y, c, f_now, pay, u, growth, lo_row, hi_row, tmp, flags = (
                row[: legs * n] for row in walk_rows)
            s.fill(params.s0)
            x.fill(0.0)
            y.fill(0.0)
            c.fill(0.0)
            np.copyto(f_now, eval_f(spec, params, s, 0.0))
            for i in range(n_steps):
                t = times[i]
                if budget_mode:
                    lo, hi, bad = _chunk_interval(y, dt, (n_steps - i - 1) * dt, d0, d1,
                                                  (lo_row, hi_row, tmp, flags))
                    warnings_count += bad
                else:
                    lo, hi = d0, d1
                # clip the proposal to [lo, hi], hi where the interval is
                # empty; np.clip takes twice as long with array bounds.  The
                # rule's answer and f_next may be x, y, s or a kept array, so
                # only the walk's own rows are written
                np.minimum(np.maximum(policy.evaluate(t, x, y, s), lo, out=u), hi, out=u)
                # drift - vol * z is drift + vol * (-z) exactly, so leg -'s
                # factor is bit for bit exp(drift + vol * (sign * z))
                np.add(vz[i], drift, out=growth[:n])
                if antithetic:
                    np.subtract(drift, vz[i], out=growth[n:])
                np.multiply(s, np.exp(growth, out=growth), out=s)
                f_next = eval_f(spec, params, s, times[i + 1])
                np.add(y, np.multiply(u, dt, out=tmp), out=y)
                np.multiply(np.add(f_now, f_next, out=pay), half_dt, out=pay)
                np.add(c, pay, out=c)
                np.add(x, np.multiply(u, pay, out=u), out=x)
                np.copyto(f_now, f_next)
            if np.isnan(y).any():  # a NaN proposal survives the clip into the spent weight
                raise ParameterError(f"policy {policy.name!r} proposed NaN", field="policy")
            if budget_mode:
                ends = eval_g(spec, x)
            else:  # f_now is f(S(T), T)
                ratio = np.where(y >= DEGENERATE_WEIGHT, x / np.where(y == 0.0, 1.0, y), f_now)
                ends = eval_g(spec, ratio)
            w, cv, ds = block[:, first : first + n]
            for out, legs_row in ((w, ends), (cv, c), (ds, s)):  # s is S(T)
                if antithetic:
                    np.multiply(np.add(legs_row[:n], legs_row[n:], out=out), 0.5, out=out)
                else:
                    out[:] = legs_row
            np.multiply(w, disc, out=w)
            np.multiply(ds, disc, out=ds)
            if first + n < rows:
                continue
            w, cv, ds = block[:, :rows]
            if n_obs == 0:  # moments about the first block's mean P and first C and D, in its units
                shift = float(np.mean(w))
                scale = float(np.max(np.abs(w))) or 1.0
                shift_c = float(cv[0])  # a constant C then has e = 0 exactly
                scale_c = float(np.max(np.abs(cv))) or 1.0
                shift_s = float(ds[0])
                scale_s = float(np.max(np.abs(ds))) or 1.0
            sum_w += float(np.sum(w))
            sum_c += float(np.sum(cv))
            d = np.divide(np.subtract(w, shift, out=w), scale, out=w)
            e = np.divide(np.subtract(cv, shift_c, out=cv), scale_c, out=cv)
            g = np.divide(np.subtract(ds, shift_s, out=ds), scale_s, out=ds)
            sum_d += float(np.sum(d))
            sum_e += float(np.sum(e))
            sum_g += float(np.sum(g))
            sum_d2 += float(np.sum(d * d))
            sum_e2 += float(np.sum(e * e))
            sum_g2 += float(np.sum(g * g))
            sum_de += float(np.sum(d * e))
            sum_dg += float(np.sum(d * g))
            sum_eg += float(np.sum(e * g))
            n_obs += rows

    mean = sum_w / n_obs
    ss = max(sum_d2 - sum_d * sum_d / n_obs, 0.0)  # P's scaled sum of squares about its mean
    resid, dof, control = ss, n_obs - 1, {"beta": 0.0, "variance_ratio": 1.0}
    ss_c = sum_e2 - sum_e * sum_e / n_obs
    # a control's mean can sit this far from its exact one by the walk's
    # rounding alone (see the module notes); where beta times that is not
    # under a tenth of the error left, the control is taken to be rounding
    rounding_c = (n_steps + 2) * 2.0 * sys.float_info.epsilon * abs(mu_c)
    rounding_s = (n_steps + 2) * 2.0 * sys.float_info.epsilon * params.s0
    # a fit of k controls leaves the residual n - 1 - k degrees of freedom, so
    # C needs three observations and D, which is fitted only with C, four
    if n_obs >= 3 and ss_c > 0.0 and ss > 0.0:
        sp = sum_de - sum_d * sum_e / n_obs
        resid_c = max(ss - sp * sp / ss_c, _RESIDUAL_FLOOR * ss)
        b = sp / ss_c * scale / scale_c
        if abs(b) * rounding_c <= 0.1 * scale * math.sqrt(resid_c / (n_obs - 2) / n_obs):
            offset_c = sum_c / n_obs - mu_c
            mean, resid, dof = sum_w / n_obs - b * offset_c, resid_c, n_obs - 2
            control = {"beta": b, "variance_ratio": resid_c / ss}
            # D with C: the 2 x 2 normal equations
            ss_s = sum_g2 - sum_g * sum_g / n_obs
            cross = sum_eg - sum_e * sum_g / n_obs
            det = ss_c * ss_s - cross * cross
            if n_obs >= 4 and ss_s > 0.0 and det > _RESIDUAL_FLOOR * ss_c * ss_s:
                sp_s = sum_dg - sum_d * sum_g / n_obs
                k_c, k_s = (ss_s * sp - cross * sp_s) / det, (ss_c * sp_s - cross * sp) / det
                resid_2 = max(ss - k_c * sp - k_s * sp_s, _RESIDUAL_FLOOR * ss)
                b_c, b_s = k_c * scale / scale_c, k_s * scale / scale_s
                left = 0.1 * scale * math.sqrt(resid_2 / (n_obs - 3) / n_obs)
                if abs(b_c) * rounding_c <= left and abs(b_s) * rounding_s <= left:
                    offset_s = shift_s + scale_s * (sum_g / n_obs) - params.s0  # E[D] = s0
                    mean = sum_w / n_obs - b_c * offset_c - b_s * offset_s
                    resid, dof = resid_2, n_obs - 3
                    control = {"beta": b_c, "beta_spot": b_s, "variance_ratio": resid_2 / ss}
    stderr = scale * math.sqrt(resid / dof / n_obs) if n_obs > 1 else 0.0
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
            "control_variate": control,
        },
    )


def builtin_policies(spec: PayoffSpec, params: MarketParams) -> list[Policy]:
    """Reference policies: uniform, tail, a small threshold ladder on the
    payment rate, and the constant floor.

    ``tail`` (offered when d0 < d1) pays d0 before ``closed_form.switch_time``
    s and d1 from s on: over [s, T] it spends the excess budget 1 - d0 T
    exactly, and when d1 T <= 1 it pays d1 throughout.
    """
    params.check_log_band()  # the threshold levels lie inside the band
    d0, d1 = spec.bounds.d0, spec.bounds.d1
    T = params.t_horizon
    out = [Policy("uniform", lambda t, x, y, s, level=1.0 / T: level)]
    if d0 < d1:
        switch = switch_time(spec, params)
        out.append(Policy("tail", lambda t, x, y, s: d1 if t >= switch else d0))
    for q in (-0.5, 0.0, 0.5):
        level = params.s0 * math.exp(params.sigma * math.sqrt(T) * q)
        c = float(eval_f(spec, params, level, 0.5 * T))

        def threshold_rule(t, x, y, s, c=c):
            f_now = eval_f(spec, params, np.asarray(s, dtype=float), t)
            return np.where(f_now > c, d1, d0)

        out.append(Policy(f"threshold[{q:+.1f}]", threshold_rule))
    out.append(Policy("floor", lambda t, x, y, s: d0))
    return out
