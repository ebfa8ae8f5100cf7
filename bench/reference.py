"""Independent reference numbers for the benchmark's output checks.

Nothing here imports the engine: Black-Scholes expectations use
``scipy.stats.norm`` and ``scipy.integrate.quad``, and the rule prices
are plain-numpy Monte Carlo on PCG64 streams with their own seeds.

    python3 bench/reference.py            # recompute and rewrite reference.json

All numbers are for the benchmark's contract: s0 = K = 100, r = 0,
sigma = 0.2, T = 1, call payment rate f(s) = (s - K)^+, d0 = 0, d1 = 2.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.stats import norm

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")
COMMAND = "python3 bench/reference.py"

S0, STRIKE, SIGMA, T, D1 = 100.0, 100.0, 0.2, 1.0, 2.0
CAP = 8.0
MC_STEPS = 250          # the step count of the workloads' Monte Carlo configs
RULE_PAIRS = 100_000    # antithetic pairs per rule price
RULE_START = 0.3        # the normalized rule spends only from this time on
UNIFORM_SEED = 71_001
AVERAGE_SEED = 71_002


def bs_call(t: float) -> float:
    """E[(S(t) - K)^+] under r = 0."""
    if t == 0.0:
        return max(S0 - STRIKE, 0.0)
    st = SIGMA * math.sqrt(t)
    d1 = (math.log(S0 / STRIKE) + 0.5 * SIGMA * SIGMA * t) / st
    return S0 * norm.cdf(d1) - STRIKE * norm.cdf(d1 - st)


def tail_price() -> float:
    """Deferral price d1 * int_{T - 1/d1}^{T} E[f(S(t))] dt."""
    value, _ = integrate.quad(bs_call, T - 1.0 / D1, T, epsabs=0.0, epsrel=1e-13, limit=200)
    return D1 * value


def tail_price_on_steps() -> float:
    """Expectation of the tail rule on the left-endpoint step grid of the MC engine.

    It differs from ``tail_price`` only by the time discretisation of
    the payment integral, which bounds the bias of the engine's MC step.
    """
    dt = T / MC_STEPS
    start = int(round((T - 1.0 / D1) / dt))
    return D1 * dt * sum(bs_call(i * dt) for i in range(start, MC_STEPS))


def lookback_bound() -> float:
    """E[max_{t<=T} S(t)] - K: no weighting of f can pay more on average.

    The running maximum M of X = (-sigma^2/2) t + sigma W has
    P(M > m) = 1 - Phi((m - mu T)/(sigma sqrt T)) + e^{2 mu m / sigma^2} Phi((-m - mu T)/(sigma sqrt T)),
    and E[e^M] = 1 + int_0^inf e^m P(M > m) dm; the integrand is below
    1e-60 beyond m = 15 sigma sqrt(T), where the integral stops.
    """
    mu, sd = -0.5 * SIGMA * SIGMA, SIGMA * math.sqrt(T)

    def tail(m):
        return norm.sf((m - mu * T) / sd) + math.exp(2.0 * mu * m / SIGMA**2) * norm.cdf((-m - mu * T) / sd)

    value, _ = integrate.quad(lambda m: math.exp(m) * tail(m), 0.0, 15.0 * sd, epsabs=0.0, epsrel=1e-12, limit=200)
    return S0 * (1.0 + value) - STRIKE


def _antithetic_paths(seed: int):
    """Yield (t, s) per step for RULE_PAIRS antithetic pairs, s of shape (2, pairs)."""
    rng = np.random.default_rng(seed)
    dt = T / MC_STEPS
    drift, vol = -0.5 * SIGMA * SIGMA * dt, SIGMA * math.sqrt(dt)
    s = np.full((2, RULE_PAIRS), S0)
    for i in range(MC_STEPS):
        yield i * dt, s
        z = rng.standard_normal(RULE_PAIRS)
        s = s * np.exp(drift + vol * np.stack([z, -z]))
    yield T, s


def _pair_mean(payoff: np.ndarray) -> dict:
    w = payoff.mean(axis=0)
    return {"value": float(w.mean()), "stderr": float(w.std(ddof=1) / math.sqrt(w.size))}


def uniform_rule_cap() -> dict:
    """Capped contract, u = 1/T throughout: E[min(int f dt, 8)], a lower bound."""
    dt = T / MC_STEPS
    x = np.zeros((2, RULE_PAIRS))
    for i, (_, s) in enumerate(_antithetic_paths(UNIFORM_SEED)):
        if i < MC_STEPS:
            x += np.maximum(s - STRIKE, 0.0) * dt
    return _pair_mean(np.minimum(x, CAP))


def average_rule_normalized() -> dict:
    """Normalized contract: from t = 0.3 spend d1 whenever f exceeds the
    weighted average paid so far (0 before anything is spent); the payoff
    is that average at T, or f(S(T)) when nothing was spent."""
    dt = T / MC_STEPS
    x = np.zeros((2, RULE_PAIRS))
    y = np.zeros((2, RULE_PAIRS))
    for i, (t, s) in enumerate(_antithetic_paths(AVERAGE_SEED)):
        f = np.maximum(s - STRIKE, 0.0)
        if i == MC_STEPS:
            spent = y >= 1e-10
            return _pair_mean(np.where(spent, x / np.where(spent, y, 1.0), f))
        if t >= RULE_START - 1e-12:
            average = np.where(y > 0.0, x / np.where(y > 0.0, y, 1.0), 0.0)
            u = np.where(f > average, D1, 0.0)
            x += u * f * dt
            y += u * dt
    raise AssertionError("unreachable")


def compute() -> dict:
    return {
        "command": COMMAND,
        "tail_price": tail_price(),
        "tail_price_on_steps": tail_price_on_steps(),
        "bs_call_T": bs_call(T),
        "lookback_bound": lookback_bound(),
        "uniform_rule_cap": uniform_rule_cap(),
        "average_rule_normalized": average_rule_normalized(),
    }


def main() -> None:
    fresh = compute()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(fresh, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(fresh, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
