"""Risk-neutral market model: the Monte Carlo normal stream and Black-Scholes expectations.

The engine prices everything under the risk-neutral measure, so the model
carries no physical drift; ``mc`` steps log-prices exactly,

    S(t_{i+1}) = S(t_i) * exp((r - sigma^2/2) dt + sigma sqrt(dt) Z_i),

which keeps the simulated marginals free of time-discretisation bias.

There is one path stream.  ``_block_stream`` is the Philox
counter-based generator of one block of paths, keyed on (seed, block
index).  ``mc`` draws each block of ``mc.PAIR_BLOCK`` rows from it in
consecutive row chunks, one (rows, n_steps) draw after another.  The
generator fills its draws row by row, so chunks drawn in turn hold the
same normals as one draw of all their rows, and a shorter draw is the
leading rows of a longer one: enlarging ``n_paths`` appends paths
without reshuffling the draws of earlier ones.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

@dataclass(frozen=True)
class MarketParams:
    """Constants of the risk-neutral GBM model.

    s0: spot price, r: risk-free rate, sigma: volatility,
    t_horizon: terminal time T.
    """

    s0: float
    r: float
    sigma: float
    t_horizon: float

    def __post_init__(self):
        for name in ("s0", "r", "sigma", "t_horizon"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError("must be finite", field=f"market.{name}")
        if not self.s0 > 0.0:
            raise ParameterError("spot must be positive", field="market.s0")
        if not self.r >= 0.0:
            raise ParameterError("rate must be >= 0", field="market.r")
        if not self.sigma > 0.0:
            # sigma == 0 is rejected; near-deterministic tests use sigma = 1e-12.
            raise ParameterError("volatility must be strictly positive", field="market.sigma")
        if not self.t_horizon > 0.0:
            raise ParameterError("horizon must be positive", field="market.t_horizon")

    def check_log_band(self) -> None:
        """Reject a horizon over which S / s0 leaves the float range.

        The band is (r - sigma^2/2) t +- 5 sigma sqrt(T), t in [0, T]: the
        span of the grid's log-spot axis around log s0, and where nearly
        every Monte Carlo path ends.  Past exp's range the grid reads
        overflowed spots and paths collapse to 0 or inf, so both routes
        would return a wrong price (0.0 at t_horizon = 1e300).
        """
        T = self.t_horizon
        reach = abs(self.r - 0.5 * self.sigma**2) * T + 5.0 * self.sigma * math.sqrt(T)
        if not reach < math.log(sys.float_info.max):
            raise ParameterError(f"S / s0 spans exp(+-{reach:.4g}) over the horizon, "
                                 "beyond the float range", field="market.t_horizon")


def norm_cdf(x: float) -> float:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2): no cancellation in either tail."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _block_stream(seed: int, block: int) -> np.random.Generator:
    """The Philox generator of one substream block, deterministic in (seed, block)."""
    bitgen = np.random.Philox(seed=np.random.SeedSequence(entropy=(seed, block)))
    return np.random.Generator(bitgen)


def bs_expected_payoff(params: MarketParams, h_kind: str, t: float, strike: float | None = None) -> float:
    """E*[h(S(t))] in closed form (undiscounted).

    h_kind is one of "call", "put" (both need ``strike``) or "identity".
    At t = 0 this is h(s0).
    """
    if not 0.0 <= t <= params.t_horizon:
        raise ParameterError("t must lie in [0, T]", field="t")
    if h_kind == "identity":
        return params.s0 * math.exp(params.r * t)
    if h_kind not in ("call", "put"):
        raise ParameterError(f"unknown payoff kind {h_kind!r}", field="h_kind")
    if strike is None or not strike > 0.0:
        raise ParameterError("call/put kinds need a positive strike", field="strike")
    sign = 1.0 if h_kind == "call" else -1.0
    if t == 0.0:
        return max(sign * (params.s0 - strike), 0.0)
    fwd = params.s0 * math.exp(params.r * t)
    st = params.sigma * math.sqrt(t)
    d1 = (math.log(params.s0 / strike) + (params.r + 0.5 * params.sigma**2) * t) / st
    d2 = d1 - st
    # the put is priced directly, not by parity from the call: out of the
    # money, E(S-K)^+ - fwd + K keeps only the rounding noise of the call
    value = sign * (fwd * norm_cdf(sign * d1) - strike * norm_cdf(sign * d2))
    # below the smallest normal double the difference has lost its digits
    # (it even rounds below 0), so it counts as 0
    return value if value >= sys.float_info.min else 0.0
