"""The benchmark's workloads: contract configs, the CLI calls of one job, and output checks.

Each workload is one desk job: a fixed sequence of CLI subcommands on
one JSON config.  The workload seed picks the Monte Carlo seed written
into that config (``mc.seed = 20240801 + seed``); nothing else in the
inputs depends on it.  The checks compare the written reports with
numbers computed apart from the engine (``reference.json``, made by
``python3 bench/reference.py``) or with properties the methods must
have.  Statistical checks allow ``Z`` standard errors.
"""
from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

MC_SEED_BASE = 20240801   # the CLI's default mc.seed, used at workload seed 0
Z = 5.0                   # standard errors a statistical check allows
REL = 0.02                # the relative allowance of the HJB checks (the CLI's rel_floor)
CAP = 8.0

# AC-2: call payment rate, identity reward, d1 = 2, r = 0, sigma = 0.2, T = 1.
AC2 = {
    "market": {"s0": 100.0, "r": 0.0, "sigma": 0.2, "t_horizon": 1.0},
    "payoff": {
        "f_kind": "call", "f_strike": 100.0, "payment_timing": "terminal_compounded",
        "g_kind": "identity", "weight_mode": "adapted_fixed_cumulative",
        "d0": 0.0, "d1": 2.0,
    },
}
# The normalized contract runs on a reduced grid: at the desk grid its
# convergence job alone takes 70-90 s on 2 cores (see README).
NORMALIZED_GRID = {"nx": 27, "ny": 27, "nz": 53, "n_steps": 130}
# Half the default paths keep a traced cap_desk run (three 25-35 s jobs)
# well inside the 180-s limit of one benchmark run.
CAP_MC = {"n_paths": 100_000}


@dataclass(frozen=True)
class Op:
    """One CLI call: ``controlled-options <argv> --config C --out-dir D``, which writes ``report``."""

    label: str
    argv: tuple[str, ...]
    report: str


@dataclass(frozen=True)
class Workload:
    name: str
    payoff: dict
    grid: dict | None
    mc: dict
    ops: tuple[Op, ...]
    check: Callable[[dict, dict], dict]

    def config(self, seed: int) -> dict:
        doc = copy.deepcopy(AC2)
        doc["payoff"].update(self.payoff)
        if self.grid is not None:
            doc["grid"] = dict(self.grid)
        doc["mc"] = dict(self.mc, seed=MC_SEED_BASE + seed)
        return doc


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _mc(report: dict) -> dict:
    return report["estimates"]["monte_carlo"]


# ---------------------------------------------------------------------------
# checks: each returns {op label: [failure messages]} for the ops it saw
# ---------------------------------------------------------------------------

def check_deferral(reports: dict, ref: dict) -> dict:
    """``compare`` on AC-2 against the scipy tail price.

    A tolerance breach exits 4, so the runner counts it as a failed call
    and these checks never see its report.
    """
    if "compare" not in reports:
        return {}
    rep = reports["compare"]
    est = rep["estimates"]
    tail = ref["tail_price"]
    # the MC step pays at left endpoints of its steps; its exact mean is
    # tail_price_on_steps, so that gap is allowed on top of the noise
    step_bias = abs(tail - ref["tail_price_on_steps"])
    fails = []
    cf = est["closed_form"]["value"]
    if not abs(cf - tail) <= 1e-8 * tail:
        fails.append(f"closed form {cf!r} is not within 1e-8 relative of the reference {tail!r}")
    mc = est["monte_carlo"]
    if not abs(mc["value"] - tail) <= Z * mc["stderr"] + step_bias:
        fails.append(f"monte carlo {mc['value']!r} +- {mc['stderr']!r} is more than "
                     f"{Z:g} stderr + {step_bias:.3g} from the reference {tail!r}")
    hjb = est["hjb"]["value"]
    if not abs(hjb - tail) <= REL * tail:
        fails.append(f"hjb {hjb!r} is not within {REL:.0%} of the reference {tail!r}")
    return {"compare": fails}


def check_cap(reports: dict, ref: dict) -> dict:
    """``price-hjb`` and ``price-mc --policy hjb`` on the capped contract."""
    out = {}
    hjb = reports.get("price-hjb", {}).get("estimates", {}).get("hjb")
    if hjb is not None:
        ceiling = min(CAP, ref["tail_price"])
        prices = [r["value"] for r in hjb["ladder"]] + [hjb["value"]]
        out["price-hjb"] = [f"hjb price {p!r} is above min(8, tail price) = {ceiling!r}"
                            for p in prices if not p <= ceiling]
    if "price-mc-hjb" in reports:
        mc = _mc(reports["price-mc-hjb"])
        fails = []
        if not str(mc["meta"]["policy"]).startswith("hjb"):
            fails.append(f"priced policy {mc['meta']['policy']!r}, not the extracted one")
        if hjb is not None and not mc["value"] - Z * mc["stderr"] <= hjb["value"] * (1.0 + REL):
            fails.append(f"extracted policy {mc['value']!r} +- {mc['stderr']!r} beats the "
                         f"hjb price {hjb['value']!r} by more than {REL:.0%} + {Z:g} stderr")
        rule = ref["uniform_rule_cap"]
        if not mc["value"] >= rule["value"] - Z * math.hypot(mc["stderr"], rule["stderr"]):
            fails.append(f"extracted policy {mc['value']!r} is below the uniform rule {rule['value']!r}")
        out["price-mc-hjb"] = fails
    return out


def check_normalized(reports: dict, ref: dict) -> dict:
    """``convergence`` and ``price-mc --policy floor`` on the normalized contract."""
    out = {}
    conv = reports.get("convergence")
    if conv is not None:
        bound = ref["lookback_bound"]
        top = conv["extrapolated"] + conv["delta_grid"]
        fails = [f"hjb price {p!r} is above the lookback bound {bound!r}"
                 for p in conv["prices"] + [conv["extrapolated"]] if not p <= bound]
        rule = ref["average_rule_normalized"]
        if not top >= rule["value"] - Z * rule["stderr"] - REL * rule["value"]:
            fails.append(f"extrapolated + delta_grid {top!r} is below the average rule {rule['value']!r}")
        out["convergence"] = fails
    if "price-mc-floor" in reports:
        mc = _mc(reports["price-mc-floor"])
        call = ref["bs_call_T"]
        fails = []
        if mc["meta"]["policy"] != "floor":
            fails.append(f"priced policy {mc['meta']['policy']!r}, not floor")
        if not abs(mc["value"] - call) <= Z * mc["stderr"]:
            fails.append(f"floor policy {mc['value']!r} +- {mc['stderr']!r} is more than "
                         f"{Z:g} stderr from the Black-Scholes call {call!r}")
        if conv is not None and not top >= mc["value"] - Z * mc["stderr"] - REL * mc["value"]:
            fails.append(f"extrapolated + delta_grid {top!r} is below the floor policy {mc['value']!r}")
        out["price-mc-floor"] = fails
    return out


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="deferral_compare",
            payoff={},
            grid=None,
            mc={},
            ops=(Op("compare", ("compare",), "compare.json"),),
            check=check_deferral,
        ),
        Workload(
            name="cap_desk",
            payoff={"g_kind": "cap", "g_cap": CAP},
            grid=None,
            mc=CAP_MC,
            ops=(Op("price-hjb", ("price-hjb",), "report.json"),
                 Op("price-mc-hjb", ("price-mc", "--policy", "hjb"), "report.json")),
            check=check_cap,
        ),
        Workload(
            name="normalized_convergence",
            payoff={"weight_mode": "normalized"},
            grid=NORMALIZED_GRID,
            mc={},
            ops=(Op("convergence", ("convergence",), "convergence.json"),
                 Op("price-mc-floor", ("price-mc", "--policy", "floor"), "report.json")),
            check=check_normalized,
        ),
    )
}


def mc_stderr(reports: dict) -> float | None:
    """The standard error of the job's one Monte Carlo estimate."""
    for rep in reports.values():
        if "monte_carlo" in rep.get("estimates", {}):
            return rep["estimates"]["monte_carlo"]["stderr"]
    return None


def hjb_abs_err(reports: dict, ref: dict) -> float | None:
    """|HJB extrapolated - tail price| on the one workload with an exact reference."""
    if "compare" not in reports:
        return None
    return abs(reports["compare"]["estimates"]["hjb"]["value"] - ref["tail_price"])
