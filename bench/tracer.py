"""Span tracer that wraps the engine's public functions at run time.

Nothing in ``src/`` changes: ``Tracer.install`` replaces each target
function in every ``controlled_options`` module namespace (and in the
solver table) by a wrapper that records a span, and ``uninstall`` puts
the originals back.  A span records its name, start, end, parent span
and the job round it belongs to, plus a few counts taken at the
boundary.  Spans stay in memory until ``dump`` writes them out.

``layer_metrics`` turns the spans of one round into the per-layer
metrics.  Self time is a span's duration less that of its child spans.
With ``peaks`` set, the solve and Monte Carlo spans also record their
``tracemalloc`` peak.  tracemalloc slows every allocation (on
``deferral_compare`` it triples the sweeps' time), so the runner takes
peaks from rounds of their own and times from rounds without it.
"""
from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
import tracemalloc
from collections import defaultdict

MB = float(1 << 20)
PACKAGE = "controlled_options"

# span name -> (module, attribute) of the wrapped function
FUNCTIONS = {
    "cli.load": [("cli", "_load_config")],
    "cli.report": [("cli", "write_report"), ("cli", "write_compare_csv"),
                   ("cli", "write_convergence_csv")],
    "smoothing.build": [("smoothing", "build_family")],
    "hjb.grid": [("hjb", "default_grid"), ("hjb", "refine_grid")],
    "hjb.solve": [("hjb", "solve_adapted"), ("hjb", "solve_linear_reduced"),
                  ("hjb", "solve_normalized")],
    "hjb.refine": [("hjb", "refinement_delta")],
    "hjb.extract": [("hjb", "extract_policy")],
    "closed_form.quad": [("closed_form", "tail_strategy_price")],
    "mc.evaluate": [("mc", "evaluate_policy")],
}
# wrapped only where the named module calls them
LOCAL_FUNCTIONS = {
    "closed_form.integrand": ("closed_form", "bs_expected_payoff"),
    "payoffs.eval_f": ("mc", "eval_f"),
    "payoffs.eval_g": ("mc", "eval_g"),
}
PEAK_SPANS = ("hjb.solve", "mc.evaluate")
PEAK_METRICS = ("hjb.peak_mb", "mc.peak_mb")


def _solve_attrs(call, result) -> dict:
    spec, grid = call["spec"], call["grid"]
    controls = 1 if spec.bounds.d0 == spec.bounds.d1 else 2
    return {"node_steps": math.prod(grid.shape) * grid.n_steps * controls,
            "history_bytes": int(result.values.nbytes)}


def _mc_attrs(call, result) -> dict:
    return {"path_steps": int(result.meta["n_paths"]) * int(result.meta["n_steps"]),
            "projection_violations": int(result.meta["forced_ramp_warnings"])}


ATTRS = {"hjb.solve": _solve_attrs, "mc.evaluate": _mc_attrs}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.round = 0
        self.peaks = False
        self._stack: list[dict] = []
        self._undo: list = []
        self._t0 = time.perf_counter()

    # -- wrapping ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        attrs = ATTRS.get(name)
        signature = inspect.signature(fn) if attrs is not None else None
        may_peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            peak = may_peak and self.peaks
            span = {"id": len(spans), "parent": stack[-1]["id"] if stack else None,
                    "name": name, "round": self.round}
            spans.append(span)
            stack.append(span)
            if peak:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if peak:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            if attrs is not None:
                span.update(attrs(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def _module(self, short: str):
        return sys.modules[f"{PACKAGE}.{short}"]

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        solvers = self._module("hjb")._SOLVERS
        for key, value in list(solvers.items()):
            if value is original:
                self._undo.append((solvers.__setitem__, key, value))
                solvers[key] = wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((functools.partial(setattr, owner), attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, targets in FUNCTIONS.items():
            for short, attr in targets:
                original = getattr(self._module(short), attr)
                self._replace_everywhere(original, self._wrap(name, original))
        for name, (short, attr) in LOCAL_FUNCTIONS.items():
            mod = self._module(short)
            self._set(mod, attr, self._wrap(name, getattr(mod, attr)))
        family = self._module("smoothing").SmoothingFamily
        for attr, value in list(vars(family).items()):
            if callable(value) and not attr.startswith("_") and attr != "self_check":
                self._set(family, attr, self._wrap("smoothing.method", value))
        policy = self._module("hjb").Policy
        self._set(policy, "evaluate", self._wrap("mc.policy", policy.evaluate))

    def uninstall(self) -> None:
        while self._undo:
            setter, key, value = self._undo.pop()
            setter(key, value)

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        rows = [dict(s, start=s["start"] - self._t0, end=s["end"] - self._t0) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"time_origin": "tracer creation", "spans": rows}, fh)
            fh.write("\n")


def layer_metrics(spans: list[dict], advisories: int) -> dict:
    """Per-layer metrics from the spans of one job round."""
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        return dur(s) - child_time[s["id"]]

    def parent_name(s):
        return by_id[s["parent"]]["name"] if s["parent"] is not None else None

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(dur(s) for s in named(name))

    solves = named("hjb.solve")
    sweep_s = sum(self_time(s) for s in solves)
    node_steps = sum(s["node_steps"] for s in solves)
    sweep_calls = [s for s in named("smoothing.method") if parent_name(s) == "hjb.solve"]
    evaluations = named("mc.evaluate")
    path_steps = sum(s["path_steps"] for s in evaluations)
    loop_s = sum(self_time(s) for s in evaluations)
    policy_spans = named("mc.policy")
    loop_payoffs = [s for s in named("payoffs.eval_f") + named("payoffs.eval_g")
                    if parent_name(s) == "mc.evaluate"]
    return {
        "cli.load_s": total("cli.load"),
        "cli.report_s": total("cli.report"),
        "smoothing.build_s": total("smoothing.build"),
        "smoothing.eval_s": sum(dur(s) for s in sweep_calls),
        "smoothing.calls": len(sweep_calls),
        "hjb.grid_s": total("hjb.grid"),
        "hjb.sweep_s": sweep_s,
        "hjb.solves": len(solves),
        "hjb.node_steps": node_steps,
        "hjb.ns_per_node_step": 1e9 * sweep_s / node_steps if node_steps else 0.0,
        "hjb.refine_s": total("hjb.refine"),
        "hjb.extract_s": total("hjb.extract"),
        "hjb.history_mb": sum(s["history_bytes"] for s in solves) / MB,
        "hjb.peak_mb": max((s.get("peak_bytes", 0) for s in solves), default=0) / MB,
        "hjb.advisories": advisories,
        "closed_form.quad_s": total("closed_form.quad"),
        "closed_form.integrand_calls": len(named("closed_form.integrand")),
        "mc.eval_s": total("mc.evaluate"),
        "mc.policy_s": sum(self_time(s) for s in policy_spans),
        "mc.policy_calls": len(policy_spans),
        "mc.path_steps": path_steps,
        "mc.ns_per_path_step": 1e9 * loop_s / path_steps if path_steps else 0.0,
        "mc.peak_mb": max((s.get("peak_bytes", 0) for s in evaluations), default=0) / MB,
        "mc.projection_violations": sum(s["projection_violations"] for s in evaluations),
        "payoffs.eval_s": sum(self_time(s) for s in loop_payoffs),
    }
