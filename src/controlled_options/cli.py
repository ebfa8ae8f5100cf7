"""Batch front end: pricing runs, convergence sweeps, cross-method comparison.

One JSON config document drives everything; defaults are filled in and
echoed into every report so a report fully describes its own run.
Reports are byte-reproducible for a given config: floats are rounded to
12 significant digits, keys are sorted, and no timestamps are recorded.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 tolerance breach in ``compare``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from .closed_form import tail_strategy_price
from .errors import NumericalFailure, ParameterError, PricingError
from .hjb import VARIANTS, export_csv, extract_policy, ladder_price, refinement_delta, solve
from .market import MarketParams
from .mc import builtin_policies, evaluate_policy
from .payoffs import ControlBounds, PayoffSpec, validate_spec
from .results import METHODS, PriceEstimate

DEFAULT_EPSILONS = (0.2, 0.1, 0.05)
DEFAULT_GRID = {"nx": 41, "ny": 41, "nz": 81, "n_steps": 200}
DEFAULT_MC = {"n_paths": 200_000, "n_steps": 250, "seed": 20240801, "antithetic": True, "policy": "tail"}
DEFAULT_REL_FLOOR = 0.02


@dataclass
class RunConfig:
    """Validated run description; see ``from_dict`` for the JSON schema."""

    params: MarketParams
    spec: PayoffSpec
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    grid: dict = field(default_factory=lambda: dict(DEFAULT_GRID))
    mc: dict = field(default_factory=lambda: dict(DEFAULT_MC))
    methods: tuple[str, ...] = METHODS
    variant: str = "auto"
    rel_floor: float = DEFAULT_REL_FLOOR
    out_dir: str | None = None

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        if not isinstance(doc, dict):
            raise ParameterError("must be a JSON object", field="config")
        m = _section(doc, "market", required=True)
        params = MarketParams(
            s0=_number(m.get("s0", 0.0), "market.s0"), r=_number(m.get("r", -1.0), "market.r"),
            sigma=_number(m.get("sigma", 0.0), "market.sigma"),
            t_horizon=_number(m.get("t_horizon", 0.0), "market.t_horizon"),
        )
        p = _section(doc, "payoff", required=True)
        bounds = ControlBounds(d0=_number(p.get("d0", 0.0), "payoff.d0"),
                               d1=_number(p.get("d1", 0.0), "payoff.d1"))
        spec = PayoffSpec(
            f_kind=p.get("f_kind", "identity"),
            f_strike=_opt_number(p.get("f_strike"), "payoff.f_strike"),
            payment_timing=p.get("payment_timing", "spot"),
            g_kind=p.get("g_kind", "identity"),
            g_strike=_opt_number(p.get("g_strike"), "payoff.g_strike"),
            g_cap=_opt_number(p.get("g_cap"), "payoff.g_cap"),
            weight_mode=p.get("weight_mode", "adapted_fixed_cumulative"),
            bounds=bounds,
        )
        validate_spec(spec, params)
        g = _section(doc, "grid", required=False)
        grid = {key: _count(g.get(key, n), f"grid.{key}") for key, n in DEFAULT_GRID.items()}
        mc = {**DEFAULT_MC, **_section(doc, "mc", required=False)}
        for key in ("n_paths", "n_steps", "seed"):
            mc[key] = _count(mc[key], f"mc.{key}")
        if not isinstance(mc["antithetic"], bool):
            raise ParameterError(f"must be true or false, not {mc['antithetic']!r}", field="mc.antithetic")
        if not isinstance(mc["policy"], str):
            raise ParameterError(f"must be a policy name, not {mc['policy']!r}", field="mc.policy")
        epsilons = doc.get("epsilons", DEFAULT_EPSILONS)
        if not isinstance(epsilons, (list, tuple)):
            raise ParameterError("must be a list of numbers", field="epsilons")
        methods = doc.get("methods", METHODS)
        if not isinstance(methods, (list, tuple)) or any(name not in METHODS for name in methods):
            raise ParameterError(f"must be a list drawn from {METHODS}, not {methods!r}", field="methods")
        variant = doc.get("variant", "auto")
        if variant not in ("auto",) + VARIANTS:
            raise ParameterError(f"must be one of {('auto',) + VARIANTS}, not {variant!r}", field="variant")
        rel_floor = _number(doc.get("rel_floor", DEFAULT_REL_FLOOR), "rel_floor")
        if rel_floor < 0.0:
            raise ParameterError(f"must be >= 0, not {rel_floor!r}", field="rel_floor")
        out_dir = doc.get("out_dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ParameterError(f"must be a directory path, not {out_dir!r}", field="out_dir")
        return RunConfig(
            params=params,
            spec=spec,
            epsilons=tuple(_number(e, "epsilons") for e in epsilons),
            grid=grid,
            mc=mc,
            methods=tuple(methods),
            variant=variant,
            rel_floor=rel_floor,
            out_dir=out_dir,
        )

    def echo(self) -> dict:
        """The config with all defaults made explicit (for reports)."""
        return {
            "market": asdict(self.params),
            "payoff": {
                "f_kind": self.spec.f_kind, "f_strike": self.spec.f_strike,
                "payment_timing": self.spec.payment_timing,
                "g_kind": self.spec.g_kind, "g_strike": self.spec.g_strike,
                "g_cap": self.spec.g_cap, "weight_mode": self.spec.weight_mode,
                "d0": self.spec.bounds.d0, "d1": self.spec.bounds.d1,
                "g_concave": self.spec.g_is_concave,
            },
            "epsilons": list(self.epsilons),
            "grid": dict(self.grid),
            "mc": dict(self.mc),
            "methods": list(self.methods),
            "variant": self.variant,
            "rel_floor": self.rel_floor,
        }


def _section(doc: dict, name: str, required: bool) -> dict:
    value = doc.get(name, None if required else {})
    if not isinstance(value, dict):
        raise ParameterError("missing section" if value is None else "must be a JSON object", field=name)
    return value


def _number(value, where: str) -> float:
    """A finite JSON number as a float; true and false are not numbers here."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ParameterError(f"must be a finite number, not {value!r}", field=where)
    return float(value)


def _opt_number(value, where: str) -> float | None:
    return None if value is None else _number(value, where)


def _count(value, where: str) -> int:
    """A whole number >= 0 (10 or 10.0, not 10.7) as an int."""
    if _number(value, where) != int(value) or value < 0:
        raise ParameterError(f"must be a whole number >= 0, not {value!r}", field=where)
    return int(value)


def _mc_policy(cfg: RunConfig, name: str):
    if name == "hjb":
        return extract_policy(cfg.params, cfg.spec, min(cfg.epsilons), cfg.variant, cfg.grid)
    builtins = builtin_policies(cfg.spec, cfg.params)
    for pol in builtins:
        if pol.name == name:
            return pol
    known = [p.name for p in builtins] + ["hjb"]
    raise ParameterError(f"unknown policy {name!r}; known: {known}", field="mc.policy")


def run_price(cfg: RunConfig) -> dict:
    """Run the selected methods and assemble the pricing report."""
    estimates: dict[str, dict] = {}
    if "closed_form" in cfg.methods:
        estimates["closed_form"] = _estimate_dict(tail_strategy_price(cfg.spec, cfg.params))
    if "monte_carlo" in cfg.methods:
        policy = _mc_policy(cfg, cfg.mc["policy"])
        est = evaluate_policy(
            policy, cfg.spec, cfg.params,
            n_paths=cfg.mc["n_paths"], n_steps=cfg.mc["n_steps"],
            seed=cfg.mc["seed"], antithetic=cfg.mc["antithetic"],
        )
        estimates["monte_carlo"] = _estimate_dict(est)
    if "hjb" in cfg.methods:
        est, raw = ladder_price(cfg.params, cfg.spec, epsilons=cfg.epsilons, variant=cfg.variant,
                                grid=cfg.grid)
        block = _estimate_dict(est)
        block["ladder"] = [_estimate_dict(r) for r in raw]
        estimates["hjb"] = block
    return {"config": cfg.echo(), "estimates": estimates}


def run_compare(cfg: RunConfig) -> tuple[dict, bool]:
    """Cross-method table with pairwise gaps in units of combined tolerance.

    Tolerance for a pair = 3 * combined stderr + the discretisation
    allowance of any grid method involved + ``rel_floor`` of the larger
    price.  Monte Carlo prices one fixed policy, a lower bound on the
    optimum, so a pair with ``monte_carlo`` breaches only when the MC
    price exceeds the other by more than the tolerance; other pairs
    breach on the absolute gap.  Returns (report, breach?).
    """
    if len(cfg.methods) < 2:
        raise ParameterError("compare needs at least two methods", field="methods")
    report = run_price(cfg)
    delta_grid = 0.0
    if "hjb" in report["estimates"]:
        finest = PriceEstimate(**report["estimates"]["hjb"]["ladder"][-1])
        delta_grid = refinement_delta(cfg.params, cfg.spec, finest, cfg.grid)
        report["estimates"]["hjb"]["delta_grid"] = delta_grid
    rows = []
    breach = False
    names = sorted(report["estimates"])
    for i, a in enumerate(names):
        for b_name in names[i + 1:]:
            ea, eb = report["estimates"][a], report["estimates"][b_name]
            gap = abs(ea["value"] - eb["value"])
            tol = 3.0 * math.hypot(ea["stderr"], eb["stderr"])
            tol += delta_grid * (("hjb" in (a, b_name)) and 1.0 or 0.0)
            tol += cfg.rel_floor * max(abs(ea["value"]), abs(eb["value"]))
            ratio = gap / tol if tol > 0 else math.inf
            rows.append({"method_a": a, "method_b": b_name, "gap": gap,
                         "tolerance": tol, "gap_over_tolerance": ratio})
            excess = gap
            if "monte_carlo" in (a, b_name):
                mc, other = (ea, eb) if a == "monte_carlo" else (eb, ea)
                excess = mc["value"] - other["value"]
            breach = breach or excess > tol
    report["comparison"] = rows
    report["breach"] = breach
    return report, breach


def run_convergence(cfg: RunConfig) -> dict:
    """Epsilon sweep plus one grid refinement at the finest epsilon."""
    est, raw = ladder_price(cfg.params, cfg.spec, epsilons=cfg.epsilons,
                            variant=cfg.variant, grid=cfg.grid)
    values = [r.value for r in raw]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    ratios = [g0 / g1 if g1 > 0 else math.inf for g0, g1 in zip(gaps, gaps[1:])]
    delta_grid = refinement_delta(cfg.params, cfg.spec, raw[-1], cfg.grid)
    return {
        "config": cfg.echo(),
        "epsilons": [r.meta["epsilon"] for r in raw],
        "prices": values,
        "gaps": gaps,
        "gap_ratios": ratios,
        "extrapolated": est.value,
        "delta_grid": delta_grid,
    }


def run_export(cfg: RunConfig, what: str, epsilon: float, time_index: int, path: str) -> None:
    """Write one slice of the value (``time_index`` in [0, n_steps]) or of
    the extracted policy (in [0, n_steps)) as CSV."""
    n_steps = cfg.grid["n_steps"]
    last = n_steps if what == "value" else n_steps - 1
    if not 0 <= time_index <= last:
        raise ParameterError(f"{time_index} outside [0, {last}] for the {what} on {n_steps} steps",
                             field="time_index")
    if what == "policy":
        pol = extract_policy(cfg.params, cfg.spec, epsilon, cfg.variant, cfg.grid)
        slab = np.where(pol.table[time_index], pol.d1, pol.d0)
        export_csv(pol.grid, cfg.params.t_horizon, time_index, slab, path, "u")
        return
    picked = {}

    def pick(n, slice_n, d1_wins):
        if n == time_index:
            picked["slab"] = slice_n

    vf = solve(cfg.params, cfg.spec, epsilon, cfg.variant, cfg.grid, observe=pick)
    export_csv(vf.grid, cfg.params.t_horizon, time_index, picked["slab"], path, "value")


def _estimate_dict(est: PriceEstimate) -> dict:
    return {"value": est.value, "stderr": est.stderr, "method": est.method, "meta": est.meta}


# ---------------------------------------------------------------------------
# deterministic serialisation
# ---------------------------------------------------------------------------

def _round_floats(obj):
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return _round_floats(obj.tolist())
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_round_floats(report), fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_compare_csv(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,price,stderr\n")
        for name in sorted(report["estimates"]):
            e = report["estimates"][name]
            fh.write(f"{name},{e['value']:.12g},{e['stderr']:.12g}\n")
        fh.write("method_a,method_b,gap,tolerance,gap_over_tolerance\n")
        for row in report["comparison"]:
            fh.write(
                f"{row['method_a']},{row['method_b']},{row['gap']:.12g},"
                f"{row['tolerance']:.12g},{row['gap_over_tolerance']:.12g}\n"
            )


def write_convergence_csv(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epsilon,price,gap,gap_ratio\n")
        eps, prices = report["epsilons"], report["prices"]
        gaps = [""] + [f"{g:.12g}" for g in report["gaps"]]
        ratios = ["", ""] + [f"{r:.12g}" for r in report["gap_ratios"]]
        for i in range(len(eps)):
            fh.write(f"{eps[i]:.12g},{prices[i]:.12g},{gaps[i]},{ratios[i]}\n")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _load_config(path: str, overrides: argparse.Namespace) -> RunConfig:
    """Read the JSON config, lay the command-line overrides over it, and validate."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParameterError(f"cannot read config: {exc}", field="config") from exc
    if not isinstance(doc, dict):
        raise ParameterError("must be a JSON object", field="config")
    given = {key: value for key, value in vars(overrides).items() if value is not None}
    for key in ("out_dir", "epsilons", "methods", "variant"):
        if key in given:
            doc[key] = given[key]
    mc = {key: given[key] for key in ("seed", "policy", "n_paths", "n_steps") if key in given}
    if mc:
        doc["mc"] = {**_section(doc, "mc", required=False), **mc}
    return RunConfig.from_dict(doc)


def _float_list(text: str) -> list[float]:
    return [float(e) for e in text.split(",")]


def _emit(report: dict, cfg: RunConfig, name: str) -> None:
    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        write_report(report, os.path.join(cfg.out_dir, name))
    json.dump(_round_floats(report), sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="controlled-options")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("price-hjb", help="epsilon-ladder grid price")
    common(p)
    p.add_argument("--epsilons", type=_float_list, default=None, help="comma list, e.g. 0.2,0.1,0.05")
    p.add_argument("--variant", default=None)

    p = sub.add_parser("price-mc", help="Monte Carlo policy price")
    common(p)
    p.add_argument("--policy", default=None)
    p.add_argument("--n-paths", type=int, default=None)
    p.add_argument("--n-steps", type=int, default=None)

    p = sub.add_parser("price-closed-form", help="tail-strategy quadrature price")
    common(p)

    p = sub.add_parser("compare", help="cross-method table; exit 4 on tolerance breach")
    common(p)
    p.add_argument("--methods", type=lambda text: text.split(","), default=None,
                   help="comma list of >= 2 methods")
    p.add_argument("--epsilons", type=_float_list, default=None)
    p.add_argument("--variant", default=None)

    p = sub.add_parser("convergence", help="epsilon and grid sweeps")
    common(p)
    p.add_argument("--epsilons", type=_float_list, default=None)
    p.add_argument("--variant", default=None)

    p = sub.add_parser("export-value", help="CSV slice of the value function or policy")
    common(p)
    p.add_argument("--what", choices=["value", "policy"], default="value")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--time-index", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--variant", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args)
        if args.command == "price-hjb":
            cfg.methods = ("hjb",)
            _emit(run_price(cfg), cfg, "report.json")
        elif args.command == "price-mc":
            cfg.methods = ("monte_carlo",)
            _emit(run_price(cfg), cfg, "report.json")
        elif args.command == "price-closed-form":
            cfg.methods = ("closed_form",)
            _emit(run_price(cfg), cfg, "report.json")
        elif args.command == "compare":
            report, breach = run_compare(cfg)
            _emit(report, cfg, "compare.json")
            if cfg.out_dir:
                write_compare_csv(report, os.path.join(cfg.out_dir, "compare.csv"))
            if breach:
                return 4
        elif args.command == "convergence":
            report = run_convergence(cfg)
            _emit(report, cfg, "convergence.json")
            if cfg.out_dir:
                write_convergence_csv(report, os.path.join(cfg.out_dir, "convergence.csv"))
        elif args.command == "export-value":
            eps = args.epsilon if args.epsilon is not None else min(cfg.epsilons)
            run_export(cfg, args.what, eps, args.time_index, args.out)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except PricingError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
