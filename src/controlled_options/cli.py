"""Batch front end: pricing runs, convergence sweeps, cross-method comparison.

One JSON config document drives everything.  ``SCHEMA`` declares each
field once, with its default and its check; a key it does not declare is
refused.  Every report echoes the full config, defaults included, so a
report fully describes its own run.
Reports are byte-reproducible for a given config: floats are rounded to
12 significant digits, keys are sorted, and no timestamps are recorded.
A non-finite float (a gap ratio over a zero gap) is written as null, so
every report is strict JSON.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 tolerance breach in ``compare``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .closed_form import tail_strategy_price
from .errors import NumericalFailure, ParameterError
from .hjb import DESK_EPSILONS, DESK_GRID, export_csv, extract_policy, ladder_price, refinement_delta, solve
from .market import MarketParams
from .mc import builtin_policies, evaluate_policy
from .payoffs import ControlBounds, PayoffSpec, validate_spec
from .results import METHODS, PriceEstimate


# ---------------------------------------------------------------------------
# the config schema
# ---------------------------------------------------------------------------

def _number(value, path: str) -> float:
    """A finite JSON number as a float; true and false are not numbers here."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ParameterError(f"must be a finite number, not {value!r}", field=path)
    return float(value)


def _nonnegative(value, path: str) -> float:
    if _number(value, path) < 0.0:
        raise ParameterError(f"must be >= 0, not {value!r}", field=path)
    return float(value)


def _count(value, path: str) -> int:
    """A whole number >= 0 (10 or 10.0, not 10.7) as an int."""
    if _number(value, path) != int(value) or value < 0:
        raise ParameterError(f"must be a whole number >= 0, not {value!r}", field=path)
    return int(value)


def _numbers(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)) or not value:
        raise ParameterError(f"must be a non-empty list of numbers, not {value!r}", field=path)
    return tuple(_number(v, path) for v in value)


def _methods(value, path: str) -> tuple[str, ...]:
    if (not isinstance(value, (list, tuple)) or any(name not in METHODS for name in value)
            or len(set(value)) < len(value)):
        raise ParameterError(f"must be a list drawn from {METHODS} without repeats, not {value!r}",
                             field=path)
    return tuple(value)


def _flag(value, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParameterError(f"must be true or false, not {value!r}", field=path)
    return value


def _text(value, path: str) -> str:
    if not isinstance(value, str):
        raise ParameterError(f"must be a string, not {value!r}", field=path)
    return value


REQUIRED = "required"  # the default of a field that every config must give

# Every config field: dotted path -> (default, reader).  A reader returns
# the field's value from its JSON value, or raises ParameterError naming
# the path; a field whose default is null also takes null.  The ranges of
# market, payoff and grid values are checked where those are built:
# MarketParams, ControlBounds, PayoffSpec, default_grid.
SCHEMA = {
    "market.s0": (REQUIRED, _number),
    "market.r": (REQUIRED, _number),
    "market.sigma": (REQUIRED, _number),
    "market.t_horizon": (REQUIRED, _number),
    "payoff.f_kind": ("identity", _text),
    "payoff.f_strike": (None, _number),
    "payoff.payment_timing": ("spot", _text),
    "payoff.g_kind": ("identity", _text),
    "payoff.g_strike": (None, _number),
    "payoff.g_cap": (None, _number),
    "payoff.weight_mode": ("adapted_fixed_cumulative", _text),
    "payoff.d0": (0.0, _number),
    "payoff.d1": (0.0, _number),
    "epsilons": (DESK_EPSILONS, _numbers),
    **{f"grid.{key}": (count, _count) for key, count in DESK_GRID.items()},
    "mc.n_paths": (200_000, _count),
    "mc.n_steps": (250, _count),
    "mc.seed": (20240801, _count),
    "mc.antithetic": (True, _flag),
    "mc.policy": ("tail", _text),
    "methods": (METHODS, _methods),
    "rel_floor": (0.02, _nonnegative),
    "out_dir": (None, _text),
}
_TOP = sorted({path.partition(".")[0] for path in SCHEMA})
_SECTIONS = {path.partition(".")[0] for path in SCHEMA if "." in path}


def _fields(doc) -> dict:
    """Every schema field, read from ``doc`` or defaulted, in sections as in
    ``doc``; any other key is refused."""
    if not isinstance(doc, dict):
        raise ParameterError("must be a JSON object", field="config")
    given = {}
    for head, value in doc.items():
        if head not in _TOP:
            raise ParameterError(f"unknown field; a config has {_TOP}", field=head)
        if head not in _SECTIONS:
            given[head] = value
            continue
        if not isinstance(value, dict):
            raise ParameterError("must be a JSON object", field=head)
        for key, item in value.items():
            path = f"{head}.{key}"
            if path not in SCHEMA:
                known = [p.partition(".")[2] for p in SCHEMA if p.startswith(head + ".")]
                raise ParameterError(f"unknown field; {head} has {known}", field=path)
            given[path] = item
    fields: dict = {}
    for path, (default, read) in SCHEMA.items():
        value = given.get(path, default)
        if value is REQUIRED:
            raise ParameterError("missing, and it has no default", field=path)
        head, _, key = path.partition(".")
        section = fields.setdefault(head, {}) if key else fields
        section[key or head] = value if value is default else read(value, path)
    return fields


@dataclass
class RunConfig:
    """A validated run description; its fields are the sections of ``SCHEMA``."""

    params: MarketParams
    spec: PayoffSpec
    epsilons: tuple[float, ...]
    grid: dict
    mc: dict
    methods: tuple[str, ...]
    rel_floor: float
    out_dir: str | None

    @staticmethod
    def from_dict(doc: dict) -> "RunConfig":
        fields = _fields(doc)
        params = MarketParams(**fields.pop("market"))
        payoff = fields.pop("payoff")
        bounds = ControlBounds(d0=payoff.pop("d0"), d1=payoff.pop("d1"))
        spec = PayoffSpec(**payoff, bounds=bounds)
        validate_spec(spec, params)
        return RunConfig(params=params, spec=spec, **fields)

    def echo(self) -> dict:
        """Every schema field but ``out_dir``, defaults included: a config that
        reprices to the same report, wherever the report is written."""
        doc = asdict(self)
        del doc["out_dir"]
        doc["market"] = doc.pop("params")
        payoff = doc.pop("spec")
        doc["payoff"] = {**payoff.pop("bounds"), **payoff}
        return {key: list(value) if isinstance(value, tuple) else value for key, value in doc.items()}


def _mc_policy(cfg: RunConfig, name: str):
    if name == "hjb":
        return extract_policy(cfg.params, cfg.spec, min(cfg.epsilons), cfg.grid)
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
        estimates["closed_form"] = asdict(tail_strategy_price(cfg.spec, cfg.params))
    if "monte_carlo" in cfg.methods:
        policy = _mc_policy(cfg, cfg.mc["policy"])
        est = evaluate_policy(
            policy, cfg.spec, cfg.params,
            n_paths=cfg.mc["n_paths"], n_steps=cfg.mc["n_steps"],
            seed=cfg.mc["seed"], antithetic=cfg.mc["antithetic"],
        )
        estimates["monte_carlo"] = asdict(est)
    if "hjb" in cfg.methods:
        est, raw = ladder_price(cfg.params, cfg.spec, epsilons=cfg.epsilons, grid=cfg.grid)
        block = asdict(est)
        block["ladder"] = [asdict(r) for r in raw]
        estimates["hjb"] = block
    return {"config": cfg.echo(), "estimates": estimates}


def run_compare(cfg: RunConfig) -> tuple[dict, bool]:
    """Cross-method table with pairwise gaps in units of combined tolerance.

    Tolerance for a pair = 3 * combined stderr + the discretisation
    allowance of any grid method involved + ``rel_floor`` of the larger
    price; each row reports the three, summed in that order, as
    ``tolerance_terms`` (``stderr``, ``allowance``, ``rel_floor``).  Monte
    Carlo prices one fixed policy, a lower bound on the optimum, so a pair
    with ``monte_carlo`` breaches only when the MC price exceeds the other
    by more than the tolerance; other pairs breach on the absolute gap.
    Returns (report, breach?).
    """
    if len(cfg.methods) < 2:
        raise ParameterError("compare needs at least two methods", field="methods")
    report = run_price(cfg)
    delta_grid = 0.0
    if "hjb" in report["estimates"]:
        finest = PriceEstimate(**report["estimates"]["hjb"]["ladder"][-1])
        delta = refinement_delta(cfg.params, cfg.spec, finest, cfg.grid)
        report["estimates"]["hjb"].update(delta)
        delta_grid = delta["delta_grid"]
    rows = []
    breach = False
    names = sorted(report["estimates"])
    for i, a in enumerate(names):
        for b_name in names[i + 1:]:
            ea, eb = report["estimates"][a], report["estimates"][b_name]
            gap = abs(ea["value"] - eb["value"])
            terms = {"stderr": 3.0 * math.hypot(ea["stderr"], eb["stderr"]),
                     "allowance": delta_grid if "hjb" in (a, b_name) else 0.0,
                     "rel_floor": cfg.rel_floor * max(abs(ea["value"]), abs(eb["value"]))}
            tol = terms["stderr"] + terms["allowance"] + terms["rel_floor"]
            ratio = gap / tol if tol > 0 else math.inf
            rows.append({"method_a": a, "method_b": b_name, "gap": gap, "tolerance": tol,
                         "tolerance_terms": terms, "gap_over_tolerance": ratio})
            excess = gap
            if "monte_carlo" in (a, b_name):
                mc, other = (ea, eb) if a == "monte_carlo" else (eb, ea)
                excess = mc["value"] - other["value"]
            breach = breach or excess > tol
    report["comparison"] = rows
    report["breach"] = breach
    return report, breach


def run_convergence(cfg: RunConfig) -> dict:
    """Epsilon sweep plus one refinement per grid axis at the finest epsilon."""
    est, raw = ladder_price(cfg.params, cfg.spec, epsilons=cfg.epsilons, grid=cfg.grid)
    values = [r.value for r in raw]
    gaps = [abs(b - a) for a, b in zip(values, values[1:])]
    ratios = [g0 / g1 if g1 > 0 else math.inf for g0, g1 in zip(gaps, gaps[1:])]
    return {
        "config": cfg.echo(),
        "epsilons": [r.meta["epsilon"] for r in raw],
        "prices": values,
        "gaps": gaps,
        "gap_ratios": ratios,
        "extrapolated": est.value,
        **refinement_delta(cfg.params, cfg.spec, raw[-1], cfg.grid),
    }


def run_export(cfg: RunConfig, what: str, epsilon: float, time_index: int, path: str) -> None:
    """Write one slice of the value (``time_index`` in [0, n_steps]) or of
    the extracted policy (in [0, n_steps)) as CSV to ``path`` (``--out``)."""
    n_steps = cfg.grid["n_steps"]
    last = n_steps if what == "value" else n_steps - 1
    if not 0 <= time_index <= last:
        raise ParameterError(f"{time_index} outside [0, {last}] for the {what} on {n_steps} steps",
                             field="time_index")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ParameterError(f"no directory to write {path!r} in", field="out")
    d0, d1 = cfg.spec.bounds.d0, cfg.spec.bounds.d1
    picked = {}

    def pick(n, slice_n, d1_wins):
        if n == time_index:
            picked["slab"] = slice_n if what == "value" else np.where(d1_wins, d1, d0)

    vf = solve(cfg.params, cfg.spec, epsilon, cfg.grid, observe=pick)
    with _writing("out"):
        export_csv(vf.grid, cfg.params.t_horizon, time_index, picked["slab"], path,
                   "value" if what == "value" else "u", vf.floor)


# ---------------------------------------------------------------------------
# deterministic serialisation
# ---------------------------------------------------------------------------

def _round_floats(obj):
    if isinstance(obj, (float, np.floating)):
        return float(f"{float(obj):.12g}") if math.isfinite(obj) else None
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


def _dump(report: dict, fh) -> None:
    """``report`` as deterministic JSON, one document and a newline, to ``fh``."""
    json.dump(_round_floats(report), fh, sort_keys=True, indent=2)
    fh.write("\n")


def write_report(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _dump(report, fh)


def _cell(value) -> str:
    """A CSV number; a non-finite one is an empty field, as JSON writes it null."""
    return f"{value:.12g}" if math.isfinite(value) else ""


def write_compare_csv(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,price,stderr\n")
        for name in sorted(report["estimates"]):
            e = report["estimates"][name]
            fh.write(f"{name},{_cell(e['value'])},{_cell(e['stderr'])}\n")
        fh.write("method_a,method_b,gap,tolerance,gap_over_tolerance\n")
        for row in report["comparison"]:
            cells = (_cell(row[k]) for k in ("gap", "tolerance", "gap_over_tolerance"))
            fh.write(f"{row['method_a']},{row['method_b']},{','.join(cells)}\n")


def write_convergence_csv(report: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epsilon,price,gap,gap_ratio\n")
        eps, prices = report["epsilons"], report["prices"]
        gaps = [""] + [_cell(g) for g in report["gaps"]]
        ratios = ["", ""] + [_cell(r) for r in report["gap_ratios"]]
        for i in range(len(eps)):
            fh.write(f"{_cell(eps[i])},{_cell(prices[i])},{gaps[i]},{ratios[i]}\n")


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
    # the parser's destinations are schema paths
    for dest, value in vars(overrides).items():
        if dest in SCHEMA and value is not None and isinstance(doc, dict):
            head, _, key = dest.partition(".")
            if not key:
                doc[head] = value
            elif isinstance(doc.setdefault(head, {}), dict):
                doc[head][key] = value
    return RunConfig.from_dict(doc)


def _float_list(text: str) -> list[float]:
    return [float(e) for e in text.split(",")]


@contextlib.contextmanager
def _writing(field: str):
    """Turn a failed write into a ParameterError naming ``field``, the output path's option."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write: {exc}", field=field) from exc


def _emit(report: dict, cfg: RunConfig, name: str, write_csv=None) -> None:
    """Print ``report``; with an ``out_dir``, also write it as ``name`` there,
    and as CSV through ``write_csv(report, path)`` when one is given."""
    if cfg.out_dir:
        with _writing("out_dir"):
            write_report(report, os.path.join(cfg.out_dir, name))
            if write_csv is not None:
                write_csv(report, os.path.join(cfg.out_dir, name.replace(".json", ".csv")))
    _dump(report, sys.stdout)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="controlled-options")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--seed", dest="mc.seed", type=int, default=None)

    p = sub.add_parser("price-hjb", help="epsilon-ladder grid price")
    common(p)
    p.add_argument("--epsilons", type=_float_list, default=None, help="comma list, e.g. 0.2,0.1,0.05")

    p = sub.add_parser("price-mc", help="Monte Carlo policy price")
    common(p)
    p.add_argument("--policy", dest="mc.policy", default=None)
    p.add_argument("--n-paths", dest="mc.n_paths", type=int, default=None)
    p.add_argument("--n-steps", dest="mc.n_steps", type=int, default=None)

    p = sub.add_parser("price-closed-form", help="tail-strategy quadrature price")
    common(p)

    p = sub.add_parser("compare", help="cross-method table; exit 4 on tolerance breach")
    common(p)
    p.add_argument("--methods", type=lambda text: text.split(","), default=None,
                   help="comma list of >= 2 methods")
    p.add_argument("--epsilons", type=_float_list, default=None)

    p = sub.add_parser("convergence", help="epsilon and grid sweeps")
    common(p)
    p.add_argument("--epsilons", type=_float_list, default=None)

    p = sub.add_parser("export-value", help="CSV slice of the value function or policy")
    common(p)
    p.add_argument("--what", choices=["value", "policy"], default="value")
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--time-index", type=int, default=0)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    priced = {"price-hjb": "hjb", "price-mc": "monte_carlo", "price-closed-form": "closed_form"}
    try:
        cfg = _load_config(args.config, args)
        if cfg.out_dir:  # before any pricing, so that a bad path costs no work
            with _writing("out_dir"):
                os.makedirs(cfg.out_dir, exist_ok=True)
        if args.command in priced:
            cfg.methods = (priced[args.command],)
            _emit(run_price(cfg), cfg, "report.json")
        elif args.command == "compare":
            report, breach = run_compare(cfg)
            _emit(report, cfg, "compare.json", write_compare_csv)
            if breach:
                return 4
        elif args.command == "convergence":
            _emit(run_convergence(cfg), cfg, "convergence.json", write_convergence_csv)
        elif args.command == "export-value":
            eps = args.epsilon if args.epsilon is not None else min(cfg.epsilons)
            run_export(cfg, args.what, eps, args.time_index, args.out)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
