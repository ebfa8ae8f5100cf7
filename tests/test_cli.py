import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from controlled_options import ParameterError, cli
from controlled_options.cli import (
    SCHEMA,
    RunConfig,
    build_parser,
    main,
    run_compare,
    run_convergence,
    run_price,
    write_compare_csv,
    write_report,
)
from controlled_options.payoffs import F_KINDS, G_KINDS, TIMINGS, WEIGHT_MODES

BASE_DOC = {
    "market": {"s0": 100.0, "r": 0.0, "sigma": 0.2, "t_horizon": 1.0},
    "payoff": {
        "f_kind": "call", "f_strike": 100.0, "payment_timing": "terminal_compounded",
        "g_kind": "identity", "weight_mode": "adapted_fixed_cumulative",
        "d0": 0.0, "d1": 2.0,
    },
    "epsilons": [0.1, 0.05],
    "grid": {"nx": 15, "ny": 25, "nz": 31, "n_steps": 50},
    "mc": {"n_paths": 20000, "n_steps": 100, "seed": 4242, "antithetic": True, "policy": "tail"},
}


def _doc(**overrides):
    doc = json.loads(json.dumps(BASE_DOC))
    for key, val in overrides.items():
        if isinstance(val, dict):
            doc.setdefault(key, {}).update(val)
        else:
            doc[key] = val
    return doc


def test_config_validation_names_offending_field():
    doc = _doc(payoff={"d0": 2.5, "d1": 2.0})
    with pytest.raises(ParameterError) as err:
        RunConfig.from_dict(doc)
    assert err.value.field == "payoff.d0"
    with pytest.raises(ParameterError) as err:
        RunConfig.from_dict(_doc(market={"sigma": -1.0}))
    assert err.value.field == "market.sigma"
    with pytest.raises(ParameterError) as err:
        RunConfig.from_dict(_doc(methods=["telepathy"]))
    assert err.value.field == "methods"


def test_price_report_all_methods_agree_on_martingale_config(recwarn):
    doc = _doc(payoff={"f_kind": "identity", "f_strike": None, "payment_timing": "spot"})
    cfg = RunConfig.from_dict(doc)
    report = run_price(cfg)
    cf = report["estimates"]["closed_form"]
    mc = report["estimates"]["monte_carlo"]
    hjb = report["estimates"]["hjb"]
    assert cf["value"] == pytest.approx(100.0, rel=1e-9)
    assert abs(mc["value"] - 100.0) <= 3.0 * mc["stderr"]
    assert set(mc["meta"]["control_variate"]) == {"beta", "variance_ratio"}
    assert abs(hjb["value"] - 100.0) <= 2.0
    assert report["config"]["grid"]["nx"] == 15  # defaults echoed back


def test_report_bytes_reproducible(tmp_path):
    cfg1 = RunConfig.from_dict(_doc(methods=["closed_form", "monte_carlo"]))
    cfg2 = RunConfig.from_dict(_doc(methods=["closed_form", "monte_carlo"]))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_report(run_price(cfg1), str(a))
    write_report(run_price(cfg2), str(b))
    assert a.read_bytes() == b.read_bytes()


def test_compare_passes_on_consistent_methods(recwarn):
    cfg = RunConfig.from_dict(_doc(methods=["closed_form", "monte_carlo"]))
    report, breach = run_compare(cfg)
    assert not breach
    assert len(report["comparison"]) == 1
    row = report["comparison"][0]
    assert row["gap"] <= row["tolerance"]


def test_compare_flags_deliberately_coarse_grid(recwarn):
    doc = _doc(methods=["closed_form", "hjb"],
               grid={"nx": 5, "ny": 3, "nz": 3, "n_steps": 2})
    report, breach = run_compare(RunConfig.from_dict(doc))
    assert breach


def test_compare_needs_two_methods():
    cfg = RunConfig.from_dict(_doc(methods=["closed_form"]))
    with pytest.raises(ParameterError):
        run_compare(cfg)


def test_convergence_report_structure(recwarn):
    doc = _doc(epsilons=[0.2, 0.1, 0.05])
    report = run_convergence(RunConfig.from_dict(doc))
    assert len(report["prices"]) == 3
    assert len(report["gaps"]) == 2
    assert len(report["gap_ratios"]) == 1
    assert report["delta_grid"] >= 0.0


def _strict(text):
    """``text`` parsed as JSON that holds no NaN or Infinity token."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_infinite_gap_ratio_is_written_as_null(tmp_path, capsys, monkeypatch, recwarn):
    # the last two rungs priced alike make a zero gap, whose ratio is inf;
    # json.dump wrote it as the token Infinity, which is not JSON
    ladder = cli.ladder_price

    def flat_ladder(*args, **kw):
        est, raw = ladder(*args, **kw)
        return est, raw + [raw[-1]]

    monkeypatch.setattr(cli, "ladder_price", flat_ladder)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(epsilons=[0.2, 0.1], grid={"ny": 9, "nz": 11, "n_steps": 10})))
    out = tmp_path / "out"
    assert main(["convergence", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    for text in (capsys.readouterr().out, (out / "convergence.json").read_text()):
        report = _strict(text)
        assert report["gaps"][-1] == 0.0
        assert report["gap_ratios"] == [None]
    # the CSV of the same run writes the ratio as the JSON does: no number
    last = (out / "convergence.csv").read_text().splitlines()[-1].split(",")
    assert last[-2:] == ["0", ""]


def test_infinite_gap_over_tolerance_is_an_empty_csv_field(tmp_path, capsys, monkeypatch, recwarn):
    # two exact prices that agree, with no relative floor, have a zero
    # tolerance, and gap / tolerance is inf: JSON writes null, CSV nothing
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(rel_floor=0.0)))
    cfg = RunConfig.from_dict(_doc())
    monkeypatch.setattr(cli, "evaluate_policy", lambda *a, **kw: cli.tail_strategy_price(cfg.spec, cfg.params))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg_path), "--methods", "closed_form,monte_carlo",
                 "--out-dir", str(out)]) == 0
    row, = _strict((out / "compare.json").read_text())["comparison"]
    assert row["tolerance"] == 0.0 and row["gap_over_tolerance"] is None
    last = (out / "compare.csv").read_text().splitlines()[-1].split(",")
    assert last == ["closed_form", "monte_carlo", "0", "0", ""]
    capsys.readouterr()


def test_cli_end_to_end(tmp_path, recwarn):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc()))
    out = tmp_path / "out"
    assert main(["price-closed-form", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["estimates"]["closed_form"]["value"] == pytest.approx(6.8684, abs=2e-3)

    assert main(["price-mc", "--config", str(cfg_path), "--n-paths", "10000"]) == 0
    assert main(["price-hjb", "--config", str(cfg_path), "--epsilons", "0.1"]) == 0


def test_module_entry_point_prices_ac2(tmp_path):
    # python -m controlled_options, in a fresh interpreter, as a desk would run it
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc()))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "controlled_options", "price-closed-form",
                          "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "6.868449" in run.stdout


def test_cli_import_loads_no_scipy():
    # scipy is a test-only oracle; the runtime, z-step included, is numpy alone
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, controlled_options.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_doc(payoff={"d0": 3.0})))
    assert main(["price-closed-form", "--config", str(bad)]) == 2

    coarse = tmp_path / "coarse.json"
    coarse.write_text(json.dumps(_doc(methods=["closed_form", "hjb"],
                                      grid={"nx": 5, "ny": 3, "nz": 3, "n_steps": 2})))
    assert main(["compare", "--config", str(coarse)]) == 4

    missing = tmp_path / "nope.json"
    assert main(["price-closed-form", "--config", str(missing)]) == 2


def test_export_value_csv(tmp_path, recwarn):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(epsilons=[0.1])))
    out_csv = tmp_path / "slice.csv"
    assert main(["export-value", "--config", str(cfg_path), "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x,y,z,value"
    assert len(lines) == 1 + 25 * 31  # reduced variant: ny * nz rows
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"

    pol_csv = tmp_path / "policy.csv"
    assert main(["export-value", "--config", str(cfg_path), "--what", "policy",
                 "--out", str(pol_csv)]) == 0
    header = pol_csv.read_text().splitlines()[0]
    assert header == "t,x,y,z,u"
    u_values = {line.split(",")[4] for line in pol_csv.read_text().splitlines()[1:]}
    assert u_values.issubset({"0", "2"})


def test_export_value_writes_the_spent_weight_on_a_floor_contract(tmp_path, recwarn):
    # the grid's y is the excess weight w = y - d0 t on [0, 1 - d0 T]; the
    # y column is the spent weight w + d0 t at the slice's t, to its 12 digits
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(epsilons=[0.1], payoff={"d0": 0.5}, grid={"n_steps": 20})))
    rows = {}
    for index in (0, 10, 20):
        out_csv = tmp_path / f"slice{index}.csv"
        assert main(["export-value", "--config", str(cfg_path), "--time-index", str(index),
                     "--out", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()[1:]
        rows[index] = sorted({float(line.split(",")[2]) for line in lines})
        t = float(lines[0].split(",")[0])
        assert t == pytest.approx(index / 20)
        assert rows[index] == pytest.approx([0.5 * j / 24 + 0.5 * t for j in range(25)], rel=1e-11, abs=1e-15)
    assert rows[0][0] == 0.0 and rows[20][-1] == pytest.approx(1.0)


@pytest.mark.parametrize("d0", [0.5, 0.9375, 0.99, 1.0])
def test_grid_and_closed_form_agree_on_floor_contracts(tmp_path, capsys, recwarn, d0):
    # AC-2 on the desk grid with a floor: the closed form prices d0 before the
    # switch and d1 after, and the grid carries the excess weight.  The closed
    # form used to refuse every d0 > 0; at d0 = 1 the weight is forced
    path = tmp_path / "floor.json"
    doc = {"market": BASE_DOC["market"], "payoff": {**BASE_DOC["payoff"], "d0": d0},
           "methods": ["closed_form", "hjb"]}
    path.write_text(json.dumps(doc))
    assert main(["compare", "--config", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["breach"]


@pytest.mark.parametrize("what,index,code", [
    ("value", 20, 0), ("value", 500, 2), ("value", -1, 2),
    ("policy", 19, 0), ("policy", 20, 2), ("policy", -1, 2),
])
def test_export_time_index_range(tmp_path, capsys, recwarn, what, index, code):
    # value slices run over [0, n_steps], policy steps over [0, n_steps)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(epsilons=[0.1], grid={"n_steps": 20})))
    out_csv = tmp_path / "slice.csv"
    assert main(["export-value", "--config", str(cfg_path), "--what", what,
                 "--time-index", str(index), "--out", str(out_csv)]) == code
    if code == 2:
        assert "configuration error: time_index:" in capsys.readouterr().err
        assert not out_csv.exists()
    else:
        t = 1.0 if what == "value" else 0.95
        assert float(out_csv.read_text().splitlines()[1].split(",")[0]) == pytest.approx(t)


def _refuse_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


def test_out_dir_that_is_a_file_exits_2_before_pricing(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc()))
    taken = tmp_path / "taken"
    taken.write_text("")
    monkeypatch.setattr(cli, "run_price", _refuse_work)
    assert main(["price-closed-form", "--config", str(cfg_path), "--out-dir", str(taken)]) == 2
    assert "configuration error: out_dir:" in capsys.readouterr().err


def test_export_into_missing_directory_exits_2_before_the_solve(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(epsilons=[0.1])))
    monkeypatch.setattr(cli, "solve", _refuse_work)
    assert main(["export-value", "--config", str(cfg_path),
                 "--out", str(tmp_path / "missing" / "slice.csv")]) == 2
    assert "configuration error: out:" in capsys.readouterr().err


def test_failed_writes_exit_2_and_name_the_output(tmp_path, capsys, recwarn):
    # the paths pass the early checks, and the write itself fails
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(_doc(epsilons=[0.1], grid={"n_steps": 10})))
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    assert main(["price-closed-form", "--config", str(cfg_path), "--out-dir", str(out)]) == 2
    assert "configuration error: out_dir: cannot write" in capsys.readouterr().err
    assert main(["export-value", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "configuration error: out: cannot write" in capsys.readouterr().err


def test_compare_csv_layout(tmp_path, recwarn):
    cfg = RunConfig.from_dict(_doc(methods=["closed_form", "monte_carlo"]))
    report, _ = run_compare(cfg)
    path = tmp_path / "cmp.csv"
    write_compare_csv(report, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "method,price,stderr"
    assert "method_a,method_b,gap,tolerance,gap_over_tolerance" in lines


MALFORMED = {
    "d0-string": (_doc(payoff={"d0": "abc"}), "payoff.d0"),
    "payoff-list": (_doc(payoff=[1, 2]), "payoff"),
    "market-string": (_doc(market="x"), "market"),
    "top-level-list": ([1, 2], "config"),
    "nx-string": (_doc(grid={"nx": "many"}), "grid.nx"),
    "epsilons-string": (_doc(epsilons="abc"), "epsilons"),
    "mc-steps-fraction": (_doc(mc={"n_steps": 10.7}), "mc.n_steps"),
    "grid-steps-fraction": (_doc(grid={"n_steps": 50.5}), "grid.n_steps"),
    "sigma-inf": (_doc(market={"sigma": float("inf")}), "market.sigma"),
    "out-dir-number": (_doc(out_dir=5), "out_dir"),
    "antithetic-string": (_doc(mc={"antithetic": "no"}), "mc.antithetic"),
    "rel-floor-negative": (_doc(rel_floor=-1), "rel_floor"),
    "variant-number": (_doc(variant=5), "variant"),
    "policy-number": (_doc(mc={"policy": 5}), "mc.policy"),
    "d1-below-budget": (_doc(payoff={"d1": 0.5}), "payoff.d1"),
    "f-kind-unknown": (_doc(payoff={"f_kind": "digital"}), "payoff.f_kind"),
    "methods-repeated": (_doc(methods=["monte_carlo", "monte_carlo"]), "methods"),
    "epsilons-empty": (_doc(epsilons=[]), "epsilons"),
}


@pytest.mark.parametrize("command", ["price-closed-form", "price-hjb"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_config_exits_2_and_names_field(tmp_path, capsys, command, case):
    doc, field = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path)]) == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("overrides,field", [
    ({"varient": "adapted"}, "varient"),
    ({"market": {"spot": 100.0}}, "market.spot"),
    ({"payoff": {"d2": 1.0}}, "payoff.d2"),
    ({"grid": {"n_x": 9}}, "grid.n_x"),
    ({"mc": {"n_path": 10}}, "mc.n_path"),
    # the misspelt timing left payments at spot time, which r > 0 prices lower
    ({"market": {"r": 0.05}, "payoff": {"payment_timng": "terminal_compounded"}},
     "payoff.payment_timng"),
], ids=["top-level", "market", "payoff", "grid", "mc", "timing-typo"])
def test_unknown_field_exits_2_and_names_its_path(tmp_path, capsys, overrides, field):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(_doc(**overrides)))
    assert main(["price-mc", "--config", str(path)]) == 2
    assert f"configuration error: {field}: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    {}, {"payoff": {"g_kind": "cap", "g_cap": 8.0}}, {"payoff": {"weight_mode": "normalized"}},
    {"methods": ["hjb"], "rel_floor": 0.1, "out_dir": "out"},
], ids=["base", "cap", "normalized", "top-level"])
def test_echo_is_a_config_that_echoes_itself(overrides):
    # a report's config reprices to the same report: echo gives every
    # schema field but where the report is written
    cfg = RunConfig.from_dict(_doc(**overrides))
    echo = cfg.echo()
    assert RunConfig.from_dict(echo).echo() == echo
    flat = {f"{head}.{key}" for head, part in echo.items() if isinstance(part, dict) for key in part}
    flat |= {head for head, part in echo.items() if not isinstance(part, dict)}
    assert flat == set(SCHEMA) - {"out_dir"}


def test_readme_config_example_loads():
    # the README's example config must stay valid under the schema
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = readme.split("## Command line", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    cfg = RunConfig.from_dict(json.loads(example))
    assert cfg.grid == {"nx": 41, "ny": 41, "nz": 81, "n_steps": 200}


_CAP = {"g_kind": "cap", "g_cap": 8.0}
# g = (100 - x)^+: the grid, free to leave budget unspent, priced every rung
# 100.0 and exited 0, where every policy prices at most 6.51 by Monte Carlo
_PUT_G = {"f_kind": "identity", "f_strike": None, "payment_timing": "spot",
          "g_kind": "put", "g_strike": 100.0}
# the same g on the normalized contract priced 31.536 and exited 0, above
# E[(100 - min S)^+], about 14.4
_PUT_G_NORMALIZED = {**_PUT_G, "weight_mode": "normalized"}


@pytest.mark.parametrize("command,overrides,field", [
    (["price-hjb"], {"payoff": _CAP, "grid": {"nx": 0}}, "grid.nx"),
    (["price-hjb"], {"payoff": _CAP, "grid": {"nx": 1}}, "grid.nx"),
    (["price-hjb"], {"payoff": _CAP, "grid": {"nx": 2}}, "grid.nx"),
    (["price-hjb"], {"payoff": _CAP, "grid": {"nz": 0}}, "grid.nz"),
    (["price-hjb"], {"grid": {"ny": 0}}, "grid.ny"),
    (["price-hjb"], {"payoff": {"weight_mode": "normalized", "d1": 0.0}}, "payoff.d1"),
    (["price-hjb"], {"grid": {"n_steps": 0}}, "grid.n_steps"),
    (["price-hjb"], {"epsilons": [0.7]}, "epsilons"),
    (["price-hjb"], {"epsilons": [0.0]}, "epsilons"),
    # eps^2 T adds nothing to T (1 - eps): the normalized grid crashed with exit 1
    (["price-hjb"], {"payoff": {"weight_mode": "normalized"}, "epsilons": [1e-170]}, "epsilons"),
    (["price-mc"], {"mc": {"n_paths": 1}}, "mc.n_paths"),
    (["price-mc"], {"mc": {"n_steps": 0}}, "mc.n_steps"),
    (["price-closed-form"], {"payoff": {"weight_mode": "normalized"}}, "payoff.weight_mode"),
    (["compare"], {"payoff": {"weight_mode": "normalized"}}, "payoff.weight_mode"),
    # one method twice left compare no pair to gate, and it exited 0; the
    # hjb policy and export-value took min() of the empty ladder
    (["compare", "--methods", "monte_carlo,monte_carlo"], {}, "methods"),
    (["price-mc", "--policy", "hjb"], {"epsilons": []}, "epsilons"),
    (["export-value", "--out", "slice.csv"], {"epsilons": []}, "epsilons"),
    (["price-hjb"], {"payoff": _PUT_G}, "payoff.g_kind"),
    (["price-mc", "--policy", "hjb"], {"payoff": _PUT_G}, "payoff.g_kind"),
    (["price-hjb"], {"payoff": _PUT_G_NORMALIZED}, "payoff.g_kind"),
    (["price-mc", "--policy", "hjb"], {"payoff": _PUT_G_NORMALIZED}, "payoff.g_kind"),
], ids=["cap-nx-0", "cap-nx-1", "cap-nx-2", "cap-nz-0", "ny-0", "normalized-d1-0", "steps-0",
        "epsilon-0.7", "epsilon-0", "epsilon-1e-170", "mc-paths-1", "mc-steps-0", "closed-form-normalized",
        "compare-normalized", "compare-methods-repeated", "mc-hjb-no-epsilons",
        "export-no-epsilons", "hjb-decreasing-g", "mc-hjb-decreasing-g",
        "hjb-normalized-decreasing-g", "mc-hjb-normalized-decreasing-g"])
def test_grid_route_exits_2_and_names_field(tmp_path, capsys, command, overrides, field):
    # fields that only one route reads, so these cases cannot join MALFORMED;
    # the closed form has no formula for the normalized weight, and compare
    # refuses it before any grid is solved
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(_doc(**overrides)))
    assert main([*command, "--config", str(path)]) == 2
    assert f"configuration error: {field}:" in capsys.readouterr().err


_positive = st.floats(1e-3, 300.0)
# d0 > d1 is refused before anything else runs (test_config_validation_names_offending_field),
# so the bounds are drawn as an ordered pair to reach the pricing routes
_fuzz_payoffs = st.tuples(st.fixed_dictionaries({
    "f_kind": st.sampled_from(F_KINDS), "f_strike": _positive,
    "payment_timing": st.sampled_from(TIMINGS),
    "g_kind": st.sampled_from(G_KINDS), "g_strike": _positive, "g_cap": _positive,
    "weight_mode": st.sampled_from(WEIGHT_MODES),
}), st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2).map(sorted)).map(
    lambda pair: {**pair[0], "d0": pair[1][0], "d1": pair[1][1]})


def _mostly(valid, wide):
    """``valid`` about 9 draws in 10, so that most examples reach a pricing route; else ``wide``.

    Hypothesis draws the simplest value, 0, far more often than 1 in 10
    (about 3 in 10), so 0 picks ``valid``.
    """
    return st.integers(0, 9).flatmap(lambda k: wide if k == 9 else valid)


def _grid_counts(nx, ny, nz, n_steps):
    return st.fixed_dictionaries({"nx": st.integers(*nx), "ny": st.integers(*ny),
                                  "nz": st.integers(*nz), "n_steps": st.integers(*n_steps)})


def _spendable(doc):
    """The contract with d1 lifted to (1 + d1) / T where a budget could not be spent by T."""
    payoff, t_horizon = doc["payoff"], doc["market"]["t_horizon"]
    if payoff["weight_mode"] != "adapted_fixed_cumulative" or payoff["d1"] * t_horizon >= 1.0:
        return doc
    return {**doc, "payoff": {**payoff, "d1": (1.0 + payoff["d1"]) / t_horizon}}


_fuzz_docs = st.fixed_dictionaries({
    "market": st.fixed_dictionaries({"s0": st.floats(1e-3, 1e4),
                                     "r": _mostly(st.floats(0.0, 0.2), st.floats(-0.05, 0.2)),
                                     "sigma": st.floats(1e-3, 1.5), "t_horizon": st.floats(0.05, 5.0)}),
    "payoff": _fuzz_payoffs,
    "grid": _mostly(_grid_counts((3, 9), (5, 9), (2, 9), (1, 10)),
                    _grid_counts((0, 9), (0, 9), (0, 9), (0, 10))),
    "epsilons": st.lists(st.floats(0.01, 0.5), min_size=1, max_size=2),
    "mc": st.fixed_dictionaries({
        "n_paths": _mostly(st.integers(2, 400), st.integers(0, 400)),
        "n_steps": _mostly(st.integers(1, 10), st.integers(0, 10)), "seed": st.integers(0, 2**31),
        "policy": st.sampled_from(["uniform", "tail", "threshold[+0.0]", "floor", "hjb"]),
    }),
})
# a budget contract is drawn spendable (d1 * T >= 1) about 9 times in 10
_fuzz_configs = _mostly(_fuzz_docs.map(_spendable), _fuzz_docs)


# no explain phase: it traces every line the engine runs, which turns one
# failing example into minutes
@settings(max_examples=40, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(doc=_fuzz_configs)
def test_fuzzed_configs_never_end_in_a_traceback(tmp_path_factory, doc):
    # every input is priced (0), refused naming its field (2) or reported as
    # a numerical failure (3); an uncaught exception would surface here
    path = tmp_path_factory.mktemp("fuzz") / "run.json"
    path.write_text(json.dumps(doc))
    for command in ("price-closed-form", "price-mc", "price-hjb"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", str(path)])
        assert code in (0, 2, 3)
        if code == 2:  # the message names a field by its path in the schema
            named = err.getvalue().removeprefix("configuration error: ").partition(":")[0]
            assert named in SCHEMA, err.getvalue()


def test_zero_width_deferral_window_exits_2(tmp_path, capsys):
    # T - 1/L rounds to T at T = 1e300; the price would integrate to 0.0
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_doc(market={"t_horizon": 1e300})))
    assert main(["price-closed-form", "--config", str(path)]) == 2
    assert "configuration error: market.t_horizon:" in capsys.readouterr().err


@pytest.mark.parametrize("command,payoff", [
    (["price-hjb"], {}),
    (["price-mc", "--policy", "floor"], {"weight_mode": "normalized", "d0": 0.5}),
])
def test_overlong_horizon_exits_2(tmp_path, capsys, command, payoff):
    # S / s0 over +-5 sigma sqrt(T) overflows: the grid priced 0.0 and the
    # floor policy's threshold siblings raised OverflowError
    path = tmp_path / "long.json"
    path.write_text(json.dumps(_doc(market={"t_horizon": 1e300}, payoff=payoff,
                                    grid={"nx": 9, "ny": 9, "nz": 11, "n_steps": 10})))
    assert main([*command, "--config", str(path)]) == 2
    assert "configuration error: market.t_horizon:" in capsys.readouterr().err


def test_overflowing_quadrature_exits_3(tmp_path, capsys):
    # E*[f] near the float ceiling: the quadrature panel overflows to inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(_doc(market={"s0": 1e308})))
    assert main(["price-closed-form", "--config", str(path)]) == 3
    assert "non-finite quadrature panel" in capsys.readouterr().err


def test_compare_gate_is_one_sided_for_monte_carlo(tmp_path, recwarn):
    # capped g = min(x, 8): the tail policy's MC price (about 3.36) is a
    # lower bound, well below the grid optimum (about 4.18); not a breach
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(_doc(payoff={"g_kind": "cap", "g_cap": 8.0})))
    out = tmp_path / "out"
    assert main(["compare", "--config", str(path), "--methods", "monte_carlo,hjb",
                 "--out-dir", str(out)]) == 0
    report = json.loads((out / "compare.json").read_text())
    row, = report["comparison"]
    assert row["gap_over_tolerance"] > 1.0  # the absolute gap is still reported
    assert not report["breach"]
    est = report["estimates"]
    assert est["monte_carlo"]["value"] < est["hjb"]["value"] - row["tolerance"]


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["fabricate"])
