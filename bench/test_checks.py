"""Fast tests of the benchmark's own output checks.

    python3 -m pytest -q bench/test_checks.py

Each check must pass the prices a correct engine reports and reject a
deliberately wrong one.  The sample reports carry the fields the checks
read, with values as the engine reports them at the default seed.
"""
import copy
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
from workloads import MC_SEED_BASE, WORKLOADS, hjb_abs_err, load_reference  # noqa: E402

REF = load_reference()


def _mc(value, stderr, policy):
    return {"value": value, "stderr": stderr, "meta": {"policy": policy}}


DEFERRAL = {"compare": {"estimates": {
    "closed_form": {"value": 6.86844947231, "stderr": 0.0},
    "monte_carlo": _mc(6.82955739448, 0.0174692529763, "tail"),
    "hjb": {"value": 6.84114937043, "stderr": 0.0},
}}}
CAP = {
    "price-hjb": {"estimates": {"hjb": {
        "value": 4.08244736129, "ladder": [{"value": 3.47586212944}, {"value": 3.80421770101},
                                           {"value": 3.94333253115}]}}},
    "price-mc-hjb": {"estimates": {"monte_carlo": _mc(4.15042058145, 0.00291816612233, "hjb[adapted]")}},
}
NORMALIZED = {
    "convergence": {"prices": [9.66771438115, 12.1740871049, 13.243034997],
                    "extrapolated": 14.3119828891, "delta_grid": 2.59708},
    "price-mc-floor": {"estimates": {"monte_carlo": _mc(7.938, 0.023, "floor")}},
}
SAMPLES = {"deferral_compare": DEFERRAL, "cap_desk": CAP, "normalized_convergence": NORMALIZED}


def _failures(name, reports):
    return [msg for msgs in WORKLOADS[name].check(reports, REF).values() for msg in msgs]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_correct_reports_pass(name):
    assert _failures(name, SAMPLES[name]) == []


def _moved(name, path, change):
    reports = copy.deepcopy(SAMPLES[name])
    node = reports
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return reports


WRONG = {
    "deferral: closed form off by 1e-6": (
        "deferral_compare", ("compare", "estimates", "closed_form", "value"), lambda v: v * (1 + 1e-6)),
    "deferral: monte carlo off by 6 stderr": (
        "deferral_compare", ("compare", "estimates", "monte_carlo", "value"), lambda v: v - 6 * 0.0175 - 0.01),
    "deferral: hjb moved by 5%": (
        "deferral_compare", ("compare", "estimates", "hjb", "value"), lambda v: v * 1.05),
    "cap: hjb moved down by 5%": (
        "cap_desk", ("price-hjb", "estimates", "hjb", "value"), lambda v: v * 0.95),
    "cap: a rung above the tail price": (
        "cap_desk", ("price-hjb", "estimates", "hjb", "ladder"), lambda v: v[:2] + [{"value": 6.9}]),
    "cap: floor price in place of the extracted one": (
        "cap_desk", ("price-mc-hjb", "estimates", "monte_carlo"), lambda v: _mc(3.0, 0.003, "floor")),
    "cap: extracted policy below the uniform rule": (
        "cap_desk", ("price-mc-hjb", "estimates", "monte_carlo", "value"), lambda v: 3.3),
    "normalized: extrapolated above the lookback bound": (
        "normalized_convergence", ("convergence", "extrapolated"), lambda v: 17.5),
    "normalized: a rung above the lookback bound": (
        "normalized_convergence", ("convergence", "prices"), lambda v: v[:2] + [17.1]),
    "normalized: extrapolated + delta_grid below the average rule": (
        "normalized_convergence", ("convergence", "extrapolated"), lambda v: 7.0),
    "normalized: floor off the Black-Scholes call by 6 stderr": (
        "normalized_convergence", ("price-mc-floor", "estimates", "monte_carlo", "value"),
        lambda v: REF["bs_call_T"] + 6 * 0.023),
    "normalized: another policy priced in place of floor": (
        "normalized_convergence", ("price-mc-floor", "estimates", "monte_carlo", "meta"),
        lambda v: {"policy": "uniform"}),
}


@pytest.mark.parametrize("case", sorted(WRONG))
def test_each_check_rejects_a_wrong_price(case):
    name, path, change = WRONG[case]
    assert _failures(name, _moved(name, path, change)), case


def test_missing_reports_are_not_checked():
    # a call that exited non-zero is counted as failed by the runner; its checks are skipped
    for name in WORKLOADS:
        assert _failures(name, {}) == []


def test_hjb_abs_err_on_deferral():
    assert hjb_abs_err(DEFERRAL, REF) == pytest.approx(0.0273, abs=5e-5)
    assert hjb_abs_err(CAP, REF) is None


def test_stored_quadratures_match_a_fresh_computation():
    for key, fn in (("tail_price", reference.tail_price),
                    ("tail_price_on_steps", reference.tail_price_on_steps),
                    ("bs_call_T", reference.bs_call),
                    ("lookback_bound", reference.lookback_bound)):
        fresh = fn(reference.T) if key == "bs_call_T" else fn()
        assert math.isclose(REF[key], fresh, rel_tol=1e-12), key
    assert REF["tail_price"] == pytest.approx(6.868449472311, rel=1e-12)
    assert REF["lookback_bound"] == pytest.approx(16.984, abs=5e-4)


def test_config_depends_on_seed_only_through_mc_seed():
    for w in WORKLOADS.values():
        a, b = w.config(0), w.config(7)
        assert a["mc"]["seed"] == MC_SEED_BASE and b["mc"]["seed"] == MC_SEED_BASE + 7
        a["mc"], b["mc"] = {}, {}
        assert a == b and w.config(3) == w.config(3)


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "deferral_compare", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no engine source" in done.stderr
