"""The benchmark's span tracer wraps engine functions by name; each name must resolve."""
import importlib
import importlib.util
import warnings
from pathlib import Path

import controlled_options.cli  # noqa: F401  (the tracer finds the modules in sys.modules)
from controlled_options import ControlBounds, MarketParams, PayoffSpec, hjb

_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("bench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _targets():
    named = [target for targets in tracer.FUNCTIONS.values() for target in targets]
    return named + list(tracer.LOCAL_FUNCTIONS.values())


def _module(short):
    return importlib.import_module(f"{tracer.PACKAGE}.{short}")


def test_tracer_wraps_every_named_function_and_puts_it_back():
    targets = _targets()
    missing = [(short, attr) for short, attr in targets if not hasattr(_module(short), attr)]
    assert not missing, f"bench/tracer.py names functions the engine no longer has: {missing}"
    solvers = list(hjb._SOLVERS.values())
    assert len(solvers) == 3 and all(callable(f) for f in solvers)
    assert len({id(f) for f in solvers}) == 3  # each is wrapped once, under its own name
    originals = {target: getattr(_module(target[0]), target[1]) for target in targets}
    saved_solvers = dict(hjb._SOLVERS)
    evaluate = hjb.Policy.evaluate
    t = tracer.Tracer()
    try:
        t.install()
        for (short, attr), original in originals.items():
            assert getattr(_module(short), attr) is not original, (short, attr)
        assert all(hjb._SOLVERS[key] is not f for key, f in saved_solvers.items())
        assert hjb.Policy.evaluate is not evaluate
    finally:
        t.uninstall()
    for (short, attr), original in originals.items():
        assert getattr(_module(short), attr) is original, (short, attr)
    assert hjb._SOLVERS == saved_solvers
    assert hjb.Policy.evaluate is evaluate


def test_tracer_times_every_table_lookup():
    # the hjb policy's lookup runs in its rule, inside the wrapped
    # Policy.evaluate, so mc.policy_s counts it at every step walked
    params = MarketParams(s0=100.0, r=0.0, sigma=0.2, t_horizon=1.0)
    spec = PayoffSpec(f_kind="call", f_strike=100.0, payment_timing="terminal_compounded",
                      g_kind="cap", g_cap=8.0, weight_mode="adapted_fixed_cumulative",
                      bounds=ControlBounds(0.0, 2.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pol = hjb.extract_policy(params, spec, 0.1, {"nx": 9, "ny": 11, "nz": 15, "n_steps": 12})
    n_steps = 20
    t = tracer.Tracer()
    try:
        t.install()
        _module("mc").evaluate_policy(pol, spec, params, n_paths=200, n_steps=n_steps, seed=1)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t.spans, 0)
    assert metrics["mc.policy_calls"] == n_steps  # 100 antithetic rows walk in one chunk
    assert metrics["mc.policy_s"] > 0.0
