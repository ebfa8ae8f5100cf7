"""The benchmark's span tracer wraps engine functions by name; each name must resolve."""
import importlib
import importlib.util
from pathlib import Path

import controlled_options.cli  # noqa: F401  (the tracer finds the modules in sys.modules)
from controlled_options import hjb

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
