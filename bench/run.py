"""Pricing benchmark: desk jobs run through the engine's CLI, in-process.

    python3 bench/run.py --workload deferral_compare [--seed 0] [--seconds S] [--trace 0]
    python3 bench/run.py --workload all

A run writes the workload's config for ``--seed``, times set-up in fresh
interpreters, then repeats whole jobs (every CLI call of the workload,
one after another) until ``--seconds`` have passed.  Every call's report
is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run cycles through an untraced job, a job with spans and a job
with spans and tracemalloc, and writes its spans to ``bench/out/``.
See bench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = (5, 4)  # fresh-interpreter set-ups before and after the jobs
CHILD_TIMEOUT_S = 60

# what every CLI call pays before pricing: import the package, load and validate the config
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
from controlled_options import cli
with open(sys.argv[2], encoding="utf-8") as fh:
    cli.RunConfig.from_dict(json.load(fh))
print(time.perf_counter() - t0)
"""


def _benchmark() -> dict:
    """BENCHMARK.json: the run length and the names and units of the metrics."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in _benchmark()[kind]}


def _limit_threads() -> None:
    """At most one native thread per usable core; must run before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, n)


def _setup_samples(config_path: Path, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(config_path)],
            cwd=ROOT, env=os.environ, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Job:
    """Runs one workload's CLI calls in this process and checks their reports."""

    def __init__(self, workload, config_path: Path, out_dir: Path, reference: dict):
        from controlled_options import cli
        self.cli = cli
        self.workload = workload
        self.config_path = config_path
        self.out_dir = out_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.exit_failures: list[str] = []
        self.check_failures: list[str] = []
        self.reports: dict = {}

    def run(self) -> float:
        """One round; returns its wall time, CLI calls only (checks excluded)."""
        elapsed = 0.0
        reports = {}
        for op in self.workload.ops:
            op_dir = self.out_dir / op.label
            report_path = op_dir / op.report
            report_path.unlink(missing_ok=True)
            argv = [*op.argv, "--config", str(self.config_path), "--out-dir", str(op_dir)]
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # an engine crash is a failed call, not a benchmark crash
                traceback.print_exc()
                code = 1
            elapsed += time.perf_counter() - t0
            self.attempted += 1
            if code == 0:
                with open(report_path, encoding="utf-8") as fh:
                    reports[op.label] = json.load(fh)
            else:
                self.failed += 1
                self.exit_failures.append(f"{op.label}: exit {code}")
        for label, fails in self.workload.check(reports, self.reference).items():
            if fails:
                self.failed += 1
                self.check_failures.extend(f"{label}: {msg}" for msg in fails)
        self.reports.update(reports)  # the last good report of each call
        return elapsed


def _traced_round(job: Job, tracer, peaks: bool):
    """One round with the tracer installed; returns (job_s, spans, advisories)."""
    tracer.round += 1
    tracer.peaks = peaks
    first = len(tracer.spans)
    tracer.install()
    if peaks:
        tracemalloc.start()
    try:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            job_s = job.run()
    finally:
        if peaks:
            tracemalloc.stop()
        tracer.uninstall()
    advisories = sum("does not resolve" in str(w.message) for w in seen
                     if issubclass(w.category, RuntimeWarning))
    return job_s, tracer.spans[first:], advisories


def _run_rounds(job: Job, seconds: float, traced: bool):
    """Whole cycles of rounds until ``seconds`` have passed.

    Untraced, a cycle is one plain round.  Traced, it is a plain round,
    a round with spans (times and counts) and a round with spans and
    tracemalloc (memory peaks).
    """
    plain, timed, memory = [], [], []
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    start = time.perf_counter()
    while True:
        plain.append(job.run())
        if tracer is not None:
            timed.append(_traced_round(job, tracer, peaks=False))
            memory.append(_traced_round(job, tracer, peaks=True))
        if time.perf_counter() - start >= seconds:
            return plain, timed, memory, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "controlled_options" / "__init__.py").is_file():
        print(f"bench: no engine source at {SRC.relative_to(ROOT)}/controlled_options; "
              "run from a full checkout", file=sys.stderr)
        return 2
    _limit_threads()
    sys.path.insert(0, str(SRC))
    import controlled_options
    if Path(controlled_options.__file__).resolve().parent != SRC / "controlled_options":
        print(f"bench: imported controlled_options from {controlled_options.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, hjb_abs_err, load_reference, mc_stderr

    workload = WORKLOADS[name]
    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / f"config-seed{seed}.json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(seed), fh, indent=2, sort_keys=True)
        fh.write("\n")

    setup = _setup_samples(config_path, SETUP_SAMPLES[0])
    job = Job(workload, config_path, out_dir, load_reference())
    plain, timed, memory, tracer = _run_rounds(job, seconds, trace)
    setup += _setup_samples(config_path, SETUP_SAMPLES[1])

    print(f"{name} seed={seed}: {len(plain)} untraced and {len(timed) + len(memory)} traced jobs; "
          f"job_s per untraced job: {', '.join(f'{t:.3f}' for t in plain)}")
    for problem in dict.fromkeys(job.exit_failures + job.check_failures):
        print(f"FAILED {problem}")
    reports = job.reports
    err = hjb_abs_err(reports, job.reference)
    if err is not None:
        print(f"hjb_abs_err (|hjb - scipy tail price|): {err:.6g}")

    if trace:
        trace_path = out_dir / f"trace-seed{seed}.json"
        tracer.dump(trace_path)
        from tracer import PEAK_METRICS, layer_metrics

        def medians(rounds):
            per_round = [layer_metrics(spans, adv) for _, spans, adv in rounds]
            return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}

        values = medians(timed)
        values.update({key: medians(memory)[key] for key in PEAK_METRICS})
        values["trace.overhead_s"] = (statistics.median(t for t, _, _ in timed)
                                      - statistics.median(plain))
        units = _metric_units("per_layer")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = {"setup_s": statistics.median(setup), "job_s": statistics.median(plain),
                  "peak_rss_mb": _peak_rss_mb()}
        stderr = mc_stderr(reports)
        if stderr is not None:
            values["mc_stderr"] = stderr
        units = _metric_units("end_to_end")
    # a metric left out is one no call measured (no Monte Carlo call succeeded)
    unmeasured = [k for k in units if k not in values]
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
    for key in unmeasured:
        print(f"bench: {key} is unmeasured", file=sys.stderr)
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    # a call that exits non-zero is only failed; one that exits 0 with a wrong price is incorrect
    result = {"correct": not job.check_failures,
              "attempted": job.attempted, "failed": job.failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 1 if unmeasured else 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, check=False,
        )
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Pricing benchmark (see bench/README.md).")
    parser.add_argument("--workload", required=True,
                        help="deferral_compare, cap_desk, normalized_convergence or all")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the config's mc.seed is 20240801 + seed (default 0)")
    parser.add_argument("--seconds", type=float, default=float(_benchmark()["run_seconds"]),
                        help="repeat whole jobs until this much time has passed "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced jobs (default 0)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
