"""Benchmark of the ``bottfano`` command line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

The process is one closed-loop client: it calls ``bottfano.cli.main(argv)``
in process, one call after another, with stdout captured, and never runs
two calls at once.  A pass is the coverage round (see
``workloads.coverage_ops``) followed by the workload's own calls; passes
repeat until the next one would end after ``--seconds``.  Every call's
output is checked after the call, outside its timed interval.

Every workload call is bracketed by a calibration loop, and its time is
scaled to a reference speed (see ``CALIBRATION_ITERATIONS``).  With
``--trace 0`` the last line of stdout holds the end-to-end metrics, taken
from each workload call's median scaled time over the passes.  With ``--trace 1`` untraced and
traced passes alternate and the last line holds the per-layer metrics of
the traced passes (median over passes), plus the tracing overhead; the
spans are written to ``.perfbench-out/<workload>-seed<seed>.spans.tsv.gz``.
The line before the last holds details: the metrics named per command
group, the Python version and the number of usable processors.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

#: Import-time samples, one before each of the first timed passes and
#: the rest after the last; ``setup_s`` is their median.
SETUP_SAMPLES = 11
#: The calibration loop runs before and after every workload call.  On a
#: shared machine the speed of the same code swings by up to 2x, in phases
#: that last from under a second to minutes; dividing by the loop's time
#: at that moment cancels most of it.  CALIBRATION_REF_S is the loop's
#: time at the reference speed, about its uncontended time on the 2-core
#: x86-64 machine, under Python 3.11, where the benchmark was written.
CALIBRATION_ITERATIONS = 1000
CALIBRATION_REF_S = 0.001
#: The largest gap allowed between a root span's duration and the sum of
#: the self times in its tree; float rounding stays far below it.
SPAN_SUM_TOLERANCE_S = 1e-6
#: Traced passes in a ``--trace 1`` run; later passes run untraced, which
#: keeps the spans held in memory bounded.
TRACED_PASSES = 3

#: Per-command metrics printed in the detail line, by workload:
#: name -> (group, statistic).
DETAIL = {
    "sweep": {
        "census_cands_per_s": ("census", "work_per_s"),
        "fano_cands_per_s": ("fano", "work_per_s"),
        "chary_cands_per_s": ("chary", "work_per_s"),
    },
    "verify": {
        "verify_towers_per_s": ("verify", "work_per_s"),
        "verify_p50_ms": ("verify", "p50_ms"),
        "verify_p95_ms": ("verify", "p95_ms"),
    },
    "large": {
        "large_fan_s": ("large_fan", "pass_s"),
        "large_verify_s": ("large_verify", "pass_s"),
    },
}

SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import bottfano.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def setup_samples(count: int) -> list[float]:
    """Times to import ``bottfano.cli``, each in a fresh interpreter and
    scaled to the reference speed like the workload calls."""
    samples = []
    for _ in range(count):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout) * 2 * CALIBRATION_REF_S / (before + calibrate()))
    return samples


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def calibration_loop(iterations: int) -> int:
    """Pure-Python work of the kind the program does (small tuples, min
    and sum, dict updates), using none of the program's code."""
    acc = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(iterations):
        vec = (i % 7 - 3, i % 5 - 2, i % 3 - 1)
        low = min(0, *vec)
        acc += sum(vec) - 4 * low
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + low
    return acc + len(table)


def calibrate() -> float:
    t0 = time.perf_counter()
    calibration_loop(CALIBRATION_ITERATIONS)
    return time.perf_counter() - t0


def medians(passes: list[list[float]]) -> list[float]:
    """Each call's median time over the passes."""
    return [statistics.median(times) for times in zip(*passes)]


class Runner:
    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.errors: list[str] = []

    def call(self, op: workloads.Op, tracer=None) -> float:
        """Run one call, check its output and return its wall time."""
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.install()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = self.cli.main(op.argv)
                except Exception as e:  # a traceback is a failed call, not a crash
                    code = f"exception {e!r}"
                seconds = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        self.attempted += 1
        if code != 0:
            error = f"exit {code}: {err.getvalue().strip()[:200]}"
        else:
            try:
                error = op.check(json.loads(out.getvalue()))
            except (json.JSONDecodeError, KeyError, TypeError) as e:
                error = f"unreadable output: {e!r}"
        if error:
            self.errors.append(f"{op.group} {' '.join(op.argv)}: {error}")
        return seconds

    def run_pass(self, coverage, ops, tracer=None) -> tuple[list[float], list[float]]:
        """Run the coverage calls, then the workload's.  Return the
        workload calls' times at the reference speed, and as measured.

        A time at the reference speed is the measured time scaled by
        CALIBRATION_REF_S over the mean of the calibration times taken
        just before and just after the call."""
        for op in coverage:
            self.call(op, tracer)
        times, cal = [], [calibrate()]
        for op in ops:
            times.append(self.call(op, tracer))
            cal.append(calibrate())
        scaled = [t * 2 * CALIBRATION_REF_S / (a + b) for t, a, b in zip(times, cal, cal[1:])]
        return scaled, times


def group_stats(ops, calls: list[float]) -> dict[str, dict[str, float]]:
    """Per command group, from each call's median time: seconds per pass,
    work per second, and p50 / p95 of single calls."""
    stats = {}
    for group in dict.fromkeys(op.group for op in ops):
        times = [t for op, t in zip(ops, calls) if op.group == group]
        seconds = sum(times)
        stats[group] = {
            "pass_s": seconds,
            "work_per_s": sum(op.work for op in ops if op.group == group) / seconds,
            "p50_ms": 1e3 * statistics.median(times),
            "p95_ms": 1e3 * percentile(times, 95),
        }
    return stats


def run(args) -> tuple[dict, dict]:
    setup = []
    sys.path.insert(0, str(SRC))
    from bottfano import cli

    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    coverage = workloads.coverage_ops(workdir)
    ops = workloads.BUILDERS[args.workload](workdir, args.seed)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    runner = Runner(cli)
    plain: list[list[float]] = []
    measured: list[float] = []
    traced: list[list[float]] = []
    bounds: list[tuple[int, int]] = []
    deadline = time.perf_counter() + args.seconds
    last = 0.0
    while True:
        t0 = time.perf_counter()
        trace_this = (tracer is not None and len(plain) > len(traced)
                      and len(traced) < TRACED_PASSES)
        if trace_this:
            lo = tracer.span_count()
            traced.append(runner.run_pass(coverage, ops, tracer)[0])
            bounds.append((lo, tracer.span_count()))
        else:
            if tracer is None and len(setup) < SETUP_SAMPLES:
                setup += setup_samples(1)
            scaled, times = runner.run_pass(coverage, ops)
            plain.append(scaled)
            measured.append(sum(times))
        last = max(last, time.perf_counter() - t0)
        if (not tracer or traced) and time.perf_counter() + last > deadline:
            break

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "passes": len(plain),
        "measured_median_pass_s": statistics.median(measured),
        "calls_per_pass": len(coverage) + len(ops),
        "errors": runner.errors[:5],
    }
    calls = medians(plain)
    if tracer is None:
        setup += setup_samples(SETUP_SAMPLES - len(setup))
        stats = group_stats(ops, calls)
        detail.update({
            name: stats[group][stat] for name, (group, stat) in DETAIL[args.workload].items()
        })
        detail["fail_ratio"] = len(runner.errors) / runner.attempted
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "pass_s": (sum(calls), "s"),
            "op_p50_ms": (1e3 * statistics.median(calls), "ms"),
            "op_p95_ms": (1e3 * percentile(calls, 95), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics, gap = layer_metrics(tracer, bounds)
        metrics["trace.overhead_s"] = (sum(medians(traced)) - sum(calls), "s")
        detail["traced_passes"] = len(traced)
        detail["span_sum_gap_s"] = gap
        if gap > SPAN_SUM_TOLERANCE_S:
            runner.errors.append(f"span self times miss their root by {gap} s")
        tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz", bounds)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.errors),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return detail, result


def layer_metrics(tracer, bounds) -> tuple[dict, float]:
    """Median over traced passes of each layer's self time, and its calls."""
    from tracing import COUNTED, SPANNED

    per_pass = []
    gap = 0.0
    counters = dict(tracer.counters)
    for lo, hi in bounds:
        seconds, calls, g = tracer.summarize(lo, hi)
        gap = max(gap, g)
        per_pass.append((seconds, calls, tracer.classify_calls_under_enumeration(lo, hi)))
    passes = len(bounds)
    metrics = {}
    for short, attrs in SPANNED.items():
        for attr in attrs:
            name = f"{short}.{attr}"
            metrics[f"{name}.self_s"] = (
                statistics.median(s.get(name, 0.0) for s, _, _ in per_pass), "s")
            metrics[f"{name}.calls"] = (per_pass[0][1].get(name, 0), "count")
    for short, attrs in COUNTED.items():
        for attr in attrs:
            metrics[f"{short}.{attr}.calls"] = (counters.get(f"{short}.{attr}", 0) // passes, "count")
    for name in ("fan.cones_built", "fan.collections_found"):
        metrics[name] = (counters.get(name, 0) // passes, "count")
    candidates = counters.get("enumeration.candidates", 0) // passes
    metrics["enumeration.classified_ratio"] = (per_pass[0][2] / candidates, "ratio")
    return metrics, gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bottfano" / "cli.py").is_file():
        print(f"error: {SRC / 'bottfano'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    detail, result = run(args)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
