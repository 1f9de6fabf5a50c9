"""Steadiness check: repeat each workload over several seeds and report
each end-to-end metric's spread against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --workloads sweep verify large --seeds 1 2 3 4 5

For each workload and metric it prints the median of the runs, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and the bound.  ``setup_s`` has no spread
limit.  With ``--sets 2`` every seed is run twice, in two consecutive
sets, and the second set's median must not be worse than the first's by
more than the bound.  Exits 1 when a run fails or a limit is missed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads:
        sets = []
        for k in range(args.sets):
            runs = []
            for seed in args.seeds:
                runs.append(run_once(workload, seed, args.seconds))
                print(json.dumps({"workload": workload, "set": k, "seed": seed, **runs[-1]}),
                      flush=True)
            sets.append(runs)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for runs in sets:
                values = [r[name] for r in runs]
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                limited = name != "setup_s"
                if limited and spread > bound:
                    ok = False
                print(f"{workload:7s} {name:12s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                      f"spread {spread:6.3f}  bound {bound:5.2f}  "
                      f"{'-' if not limited else 'ok' if spread <= bound / 3 else 'WIDE' if spread <= bound else 'FAIL'}")
            if len(medians) == 2:
                drift = worse_by(medians[0], medians[1], metric["better"])
                ok = ok and drift <= bound
                print(f"{workload:7s} {name:12s} second set worse by {drift:6.3f} "
                      f"(bound {bound:5.2f})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
