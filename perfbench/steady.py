#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds and report, per
workload and end-to-end metric, the median, the quartiles and the spread
(inter-quartile distance as a share of the median) next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/steady.py --workloads verify axis oracle \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--json out.json]

Runs are sequential, one process at a time. The spread of setup_s is
printed but not held to its bound: its bound limits drift between
commits, not the scatter inside one set of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stdout}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, steady = {}, True
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds) for seed in args.seeds]
        summary[workload] = {}
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            ok = name == "setup_s" or spread <= bound / 3
            steady = steady and ok
            summary[workload][name] = dict(
                median=med, q1=q1, q3=q3, spread=spread, bound=bound,
                values=values)
            print(f"{workload:7s} {name:12s} median {med:10.4g} "
                  f"q1 {q1:10.4g} q3 {q3:10.4g} spread {spread:7.2%} "
                  f"bound {bound:.0%}" + ("" if ok else "  WIDE"),
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(summary, indent=1) + "\n",
                             encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
