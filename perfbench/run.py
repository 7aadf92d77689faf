#!/usr/bin/env python3
"""Benchmark command for dentedhex.

    python3 perfbench/run.py --workload verify|axis|oracle|all --seed N \
        --seconds S --trace 0|1

A workload is a fixed list of inputs made from the seed. A round runs
every input once, in order, in a fresh process: one client, a closed loop
(an op starts when the previous one has returned), jobs=1, the library
called in-process from ./src. Rounds run one after another until --seconds
have passed, so nothing one round caches reaches the next.

--trace 0 reports the end-to-end metrics with no tracer installed.

Times are taken at reference speed. The machine this was built on is
shared, and its speed drifts by up to a factor of two over minutes. So
every op is timed, and after every REFERENCE_EVERY_S of ops a fixed
pure-Python loop (`reference_work`) is timed too; each op time is scaled
by NOMINAL_REFERENCE_S over the mean of the two loop times around it.
That keeps a slow phase of the machine out of the figures and leaves every
change in the program's own speed in them. The raw wall-clock figures are
printed alongside.

The latency of an input is the median of its scaled times over rounds:
  ops_per_s    inputs per second: their count over the sum of their
               latencies
  op_ms_p50    median input latency
  op_ms_p90    90th-percentile input latency, or the highest percentile
               with at least ten inputs beyond it (printed alongside)
  setup_s      median over rounds of the time from starting the round's
               process to its inputs being ready (interpreter start,
               import, input generation and suite building), scaled by
               the median of three loop times measured right after it
  peak_rss_mb  median over rounds of the round process's peak resident
               memory
The failed fraction is printed, and is failed/attempted in the JSON.

--trace 1 alternates traced and untraced rounds until the time is up. It
reports per-layer calls and work counts, which every traced round must
repeat exactly, self times (at reference speed, median over traced
rounds), and trace.overhead_frac. Spans of the first traced round go to
.bench_out/.

Every output is checked exactly, outside the timed window. Each round
takes a SHA-256 digest over its canonical outputs; all rounds must agree,
and at the seed perfbench/pinned.json names (7, the default) the digest
must equal the one pinned there. The last stdout line is one JSON object.
The exit code is 0 only when every op succeeded and every check and
digest matched.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("verify", "axis", "oracle")
MIN_ROUNDS = 3
NOMINAL_REFERENCE_S = 0.0025
REFERENCE_EVERY_S = 0.05
TAIL_SAMPLES = 10
ROUND_TIMEOUT_S = 170


def _import_workloads():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dentedhex
    if Path(dentedhex.__file__).resolve().parent != src / "dentedhex":
        raise ImportError(f"dentedhex resolved to {dentedhex.__file__}, "
                          f"not the checkout's {src}")
    import workloads
    return workloads


def _digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return "sha256:" + h.hexdigest()


def tail_latency(values: list[float], p: float = 0.9) -> tuple[float, float]:
    """Nearest-rank p-quantile, lowered until TAIL_SAMPLES values lie
    beyond it. Returns (value, percentile actually used)."""
    vals = sorted(values)
    n = len(vals)
    idx = max(0, min(math.ceil(p * n) - 1, n - 1 - TAIL_SAMPLES))
    return vals[idx], (idx + 1) / n


# --- one round, in its own process -------------------------------------------


def reference_work(n: int = 20000) -> int:
    """A fixed pure-Python loop of integer arithmetic and dict stores,
    about NOMINAL_REFERENCE_S long on the machine the benchmark was built
    on. It calls nothing in the library, so no change there moves it."""
    table = {}
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
    return acc


def _reference_s() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def run_round(wl, seed: int, traced: bool, spans: Path | None) -> dict:
    t_start = time.perf_counter()
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        items = wl.setup(seed)
        ready = time.monotonic()  # system-wide, so the parent can compare
        setup_wall = time.perf_counter() - t_start
        first_ref = statistics.median(_reference_s() for _ in range(3))
        ref = first_ref
        latencies, scaled, scales, results = [], [], [], []
        segment = 0.0
        for item in items:
            t0 = time.perf_counter()
            try:
                out, error = wl.op(item), None
            except Exception as exc:  # counted as failed, never aborts
                out, error = None, exc
            latencies.append(time.perf_counter() - t0)
            results.append((out, error))
            segment += latencies[-1]
            if segment >= REFERENCE_EVERY_S or len(results) == len(items):
                prev, ref = ref, _reference_s()
                scales.append(2 * NOMINAL_REFERENCE_S / (prev + ref))
                scaled += [t * scales[-1] for t in latencies[len(scaled):]]
                segment = 0.0

    failed, canonical, first_failure = 0, [], None
    for i, (item, (out, error)) in enumerate(zip(items, results)):
        if error is not None:
            ok, text = False, f"error {type(error).__name__}: {error}"
        else:
            try:
                ok, text = wl.check(item, out)
            except Exception as exc:  # a check that raises is a failed op
                ok, text = False, f"check error {type(exc).__name__}: {exc}"
        if not ok:
            failed += 1
            first_failure = first_failure or f"op {i} failed: {text[:300]}"
        canonical.append(text)
    setup_scale = NOMINAL_REFERENCE_S / first_ref
    report = {
        "ready": ready,
        "setup_scale": setup_scale,
        # set-up plus ops at reference speed: the trace overhead's base
        "work_s": setup_wall * setup_scale + sum(scaled),
        "latency_s": scaled,
        "raw_latency_s": latencies,
        "failed": failed,
        "first_failure": first_failure,
        "digest": _digest(canonical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        scale = statistics.median(scales)
        report["layers"] = {
            k: v * scale if k.endswith(".self_s") else v
            for k, v in tracer.layer_stats().items()}
        if spans is not None:
            tracer.write_spans(spans)
    return report


def _spawn_round(workload: str, seed: int, traced: bool = False,
                 spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--round"]
    if traced:
        cmd.append("--traced")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} round exited with "
                           f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    report = json.loads(proc.stdout.splitlines()[-1])
    report["raw_setup_s"] = report.pop("ready") - t0
    report["setup_s"] = report["raw_setup_s"] * report["setup_scale"]
    return report


# --- aggregation over rounds -------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float):
    t_end = time.monotonic() + seconds
    rounds = []
    while len(rounds) < MIN_ROUNDS or time.monotonic() < t_end:
        rounds.append(_spawn_round(workload, seed))
    per_input = [statistics.median(lat)
                 for lat in zip(*(r["latency_s"] for r in rounds))]
    raw = [statistics.median(lat)
           for lat in zip(*(r["raw_latency_s"] for r in rounds))]
    p90, p90_at = tail_latency(per_input)
    metrics = {
        "ops_per_s": (len(per_input) / sum(per_input), "1/s"),
        "op_ms_p50": (statistics.median(per_input) * 1e3, "ms"),
        "op_ms_p90": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(r["setup_s"] for r in rounds), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds),
                        "MB"),
    }
    beyond = len(per_input) - round(p90_at * len(per_input))
    raw_setup = statistics.median(r["raw_setup_s"] for r in rounds)
    notes = {
        "ops_per_s": f"{len(per_input)} inputs, median of {len(rounds)} "
                     f"rounds each; raw {len(raw) / sum(raw):.6g}",
        "op_ms_p50": f"n={len(per_input)}; "
                     f"raw {statistics.median(raw) * 1e3:.6g}",
        "op_ms_p90": f"percentile {100 * p90_at:.1f}, {beyond} beyond; "
                     f"raw {tail_latency(raw)[0] * 1e3:.6g}",
        "setup_s": f"median of {len(rounds)} rounds; raw {raw_setup:.6g}",
    }
    return metrics, notes, rounds, []


def traced(workload: str, seed: int, seconds: float):
    from tracer import metric_names
    spans = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.tsv"
    spans.parent.mkdir(exist_ok=True)
    t_end = time.monotonic() + seconds
    traced_rounds, plain_rounds = [], []
    while len(plain_rounds) < 2 or time.monotonic() < t_end:
        traced_rounds.append(_spawn_round(
            workload, seed, traced=True,
            spans=None if traced_rounds else spans))
        plain_rounds.append(_spawn_round(workload, seed))
    metrics, problems = {}, []
    for key in metric_names():
        values = [r["layers"][key] for r in traced_rounds]
        if key.endswith(".self_s"):
            metrics[key] = (statistics.median(values), "s")
        else:
            metrics[key] = (values[0], "count")
            if len(set(values)) > 1:
                problems.append(f"traced rounds disagree on {key}: {values}")
    metrics["trace.overhead_frac"] = (
        statistics.median(r["work_s"] for r in traced_rounds)
        / statistics.median(r["work_s"] for r in plain_rounds) - 1, "ratio")
    notes = {"trace.overhead_frac":
             f"{len(traced_rounds)} traced and {len(plain_rounds)} "
             f"untraced rounds; spans in {spans.relative_to(ROOT)}"}
    return metrics, notes, traced_rounds + plain_rounds, problems


def run_workload(args) -> int:
    # also in the parent, so a missing library fails before any round runs
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[args.workload]
    if args.round:
        print(json.dumps(run_round(wl, args.seed, args.traced, args.spans)))
        return 0
    measure = traced if args.trace else end_to_end
    metrics, notes, rounds, problems = measure(wl.name, args.seed,
                                               args.seconds)

    attempted = sum(len(r["latency_s"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems += [r["first_failure"] for r in rounds if r["first_failure"]][:1]
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) > 1:
        problems.append("rounds disagree on the output digest")
    pins = json.loads((HERE / "pinned.json").read_text(encoding="utf-8"))
    pinned = pins["digests"][wl.name] if args.seed == pins["seed"] else None
    if pinned is not None and digests != [pinned]:
        problems.append(f"digest differs from the pinned {pinned}")
    correct = failed == 0 and not problems

    for key, (value, unit) in metrics.items():
        note = notes.get(key)
        print(f"{wl.name} {key} {value:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    print(f"{wl.name} failed_frac {failed / attempted:.6g} "
          f"({failed}/{attempted})")
    print(f"{wl.name} digest {' '.join(digests)} ("
          + ("no pin at this seed" if pinned is None else "pinned seed")
          + ")")
    for problem in problems:
        print(f"{wl.name} FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in turn, with the same seed, seconds and trace."""
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            timeout=900)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one round in this process and print its JSON report
    ap.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spans", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
