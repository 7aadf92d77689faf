"""Benchmark self-tests: traced work counts repeat exactly, the tracer
restores every binding it patched, and BENCHMARK.json names exactly the
per-layer metrics a traced run reports."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402

from dentedhex import engines, exactnum, formulas, theorems  # noqa: E402


def _first_of_each_kind(tasks: list) -> list:
    firsts = {}
    for task in tasks:
        firsts.setdefault(task[0], task)
    return list(firsts.values())


SLICES = {
    "verify": _first_of_each_kind,  # every check kind once
    "axis": lambda items: items[:2],
    "oracle": lambda items: items[:2],
}


def _traced_counts(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name]
    with Tracer() as tracer:
        items = SLICES[name](wl.setup(seed))
        outputs = [wl.op(item) for item in items]
    for item, out in zip(items, outputs):
        assert wl.check(item, out)[0]
    return {k: v for k, v in tracer.layer_stats().items()
            if not k.endswith(".self_s")}


def test_traced_counts_repeat_exactly():
    counts = {name: _traced_counts(name, 3) for name in SLICES}
    assert counts == {name: _traced_counts(name, 3) for name in SLICES}
    assert counts["verify"]["theorems.asym_table.calls"] == 1
    assert counts["axis"]["engines.qcount_axis.calls"] == 2
    assert counts["axis"]["exactnum.QPoly.__mul__.term_pairs"] > 0
    assert counts["oracle"]["engines.count_brute.calls"] == 2
    assert counts["oracle"]["engines.count_brute.tilings"] > 1000


def test_tracer_restores_every_binding():
    originals = (engines.count_axis, theorems.schur_ones, formulas.schur_ones,
                 vars(exactnum.QPoly)["__mul__"],
                 vars(exactnum.QPoly)["__rmul__"])
    with Tracer():
        assert theorems.schur_ones is engines.schur_ones
        assert theorems.schur_ones is not originals[1]
        assert vars(exactnum.QPoly)["__rmul__"] is not originals[4]
    assert (engines.count_axis, theorems.schur_ones, formulas.schur_ones,
            vars(exactnum.QPoly)["__mul__"],
            vars(exactnum.QPoly)["__rmul__"]) == originals


def test_tail_latency_keeps_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    assert run.tail_latency(values) == (899.0, 0.9)
    value, at = run.tail_latency(values[:50])
    assert value == 39.0 and at == 0.8


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    assert declared == metric_names() + ["trace.overhead_frac"]
