"""Span tracer that wraps the library's public functions from outside.

`Tracer` replaces each function in `TARGETS` by a wrapper that records a
span (name, start, end, parent) and, for two of them, a work count. The
name is replaced wherever the package bound it, so a function that one
module imported from another is traced on both paths (`schur_ones` is
bound in `formulas`, `engines`, `theorems` and the package itself), and a
method is replaced under every alias in its class (`QPoly.__rmul__` is
`QPoly.__mul__`). Leaving the `with` block restores every binding.

Spans stay in memory until `write_spans`. The wrappers add a fixed cost
per call, so end-to-end figures are measured with no tracer installed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

PACKAGE = "dentedhex"

TARGETS = (
    ("harness", "build_suite"),
    ("harness", "run_task"),
    ("theorems", "check_thm1"),
    ("theorems", "check_pair_product"),
    ("theorems", "check_thm2"),
    ("theorems", "check_thm3"),
    ("theorems", "check_kuo"),
    ("theorems", "check_schur_sum"),
    ("theorems", "check_barrier_independence"),
    ("theorems", "asym_table"),
    ("engines", "count_axis"),
    ("engines", "qcount_axis"),
    ("engines", "count_brute"),
    ("engines", "qcount_brute"),
    ("formulas", "schur_ones"),
    ("formulas", "clp_q_dents"),
    ("formulas", "pp"),
    ("formulas", "pp_q"),
    ("formulas", "delta_q"),
    ("formulas", "gen_shuffle_rhs"),
    ("formulas", "q_shuffle_rhs"),
    ("exactnum", "QPoly.__mul__"),
    ("exactnum", "QPoly.__add__"),
    ("exactnum", "QRatio.__eq__"),
    ("exactnum", "one_minus_q_quotient"),
    ("lattice", "make_spec"),
    ("lattice", "build_region"),
)


def _term_pairs(args, result) -> int:
    """len(a) * len(b) for a polynomial product; an int factor is one term."""
    a, b = args
    if result is NotImplemented:
        return 0
    return len(a.items()) * (1 if isinstance(b, int) else len(b.items()))


def _tilings(args, result) -> int:
    return result


# Work counts: span name -> (metric suffix, count from (args, result)).
WORK = {
    "exactnum.QPoly.__mul__": ("term_pairs", _term_pairs),
    "engines.count_brute": ("tilings", _tilings),
}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    out = []
    for module, qualname in TARGETS:
        name = f"{module}.{qualname}"
        out += [f"{name}.calls", f"{name}.self_s"]
        if name in WORK:
            out.append(f"{name}.{WORK[name][0]}")
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.work: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, qualname in TARGETS:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                owners = [owner]
            else:
                original = getattr(module, attr)
                owners = modules
            wrapper = self._wrap(f"{module_name}.{qualname}", original)
            for owner in owners:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                        self._patches.append((owner, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter
        work_key, work_fn = WORK.get(name, (None, None))
        if work_key:
            self.work[name] = 0
        work = self.work

        def wrapper(*args, **kwargs):
            idx = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                span_start[idx] = t0
                span_end[idx] = t1
            if work_fn is not None:
                work[name] += work_fn(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def layer_stats(self) -> dict[str, float | int]:
        """calls, self time and work count per traced name.

        Self time is a span's duration minus the durations of its direct
        child spans; spans nest because the run has one thread.
        """
        covered = [0.0] * len(self.span_start)
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += self.span_end[i] - self.span_start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            self_s[nid] += self.span_end[i] - self.span_start[i] - covered[i]
        out: dict[str, float | int] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.self_s"] = self_s[nid]
            if name in WORK:
                out[f"{name}.{WORK[name][0]}"] = self.work[name]
        return out

    def write_spans(self, path: Path) -> None:
        """One tab-separated line per span: id, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i, nid in enumerate(self.span_name):
                fh.write(f"{i}\t{self.names[nid]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n")
