"""Deterministic instance generation and suite running.

Suites turn a seed into a fixed list of check tasks, run them (optionally
on a process pool) and emit one JSON line per report plus a summary line.
Task lists and report bytes are independent of the worker count: tasks are
built up front in a fixed order and results are collected in submission
order, so --jobs only changes the wall clock. The pool gets no more
workers than there are tasks and CPUs, and its modules (multiprocessing,
pickle, socket, ...) load only when workers start: imported at module
level, they took importing the CLI from 122 to 159 ms and its peak RSS
from 17.3 to 19.4 MB in every process, --jobs 1 included (medians of 21
fresh processes, Python 3.11, a shared 2-vCPU machine).

Each drawn suite is one row of _SUITES: its default count, a seeded draw,
a payload function that rejects unusable draws, the check kinds run on
each kept draw, its negative controls and any fixed leading tasks.
build_suite runs one loop over a row; asym, three fixed tables of at most
6 rows, fewer at a lower count, comes from _asym_tasks. Each negative
control is one row of _CONTROLS: a theorems check, run on a witness
instance once with its validated prediction and once with a wrong one
passed as rhs, and the witness itself, the first kept draw that satisfies
the row's predicate or else the row's fallback. The control report passes when the first run
passes and the second fails. run_task is one lookup in _RUN, task kind ->
run on the payload. A region payload is ValidatedSpec.to_json_dict(),
read back by lattice.spec_from_json_dict. Nothing here times a task: the
reports hold no clock, and a per-task time would be taken in run_task.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

from .formulas import (ShuffleInstance, _gen_shuffle_rhs_collapsed_pp,
                       _q_shuffle_rhs_alt_shift, _q_shuffle_rhs_integer_gap,
                       _size_normalization, asym_rhs, pp)
from .lattice import ClusterSpec, ValidatedSpec, make_spec, spec_from_json_dict
from . import theorems
from .theorems import CheckReport, asym_table

# The worked example region used throughout the docs and the barrier suite:
# x=4, y=3, up dents {2,4,5,8,11}, down dents {4,9,11,12}, barriers {6,13}.
DEMO_SPEC_JSON = {
    "x": 4, "y": 3,
    "U": [2, 4, 5, 8, 11],
    "D": [4, 9, 11, 12],
    "B": [6, 13],
}


def demo_spec() -> ValidatedSpec:
    return spec_from_json_dict(DEMO_SPEC_JSON)


# --- random instances -------------------------------------------------------

# Bounds no caller varies: random_shuffle_instance's height and occupied
# positions, and engine_corpus's shape bounds.
SHUFFLE_MAX_Y, SHUFFLE_MAX_N = 3, 5
CORPUS_BOUNDS = dict(max_L=8, max_y=2, max_dents=2, max_b=1)
# the 46,006 distinct specs within CORPUS_BOUNDS and the L = 0 anchor
CORPUS_MAX_SIZE = 46_007


def _random_dents(rng: random.Random, min_L: int, max_L: int, max_n: int):
    """A side length L and n <= max_n occupied positions on it, each an up
    dent (40%), a down dent (40%) or both (20%): (L, n, union, U, D)."""
    L = rng.randint(min_L, max_L)
    n = rng.randint(0, min(max_n, L))
    union = sorted(rng.sample(range(1, L + 1), n))
    U, D = [], []
    for p in union:
        r = rng.random()
        if r < 0.4:
            U.append(p)
        elif r < 0.8:
            D.append(p)
        else:
            U.append(p)
            D.append(p)
    return L, n, union, U, D


def random_region_spec(rng: random.Random, max_L: int = 8, max_y: int = 2,
                       max_dents: int = 2, max_b: int = 1,
                       min_xy: int = 0) -> ValidatedSpec:
    """One valid region spec, uniform-ish over the allowed shapes.

    The base length L = x + y + |U union D| is at most max_L, the height y
    at most max_y, and U and D each hold at most max_dents positions. x and
    y are both at least min_xy, and the barriers, at most max_b of them,
    leave x - |B| >= min_xy. Draws outside the bounds are redrawn.
    """
    while True:
        L, n, union, U, D = _random_dents(rng, max(1, 2 * min_xy), max_L,
                                          2 * max_dents)
        if len(U) > max_dents or len(D) > max_dents:
            continue
        y = rng.randint(min_xy, max_y)
        x = L - n - y
        if x < min_xy:
            continue
        free = [k for k in range(1, L + 1) if k not in union]
        cap = min(max_b, x - min_xy, len(free))
        nb = rng.randint(0, cap) if cap > 0 else 0
        B = sorted(rng.sample(free, nb))
        return make_spec(x, y, U, D, B)


def random_shuffle_instance(rng: random.Random, max_L: int = 10,
                            allow_flips: bool = True,
                            max_b: int = 0) -> ShuffleInstance:
    """A valid shuffle instance; flips reassign the symmetric difference."""
    while True:
        L, n, union, U, D = _random_dents(rng, 2, max_L, SHUFFLE_MAX_N)
        y = rng.randint(0, SHUFFLE_MAX_Y)
        x = L - n - y
        if x < 0:
            continue
        inter = sorted(set(U) & set(D))
        sym = [p for p in union if p not in inter]
        U2, D2 = list(inter), list(inter)
        if allow_flips:
            for p in sym:
                (U2 if rng.random() < 0.5 else D2).append(p)
        else:
            ups_needed = len(U) - len(inter)
            chosen = rng.sample(sym, ups_needed)
            U2 += chosen
            D2 += [p for p in sym if p not in chosen]
        free = [k for k in range(1, L + 1) if k not in union]
        nb = rng.randint(0, min(max_b, x, len(free)))
        B = sorted(rng.sample(free, nb))
        return ShuffleInstance(x, y, tuple(sorted(U)), tuple(sorted(D)),
                               tuple(sorted(U2)), tuple(sorted(D2)), tuple(B))


def engine_corpus(seed: int = 7, size: int = 300) -> list[ValidatedSpec]:
    """The small-instance corpus for cross-engine validation.

    Deterministic in the seed. Starts from fixed anchors (degenerate
    regions and pure hexagons) and fills up with random dented specs,
    deduplicated, all within CORPUS_BOUNDS. Raises ValueError at once
    when size exceeds CORPUS_MAX_SIZE, and when 10 * size random draws
    leave it short.
    """
    if size > CORPUS_MAX_SIZE:
        raise ValueError(f"corpus: size {size} exceeds {CORPUS_MAX_SIZE}, "
                         "the number of distinct specs within the corpus "
                         "bounds")
    rng = random.Random(seed)
    specs: list[ValidatedSpec] = []
    seen: set[ValidatedSpec] = set()

    def push(spec: ValidatedSpec):
        if spec not in seen:
            seen.add(spec)
            specs.append(spec)

    push(make_spec(0, 0))
    push(make_spec(1, 0))
    push(make_spec(0, 1))
    max_L = CORPUS_BOUNDS["max_L"]
    for x in range(1, max_L + 1):
        for y in range(1, CORPUS_BOUNDS["max_y"] + 1):
            if x + y <= max_L:
                push(make_spec(x, y))
    max_draws = 10 * size  # the seed-7 size-300 corpus takes 418
    draws = 0
    while len(specs) < size:
        if draws == max_draws:
            raise ValueError(f"corpus: {len(specs)} distinct specs after "
                             f"{draws} draws, {size - len(specs)} short of "
                             f"size {size}; lower size")
        push(random_region_spec(rng, **CORPUS_BOUNDS))
        draws += 1
    return specs[:size]


# --- suite construction ------------------------------------------------------

# A task is (kind, payload) with JSON-serializable payloads so the process
# pool can ship it to workers.
Task = tuple[str, dict]


def _inst_from_payload(p: dict) -> ShuffleInstance:
    return ShuffleInstance(p["x"], p["y"], tuple(p["U"]), tuple(p["D"]),
                           tuple(p["U2"]), tuple(p["D2"]), tuple(p["B"]))


def _run_asym(p: dict) -> CheckReport:
    c = ClusterSpec(*p["clusters"])
    c2 = ClusterSpec(*p["clusters2"])
    table = asym_table(c, c2, p["x"], p["y"], p["n_max"])
    expect = p["expect"]
    devs = [abs(r.deviation) for r in table.rows]
    if expect == "strict_decay":
        passed = devs[-1] < devs[0] and table.limit == asym_rhs(c, c2)
    elif expect == "all_zero":
        passed = all(dv == 0 for dv in devs)
    elif expect == "rows_equal_limit":
        passed = all(r.ratio == table.limit for r in table.rows)
    else:
        raise ValueError(f"unknown expectation {expect!r}")
    lhs = ";".join(f"N={r.N}:{r.ratio}" for r in table.rows)
    return CheckReport(f"asym_{expect}", p, lhs, f"limit={table.limit}",
                       passed)


class _Control(NamedTuple):
    check: str  # theorems check, by name so it resolves when run
    wrong: Callable  # the wrong prediction, passed as rhs
    name: str  # report name
    good_label: str  # label of the validated verdict
    bad_label: str  # label of the wrong verdict
    witness: Callable[[ShuffleInstance], bool]  # where the two differ
    fallback: dict  # the witness when no drawn instance is one


# A witness where both the box factor (sizes 2x2) and the size
# normalization (nonzero) of a wrong prediction differ from the validated one.
_PP_WITNESS = dict(x=2, y=1, U=[1, 2, 3], D=[4], U2=[1, 2], D2=[3, 4], B=[])

_CONTROLS: dict[str, _Control] = {
    "thm2_pp_control": _Control(
        "check_thm2", _gen_shuffle_rhs_collapsed_pp,
        "thm2_collapsed_pp_control", "honest", "collapsed",
        lambda i: pp(i.sizes[2] * i.sizes[3], i.y, 1)
        != pp(i.sizes[2], i.sizes[3], i.y),
        _PP_WITNESS),
    "thm3_shift_control": _Control(
        "check_thm3", _q_shuffle_rhs_alt_shift, "thm3_alt_shift_control",
        "validated shift", "alt shift",
        lambda i: _size_normalization(i) != 0, _PP_WITNESS),
    "thm3_gap_control": _Control(
        "check_thm3", _q_shuffle_rhs_integer_gap, "thm3_integer_gap_control",
        "q-gap factor", "integer gap factor", lambda i: len(i.D) >= 2,
        dict(x=2, y=1, U=[1, 4], D=[2, 3], U2=[1, 2], D2=[3, 4], B=[])),
}


def _run_control(c: _Control, p: dict) -> CheckReport:
    check = getattr(theorems, c.check)
    inst = _inst_from_payload(p)
    good = check(inst).passed
    bad = check(inst, rhs=c.wrong).passed
    return CheckReport(c.name, inst.to_json_dict(), f"{c.good_label}: {good}",
                       f"{c.bad_label}: {bad}", good and not bad)


# task kind -> its run on the payload; each check is looked up in theorems
# when it runs, so a rebound module attribute is seen
_RUN: dict[str, Callable[[dict], CheckReport]] = {
    "thm1": lambda p: theorems.check_thm1(_inst_from_payload(p)),
    "pair_product": lambda p: theorems.check_pair_product(
        _inst_from_payload(p)),
    "thm2": lambda p: theorems.check_thm2(_inst_from_payload(p)),
    "thm3": lambda p: theorems.check_thm3(_inst_from_payload(p)),
    "kuo": lambda p: theorems.check_kuo(spec_from_json_dict(p)),
    "schur": lambda p: theorems.check_schur_sum(spec_from_json_dict(p)),
    "barrier": lambda p: theorems.check_barrier_independence(
        _inst_from_payload(p), p["barrier_sets"]),
    "asym": _run_asym,
    **{kind: partial(_run_control, c) for kind, c in _CONTROLS.items()},
}


def run_task(task: Task) -> CheckReport:
    kind, payload = task
    return _RUN[kind](payload)


class _Suite(NamedTuple):
    count: int  # draws kept when no count is given
    draw: Callable[[random.Random], object]  # one instance or region spec
    payload: Callable[[object], dict | None]  # a draw's payload, None: reject
    kinds: tuple[str, ...]  # one task of each kind per kept draw
    controls: tuple[str, ...] = ()  # _CONTROLS kinds, after the draws
    fixed: tuple[Task, ...] = ()  # tasks ahead of the draws


def _kuo_payload(spec: ValidatedSpec) -> dict | None:
    # the x - 1 regions must still hold the barriers, and alpha != beta
    if len(spec.B) >= spec.x or len(spec.free) < 2:
        return None
    return spec.to_json_dict()


def _barrier_payload(inst: ShuffleInstance) -> dict | None:
    free = list(inst.spec_a.free)
    if inst.x < 2 or len(free) < 2:
        return None
    return dict(inst.to_json_dict(), barrier_sets=[[], [free[0]], free[:2]])


# The demo region's dents against their flip of the up dent at 2 to a down
# dent, under none, one and both of the demo's barriers.
_DEMO_BARRIER = dict(DEMO_SPEC_JSON, B=[], U2=[4, 5, 8, 11],
                     D2=[2, 4, 9, 11, 12], barrier_sets=[[], [6], [6, 13]])

_SUITES: dict[str, _Suite] = {
    "thm1": _Suite(100, partial(random_shuffle_instance, max_L=10,
                                allow_flips=False),
                   ShuffleInstance.to_json_dict, ("thm1", "pair_product")),
    "thm2": _Suite(100, partial(random_shuffle_instance, max_L=10, max_b=2),
                   ShuffleInstance.to_json_dict, ("thm2",),
                   ("thm2_pp_control",)),
    "thm3": _Suite(50, partial(random_shuffle_instance, max_L=10, max_b=1),
                   ShuffleInstance.to_json_dict, ("thm3",),
                   ("thm3_shift_control", "thm3_gap_control")),
    "kuo": _Suite(20, partial(random_region_spec, max_L=10, max_y=3,
                              max_dents=3, max_b=1, min_xy=1),
                  _kuo_payload, ("kuo",)),
    "schur": _Suite(30, partial(random_region_spec, max_L=8, max_y=2,
                                max_dents=2, max_b=0),
                    ValidatedSpec.to_json_dict, ("schur",)),
    "barrier": _Suite(2, partial(random_shuffle_instance, max_L=9, max_b=0),
                      _barrier_payload, ("barrier",),
                      fixed=(("barrier", _DEMO_BARRIER),)),
}


def _asym_tasks(count: int | None) -> list[Task]:
    # strict_decay compares the last row with the first, so a table of
    # one row would fail it whatever the counts: build at least two. Row N
    # counts a hexagon of side about N, and the time grows steeply with N
    # (45 rows took 12.7 s and 60 over 100 s, Python 3.11 on one core of a
    # 2-vCPU machine): a count shortens the tables, never past 6 rows
    n_max = max(2, min(count or 6, 6))
    udu, uud = ["up", "down", "up"], ["up", "up", "down"]
    tables = (([[udu, ["down"]], [2]], [[uud, ["down"]], [2]], "strict_decay"),
              ([[udu, ["down"]], [2]], [[udu, ["down"]], [2]], "all_zero"),
              ([[[], udu, []], [1, 1]], [[[], uud, []], [1, 1]],
               "rows_equal_limit"))
    return [("asym", dict(clusters=c, clusters2=c2, x=1, y=1, n_max=n_max,
                          expect=expect)) for c, c2, expect in tables]


def build_suite(name: str, seed: int = 7,
                count: int | None = None) -> list[Task]:
    """The deterministic task list for one suite: its fixed tasks, a task
    of each check kind per kept draw, then each control on its first
    witness among the kept draws."""
    if name == "asym":
        return _asym_tasks(count)
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    suite = _SUITES[name]
    rng = random.Random(f"{seed}:{name}")
    tasks, kept = list(suite.fixed), []
    while len(kept) < (count or suite.count):
        drawn = suite.draw(rng)
        payload = suite.payload(drawn)
        if payload is not None:
            kept.append(drawn)
            tasks.extend((kind, payload) for kind in suite.kinds)
    for kind in suite.controls:
        c = _CONTROLS[kind]
        tasks.append((kind, next((i.to_json_dict() for i in kept
                                  if c.witness(i)), c.fallback)))
    return tasks


SUITE_NAMES = (*_SUITES, "asym")


def run_suite(name: str, seed: int = 7, count: int | None = None,
              jobs: int = 1) -> list[CheckReport]:
    """Build and run one suite (or 'all'); report order is deterministic."""
    names = SUITE_NAMES if name == "all" else (name,)
    tasks = [t for n in names for t in build_suite(n, seed=seed, count=count)]
    # the pool starts every worker at its first submit: ask for no more
    # workers than there are tasks and CPUs
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [run_task(t) for t in tasks]
    # imported here, not at module level: its 36 modules cost every
    # process 37 ms and 2.1 MB at start (see the module docstring)
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_task, tasks, chunksize=1))


@dataclass(frozen=True)
class SuiteSummary:
    total: int
    failed: int
    first_failure: str | None


def summarize(reports: Sequence[CheckReport]) -> SuiteSummary:
    failed = [r for r in reports if not r.passed]
    return SuiteSummary(len(reports), len(failed),
                        failed[0].json_line() if failed else None)
