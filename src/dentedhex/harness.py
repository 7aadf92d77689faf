"""Deterministic instance generation and suite running.

Suites turn a seed into a fixed list of check tasks, run them (optionally
on a process pool) and emit one JSON line per report plus a summary line.
Task lists and report bytes are independent of the worker count: tasks are
built up front in a fixed order and results are collected in submission
order, so --jobs only changes the wall clock.

Each check task is one row of _CHECKS: a theorems check and a function
that reads its arguments from the task's payload. Each negative control is
one row of _CONTROLS: a theorems check, run on a witness instance once
with its validated prediction and once with a wrong one passed as rhs.
The control report passes when the first passes and the second fails.
"""

from __future__ import annotations

import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
# positions, and engine_corpus's shape bounds besides max_L.
SHUFFLE_MAX_Y, SHUFFLE_MAX_N = 3, 5
CORPUS_BOUNDS = dict(max_y=2, max_u=2, max_d=2, max_b=1)


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
                       max_u: int = 2, max_d: int = 2, max_b: int = 1,
                       min_x: int = 0, min_y: int = 0) -> ValidatedSpec:
    """One valid region spec, uniform-ish over the allowed shapes."""
    while True:
        L, n, union, U, D = _random_dents(rng, max(1, min_x + min_y), max_L,
                                          max_u + max_d)
        if len(U) > max_u or len(D) > max_d:
            continue
        y = rng.randint(min_y, max_y)
        x = L - n - y
        if x < min_x:
            continue
        free = [k for k in range(1, L + 1) if k not in union]
        cap = min(max_b, x - min_x, len(free))
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


def engine_corpus(seed: int = 7, size: int = 300,
                  max_L: int = 8) -> list[ValidatedSpec]:
    """The small-instance corpus for cross-engine validation.

    Deterministic in the seed. Starts from fixed anchors (degenerate
    regions and pure hexagons) and fills up with random dented specs,
    deduplicated, all within max_L and CORPUS_BOUNDS. Raises ValueError when
    10 * size random draws leave it short, as when the bounds admit fewer
    than size distinct specs.
    """
    rng = random.Random(seed)
    specs: list[ValidatedSpec] = []
    seen: set[tuple] = set()

    def push(spec: ValidatedSpec):
        key = (spec.x, spec.y, spec.U, spec.D, spec.B)
        if key not in seen:
            seen.add(key)
            specs.append(spec)

    push(make_spec(0, 0))
    push(make_spec(1, 0))
    push(make_spec(0, 1))
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
                             f"size {size}; raise max_L or lower size")
        push(random_region_spec(rng, max_L=max_L, **CORPUS_BOUNDS))
        draws += 1
    return specs[:size]


# --- suite construction ------------------------------------------------------

# A task is (kind, payload) with JSON-serializable payloads so the process
# pool can ship it to workers.
Task = tuple[str, dict]


def _inst_from_payload(p: dict) -> ShuffleInstance:
    return ShuffleInstance(p["x"], p["y"], tuple(p["U"]), tuple(p["D"]),
                           tuple(p["U2"]), tuple(p["D2"]), tuple(p["B"]))


def _spec_from_payload(p: dict) -> ValidatedSpec:
    return make_spec(p["x"], p["y"], p["U"], p["D"], p["B"])


def _clusters_from_payload(p: Sequence) -> ClusterSpec:
    return ClusterSpec(tuple(tuple(c) for c in p[0]), tuple(p[1]))


def _run_asym(p: dict) -> CheckReport:
    t0 = time.perf_counter()
    c = _clusters_from_payload(p["clusters"])
    c2 = _clusters_from_payload(p["clusters2"])
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
    report = CheckReport(f"asym_{expect}", p, lhs, f"limit={table.limit}",
                         passed, time.perf_counter() - t0)
    return report


def _inst_arg(p: dict) -> tuple:
    return (_inst_from_payload(p),)


def _spec_arg(p: dict) -> tuple:
    return (_spec_from_payload(p),)


def _barrier_args(p: dict) -> tuple:
    return (_inst_from_payload(p), p["barrier_sets"])


# task kind -> (theorems check, by name so it resolves through the module
# when run; its arguments, read from the payload)
_CHECKS: dict[str, tuple[str, Callable[[dict], tuple]]] = {
    "thm1": ("check_thm1", _inst_arg),
    "pair_product": ("check_pair_product", _inst_arg),
    "thm2": ("check_thm2", _inst_arg),
    "thm3": ("check_thm3", _inst_arg),
    "kuo": ("check_kuo", _spec_arg),
    "schur": ("check_schur_sum", _spec_arg),
    "barrier": ("check_barrier_independence", _barrier_args),
}

# task kind -> (theorems check, by name so it resolves through the module
# when run; wrong prediction; report name; labels of the validated and the
# wrong verdict)
_CONTROLS: dict[str, tuple[str, Callable, str, str, str]] = {
    "thm2_pp_control": ("check_thm2", _gen_shuffle_rhs_collapsed_pp,
                        "thm2_collapsed_pp_control", "honest", "collapsed"),
    "thm3_shift_control": ("check_thm3", _q_shuffle_rhs_alt_shift,
                           "thm3_alt_shift_control", "validated shift",
                           "alt shift"),
    "thm3_gap_control": ("check_thm3", _q_shuffle_rhs_integer_gap,
                         "thm3_integer_gap_control", "q-gap factor",
                         "integer gap factor"),
}


def _run_control(kind: str, p: dict) -> CheckReport:
    t0 = time.perf_counter()
    check_name, wrong, name, good_label, bad_label = _CONTROLS[kind]
    check = getattr(theorems, check_name)
    inst = _inst_from_payload(p)
    good = check(inst).passed
    bad = check(inst, rhs=wrong).passed
    return CheckReport(name, inst.to_json_dict(), f"{good_label}: {good}",
                       f"{bad_label}: {bad}", good and not bad,
                       time.perf_counter() - t0)


def run_task(task: Task) -> CheckReport:
    kind, payload = task
    if kind in _CONTROLS:
        return _run_control(kind, payload)
    if kind == "asym":
        return _run_asym(payload)
    check_name, read_args = _CHECKS[kind]
    return getattr(theorems, check_name)(*read_args(payload))


# Witness instances where the negative-control variants demonstrably differ
# from the validated formulas (sizes 2x2 for the box factor, d >= 2 for the
# gap factor, nonzero size normalization for the q-power).
_PP_WITNESS = dict(x=2, y=1, U=[1, 2, 3], D=[4], U2=[1, 2], D2=[3, 4], B=[])
_GAP_WITNESS = dict(x=2, y=1, U=[1, 4], D=[2, 3], U2=[1, 2], D2=[3, 4], B=[])


def _first_payload(insts: Iterable[ShuffleInstance],
                   pred: Callable[[ShuffleInstance], bool],
                   fallback: dict) -> dict:
    for inst in insts:
        if pred(inst):
            return inst.to_json_dict()
    return fallback


def build_suite(name: str, seed: int = 7, max_L: int | None = None,
                count: int | None = None) -> list[Task]:
    """The deterministic task list for one suite."""
    rng = random.Random(f"{seed}:{name}")
    tasks: list[Task] = []
    if name == "thm1":
        L = max_L or 10
        m = count or 100
        for _ in range(m):
            inst = random_shuffle_instance(rng, max_L=L, allow_flips=False)
            tasks.append(("thm1", inst.to_json_dict()))
            tasks.append(("pair_product", inst.to_json_dict()))
    elif name == "thm2":
        L = max_L or 10
        m = count or 100
        insts = [random_shuffle_instance(rng, max_L=L, allow_flips=True,
                                         max_b=2) for _ in range(m)]
        for inst in insts:
            tasks.append(("thm2", inst.to_json_dict()))
        witness = _first_payload(
            insts,
            lambda i: pp(i.sizes[2] * i.sizes[3], i.y, 1)
            != pp(i.sizes[2], i.sizes[3], i.y),
            _PP_WITNESS)
        tasks.append(("thm2_pp_control", witness))
    elif name == "thm3":
        L = max_L or 10
        m = count or 50
        insts = [random_shuffle_instance(rng, max_L=L, allow_flips=True,
                                         max_b=1) for _ in range(m)]
        for inst in insts:
            tasks.append(("thm3", inst.to_json_dict()))
        shift_witness = _first_payload(
            insts, lambda i: _size_normalization(i) != 0, _PP_WITNESS)
        gap_witness = _first_payload(
            insts, lambda i: len(i.D) >= 2, _GAP_WITNESS)
        tasks.append(("thm3_shift_control", shift_witness))
        tasks.append(("thm3_gap_control", gap_witness))
    elif name == "kuo":
        L = max_L or 10
        m = count or 20
        made = 0
        while made < m:
            spec = random_region_spec(rng, max_L=L, max_y=3, max_u=3,
                                      max_d=3, max_b=1, min_x=1, min_y=1)
            if len(spec.B) >= spec.x or len(spec.free) < 2:
                continue
            tasks.append(("kuo", spec.to_json_dict()))
            made += 1
    elif name == "schur":
        m = count or 30
        L = max_L or 8
        for _ in range(m):
            spec = random_region_spec(rng, max_L=L, max_y=2, max_u=2,
                                      max_d=2, max_b=0)
            tasks.append(("schur", spec.to_json_dict()))
    elif name == "barrier":
        demo = DEMO_SPEC_JSON
        # flipped companion: the up dent at 2 becomes a down dent
        inst = dict(x=demo["x"], y=demo["y"], U=demo["U"], D=demo["D"],
                    U2=[4, 5, 8, 11], D2=[2, 4, 9, 11, 12], B=[],
                    barrier_sets=[[], [6], [6, 13]])
        tasks.append(("barrier", inst))
        made = 0
        while made < (count or 2):
            sh = random_shuffle_instance(rng, max_L=max_L or 9,
                                         allow_flips=True, max_b=0)
            free = list(sh.spec_a().free)
            if sh.x < 2 or len(free) < 2:
                continue
            sets = [[], [free[0]], free[:2]]
            payload = dict(sh.to_json_dict(), barrier_sets=sets)
            tasks.append(("barrier", payload))
            made += 1
    elif name == "asym":
        # strict_decay compares the last row with the first, so a table of
        # one row would fail it whatever the counts: build at least two
        n_max = max(2, count or 6)
        decay = dict(clusters=[[["up", "down", "up"], ["down"]], [2]],
                     clusters2=[[["up", "up", "down"], ["down"]], [2]],
                     x=1, y=1, n_max=n_max, expect="strict_decay")
        ident = dict(clusters=[[["up", "down", "up"], ["down"]], [2]],
                     clusters2=[[["up", "down", "up"], ["down"]], [2]],
                     x=1, y=1, n_max=n_max, expect="all_zero")
        centered = dict(clusters=[[[], ["up", "down", "up"], []], [1, 1]],
                        clusters2=[[[], ["up", "up", "down"], []], [1, 1]],
                        x=1, y=1, n_max=n_max, expect="rows_equal_limit")
        tasks.extend([("asym", decay), ("asym", ident), ("asym", centered)])
    else:
        raise ValueError(f"unknown suite {name!r}")
    return tasks


SUITE_NAMES = ("thm1", "thm2", "thm3", "kuo", "schur", "barrier", "asym")


def run_suite(name: str, seed: int = 7, max_L: int | None = None,
              count: int | None = None, jobs: int = 1) -> list[CheckReport]:
    """Build and run one suite (or 'all'); report order is deterministic."""
    names = SUITE_NAMES if name == "all" else (name,)
    tasks: list[Task] = []
    for nm in names:
        tasks.extend(build_suite(nm, seed=seed, max_L=max_L, count=count))
    if jobs <= 1:
        return [run_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
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
