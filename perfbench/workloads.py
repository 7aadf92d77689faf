"""The three benchmark workloads: inputs from a seed, one op, one check.

Each workload is a `Workload` with three parts:

- `setup(seed)` builds the round's inputs from the seed alone (this is
  the work `setup_s` measures);
- `op(item)` is the timed operation, calling the library's public
  functions through their modules so the tracer's patches see every call;
- `check(item, out)` returns `(ok, canonical)`: whether the output is
  exact, and the canonical text the per-workload digest is taken over.
  Checks run outside every timed window and with tracing off.

A round runs every input once, in order, in a fresh process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from dentedhex import engines, formulas, harness, lattice

ROUND_SIZE = 100
# Suites differ a lot from seed to seed: over seeds 1-17 one suite's total
# op time ranged over 2x and its 90th-percentile latency from 1.3 to 3.0 ms.
# A round of 24 suites keeps the seed's share of the figures near 5%.
VERIFY_SUITES = 24


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], list]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], tuple[bool, str]]


# --- verify ------------------------------------------------------------------


def _verify_setup(seed: int) -> list:
    """Every distinct task of `run_suite("all", s)` for the VERIFY_SUITES
    seeds s = seed, seed+1, ..., in run_suite's order. Tasks that do not
    depend on the seed (the asym tables, the demo barrier check) run once,
    so a cache kept across ops cannot turn repeats into lookups."""
    tasks, seen = [], set()
    for s in range(seed, seed + VERIFY_SUITES):
        for name in harness.SUITE_NAMES:
            for task in harness.build_suite(name, seed=s):
                key = json.dumps(task, sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    tasks.append(task)
    return tasks


def _verify_op(task):
    return harness.run_task(task)


def _verify_check(task, report) -> tuple[bool, str]:
    # negative controls report passed=True exactly when the wrong formula
    # was rejected, so every report must pass
    return report.passed, report.json_line()


# --- region generation -------------------------------------------------------

# A shape class is (x, y, barriers, up dents, down dents, shared dents).
# A round cycles through a ten-slot schedule ten times and the seed draws
# only the positions, so seeds differ little in total work. Ordered by
# cost, slots 5-6 and 9-10 hold one pure hexagon each: its cost does not
# depend on the seed, and op_ms_p50 and op_ms_p90 fall on it.

AXIS_SCHEDULE = (
    (4, 4, 1, 1, 1, 0),  # 35 crossing subsets
    (5, 4, 2, 1, 1, 0),  # 35
    (6, 3, 1, 1, 1, 0),  # 56
    (4, 5, 2, 1, 1, 0),  # 21
    (5, 4, 0, 0, 0, 0),  # pure hex(5,4): 126, checked against pp
    (5, 4, 0, 0, 0, 0),
    (5, 4, 1, 1, 1, 0),  # 70
    (6, 4, 2, 1, 2, 0),  # 70, more dents so longer polynomials
    (5, 5, 0, 0, 0, 0),  # pure hex(5,5): 252, checked against pp
    (5, 5, 0, 0, 0, 0),
)

# All within the engines' default 120-triangle brute budget, in classes
# whose tiling counts vary little with the positions.
ORACLE_SCHEDULE = (
    (3, 3, 0, 0, 0, 0),  # pure hex(3,3): 980 tilings
    (5, 2, 0, 0, 1, 0),  # about 1.0e3
    (6, 2, 1, 1, 0, 0),  # 1.4e3
    (6, 2, 1, 0, 1, 0),  # 1.4e3
    (2, 4, 0, 0, 0, 0),  # pure hex(2,4): 1764
    (2, 4, 0, 0, 0, 0),
    (6, 2, 0, 0, 1, 0),  # 2.0e3
    (7, 2, 1, 0, 1, 0),  # 2.8e3
    (4, 3, 0, 0, 0, 0),  # pure hex(4,3): 4116
    (4, 3, 0, 0, 0, 0),
)


def random_spec(rng: random.Random, shape: tuple[int, ...]):
    """One region of the given shape class with seeded dent and barrier
    positions."""
    x, y, nb, nu, nd, both = shape
    n = nu + nd - both
    L = x + y + n
    union = sorted(rng.sample(range(1, L + 1), n))
    order = list(range(n))
    rng.shuffle(order)
    U = sorted(union[i] for i in order[:nu])
    D = sorted(union[i] for i in order[:both] + order[nu:])
    free = [k for k in range(1, L + 1) if k not in union]
    B = sorted(rng.sample(free, nb))
    return lattice.make_spec(x, y, U, D, B)


def _round(seed: int, tag: str, schedule) -> list:
    rng = random.Random(f"{seed}:{tag}")
    return [random_spec(rng, schedule[i % len(schedule)])
            for i in range(ROUND_SIZE)]


def _spec_text(spec) -> str:
    return json.dumps(spec.to_json_dict(), sort_keys=True,
                      separators=(",", ":"))


# --- axis --------------------------------------------------------------------


def _axis_setup(seed: int) -> list:
    return _round(seed, "axis", AXIS_SCHEDULE)


def _axis_op(spec):
    return engines.count_axis(spec), engines.qcount_axis(spec)


def _axis_check(spec, out) -> tuple[bool, str]:
    count, qpoly = out
    ok = qpoly.eval_one() == count
    if not (spec.U or spec.D or spec.B):
        ok = ok and count == formulas.pp(spec.x, spec.y, spec.y)
    return ok, f"{_spec_text(spec)} {count} {qpoly.render()}"


# --- oracle ------------------------------------------------------------------


def _oracle_setup(seed: int) -> list:
    return _round(seed, "oracle", ORACLE_SCHEDULE)


def _oracle_op(spec):
    region = lattice.build_region(spec)
    return engines.count_brute(region), engines.qcount_brute(region)


def _oracle_check(spec, out) -> tuple[bool, str]:
    count, qpoly = out
    ok = (count == engines.count_axis(spec)
          and qpoly == engines.qcount_axis(spec))
    return ok, f"{_spec_text(spec)} {count} {qpoly.render()}"


WORKLOADS = {
    w.name: w for w in (
        Workload("verify", _verify_setup, _verify_op, _verify_check),
        Workload("axis", _axis_setup, _axis_op, _axis_check),
        Workload("oracle", _oracle_setup, _oracle_op, _oracle_check),
    )
}
