import concurrent.futures
import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from dentedhex.engines import qcount_axis, qcount_brute
from dentedhex.formulas import (ShuffleInstance, _gen_shuffle_rhs_collapsed_pp,
                                _q_shuffle_rhs_alt_shift,
                                _q_shuffle_rhs_integer_gap, shuffle_rhs)
from dentedhex.harness import (SUITE_NAMES, build_suite, demo_spec,
                               random_region_spec, random_shuffle_instance,
                               run_suite, run_task)
from dentedhex.lattice import ClusterSpec, SpecError, build_region, make_spec
from dentedhex.theorems import (NoDistinctAlphaBeta, asym_table,
                                check_barrier_independence, check_kuo,
                                check_pair_product, check_schur_sum,
                                check_thm1, check_thm2, check_thm3)

IDENT = ShuffleInstance(1, 1, (1, 3), (2,), (1, 3), (2,))
SWAP = ShuffleInstance(1, 1, (1, 3), (2,), (2, 3), (1,))
FLIP = ShuffleInstance(2, 1, (1, 2), (), (1,), (2,))


def test_check_thm1():
    assert check_thm1(IDENT).passed
    r = check_thm1(SWAP)
    assert r.passed and r.rhs == "2"
    # negative control: a corrupted prediction must fail
    assert not check_thm1(SWAP, rhs=lambda i: 2 * shuffle_rhs(i)).passed


def test_check_pair_product():
    assert check_pair_product(IDENT).passed
    assert check_pair_product(SWAP).passed
    flat = ShuffleInstance(2, 0, (1, 3), (2,), (2, 3), (1,))
    assert check_pair_product(flat).passed


def test_check_thm2():
    assert check_thm2(IDENT).passed
    assert check_thm2(FLIP).passed
    demo_flip = ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                                (4, 5, 8, 11), (2, 4, 9, 11, 12), (6, 13))
    assert check_thm2(demo_flip).passed


def test_thm2_collapsed_pp_control_fails_somewhere():
    witness = ShuffleInstance(2, 1, (1, 2, 3), (4,), (1, 2), (3, 4))
    assert check_thm2(witness).passed
    assert not check_thm2(witness, rhs=_gen_shuffle_rhs_collapsed_pp).passed


def test_check_thm2_agrees_with_thm1_on_matching_sizes():
    rng = random.Random(51)
    for _ in range(25):
        inst = random_shuffle_instance(rng, max_L=9, allow_flips=False)
        assert check_thm1(inst).passed
        assert check_thm2(inst).passed


def test_check_barrier_independence():
    inst = ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                           (4, 5, 8, 11), (2, 4, 9, 11, 12), ())
    r = check_barrier_independence(inst, [[], [6], [6, 13]])
    assert r.passed
    same = check_barrier_independence(inst, [[6], [6]])
    assert same.passed


def test_check_barrier_independence_detects_corruption(monkeypatch):
    # harness self-test: a corrupted count must flip the verdict
    import dentedhex.theorems as th
    real = th.count_axis
    calls = []

    def corrupted(spec):
        calls.append(spec)
        value = real(spec)
        return 2 * value if len(calls) == 1 else value

    monkeypatch.setattr(th, "count_axis", corrupted)
    inst = ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                           (4, 5, 8, 11), (2, 4, 9, 11, 12), ())
    assert not check_barrier_independence(inst, [[], [6]]).passed


def test_check_thm3():
    assert check_thm3(IDENT).passed
    assert check_thm3(FLIP).passed
    # wrong q-power variant and wrong gap factor must fail where they differ
    witness = ShuffleInstance(2, 1, (1, 2, 3), (4,), (1, 2), (3, 4))
    assert check_thm3(witness).passed
    assert not check_thm3(witness, rhs=_q_shuffle_rhs_alt_shift).passed
    gap_witness = ShuffleInstance(2, 1, (1, 4), (2, 3), (1, 2), (3, 4))
    assert check_thm3(gap_witness).passed
    assert not check_thm3(gap_witness, rhs=_q_shuffle_rhs_integer_gap).passed


def test_thm3_on_demo_transposition():
    # demo region vs a single up/down transposition (8 <-> 9), barriers kept
    inst = ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                           (2, 4, 5, 9, 11), (4, 8, 11, 12), (6, 13))
    assert check_thm3(inst).passed


def test_thm3_q1_shadow_matches_thm2():
    rng = random.Random(52)
    for _ in range(15):
        inst = random_shuffle_instance(rng, max_L=8, allow_flips=True, max_b=1)
        r3 = check_thm3(inst)
        r2 = check_thm2(inst)
        assert r3.passed and r2.passed
        from dentedhex.formulas import gen_shuffle_rhs, q_shuffle_rhs
        assert q_shuffle_rhs(inst).limit_at_one() == gen_shuffle_rhs(inst)


def test_check_kuo_smallest():
    spec = make_spec(1, 1)
    r = check_kuo(spec)
    assert r.passed
    # cross-check all six regions against the brute oracle
    regions = {
        (1, 1, ()): None, (0, 0, (1, 2)): None,
        (0, 1, (2,)): None, (1, 0, (1,)): None,
        (0, 1, (1,)): None, (1, 0, (2,)): None,
    }
    for (x, y, U) in regions:
        s = make_spec(x, y, U, (), ())
        assert qcount_axis(s) == qcount_brute(build_region(s))


def test_check_kuo_random():
    rng = random.Random(53)
    done = 0
    while done < 8:
        spec = random_region_spec(rng, max_L=9, max_y=3, max_dents=3,
                                  max_b=1, min_xy=1)
        if len(spec.B) >= spec.x:
            continue
        blocked = set(spec.U) | set(spec.D) | set(spec.B)
        if len([k for k in range(1, spec.L + 1) if k not in blocked]) < 2:
            continue
        assert check_kuo(spec).passed
        done += 1


def test_kuo_integer_shadow():
    # the q=1 specialization of a passing polynomial identity holds for
    # the plain counts as well
    from dentedhex.engines import count_axis
    spec = make_spec(2, 2, (1, 4), (2,), (3,))
    assert check_kuo(spec).passed
    blocked = set(spec.U) | set(spec.D) | set(spec.B)
    comp = [k for k in range(1, spec.L + 1) if k not in blocked]
    alpha, beta = comp[0], comp[-1]

    def cnt(x, y, extra):
        return count_axis(make_spec(x, y, tuple(sorted(spec.U + extra)),
                                    spec.D, spec.B))

    lhs = cnt(2, 2, ()) * cnt(1, 1, (alpha, beta))
    rhs = (cnt(1, 2, (beta,)) * cnt(2, 1, (alpha,))
           + cnt(1, 2, (alpha,)) * cnt(2, 1, (beta,)))
    assert lhs == rhs


def test_check_kuo_errors():
    with pytest.raises(SpecError):
        check_kuo(make_spec(0, 1))
    with pytest.raises(NoDistinctAlphaBeta):
        # the barrier leaves a single removable axis position
        check_kuo(make_spec(1, 1, (), (), (1,)))


def test_check_schur_sum():
    assert check_schur_sum(make_spec(1, 1)).passed
    assert check_schur_sum(make_spec(2, 0, (1,), (2,))).passed
    rng = random.Random(54)
    for _ in range(8):
        spec = random_region_spec(rng, max_L=7, max_b=0)
        assert check_schur_sum(spec).passed
    with pytest.raises(SpecError):
        check_schur_sum(make_spec(2, 1, (), (), (1,)))


def test_check_schur_sum_fails_on_wrong_axis_count(monkeypatch):
    import dentedhex.theorems as theorems_mod
    spec = make_spec(2, 1, (1,), (3,))
    good = check_schur_sum(spec)
    monkeypatch.setattr(theorems_mod, "count_axis", lambda s: 1)
    bad = check_schur_sum(spec)
    assert good.passed and not bad.passed
    assert (bad.lhs, bad.rhs) == (good.lhs, good.rhs)


def test_asym_table_families():
    c = ClusterSpec((("up", "down", "up"), ("down",)), (2,))
    c2 = ClusterSpec((("up", "up", "down"), ("down",)), (2,))
    table = asym_table(c, c2, 1, 1, 4)
    assert table.limit == 2
    devs = [abs(r.deviation) for r in table.rows]
    assert devs[-1] < devs[0]
    ident = asym_table(c, c, 1, 1, 3)
    assert all(r.ratio == 1 and r.deviation == 0 for r in ident.rows)
    # shuffle confined to a centered cluster: exact at every scale
    cc = ClusterSpec(((), ("up", "down", "up"), ()), (1, 1))
    cc2 = ClusterSpec(((), ("up", "up", "down"), ()), (1, 1))
    t = asym_table(cc, cc2, 1, 1, 3)
    assert all(r.ratio == t.limit for r in t.rows)


def test_asym_suite_passes_at_count_1():
    # strict_decay compares the last row with the first; a count of 1
    # still builds two rows, so the suite passes on its merits
    reports = run_suite("asym", count=1)
    assert [r.instance["n_max"] for r in reports] == [2, 2, 2]
    assert all(r.passed for r in reports)


def test_asym_count_never_lengthens_the_tables():
    # row N counts a hexagon of side about N, so a large count would run
    # for hours; it may shorten the tables, never lengthen them past 6 rows
    for count, rows in ((None, 6), (1, 2), (3, 3), (6, 6), (7, 6),
                        (300, 6)):
        tasks = build_suite("asym", count=count)
        assert [p["n_max"] for _, p in tasks] == [rows] * 3


def test_asym_table_reaches_n12():
    # N = 12 sums over C(24, 12) = 2,704,156 crossing subsets per count
    c = ClusterSpec((("up", "down", "up"), ("down",)), (2,))
    c2 = ClusterSpec((("up", "up", "down"), ("down",)), (2,))
    table = asym_table(c, c2, 1, 1, 12)
    assert [r.N for r in table.rows] == list(range(1, 13))
    assert [r.ratio for r in table.rows] == [
        Fraction(4 * N + 4, 2 * N + 1) for N in range(1, 13)]
    assert table.rows[-1].ratio == Fraction(52, 25)
    assert table.rows[-1].deviation == Fraction(1, 25)


def test_reports_serialize_without_timing():
    r = check_thm1(SWAP)
    line = r.json_line()
    assert "elapsed" not in line
    assert '"pass":true' in line
    r2 = check_thm1(SWAP)
    assert r2.json_line() == line  # bytes independent of wall clock


def test_kuo_on_demo_region():
    assert check_kuo(demo_spec()).passed


def test_run_task_dispatch():
    report = run_task(("thm1", SWAP.to_json_dict()))
    assert report.passed and report.name == "thm1"
    # negative controls: the validated prediction passes, the wrong one fails
    witness = ShuffleInstance(2, 1, (1, 2, 3), (4,), (1, 2), (3, 4))
    gap_witness = ShuffleInstance(2, 1, (1, 4), (2, 3), (1, 2), (3, 4))
    for kind, inst, want in (
            ("thm2_pp_control", witness, ("thm2_collapsed_pp_control",
                                          "honest: True", "collapsed: False")),
            ("thm3_shift_control", witness, ("thm3_alt_shift_control",
                                             "validated shift: True",
                                             "alt shift: False")),
            ("thm3_gap_control", gap_witness, ("thm3_integer_gap_control",
                                               "q-gap factor: True",
                                               "integer gap factor: False"))):
        report = run_task((kind, inst.to_json_dict()))
        assert report.passed
        assert (report.name, report.lhs, report.rhs) == want
        assert report.instance == inst.to_json_dict()


def test_suite_task_lists_are_pinned():
    # every suite's rng draws and task order, with and without a count
    h = hashlib.sha256()
    for seed in (3, 7, 11):
        for count in (None, 1, 3):
            for name in SUITE_NAMES:
                tasks = build_suite(name, seed=seed, count=count)
                h.update(json.dumps(tasks, sort_keys=True).encode())
    assert h.hexdigest() == ("0d465ddd34a6997fc3e4a3782c54aa0b"
                             "0194382856e4c28d70b0ba6d80aca838")
    with pytest.raises(ValueError, match="unknown suite"):
        build_suite("nope")


@pytest.mark.parametrize("cpus, workers", [(4, [4]), (64, [5]), (1, []),
                                           (None, [])])
def test_run_suite_pool_is_no_larger_than_tasks_and_cpus(monkeypatch, cpus,
                                                         workers):
    # the pool starts every worker at its first submit, so it is sized by
    # the tasks and CPUs; a stand-in records the size and starts nothing
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    serial = run_suite("thm3", count=3, jobs=1)
    # run_suite imports the pool class from its module only when it starts
    # workers, so the stand-in replaces it there
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    # thm3 at count 3 is 3 checks and 2 controls; one worker runs serially
    reports = run_suite("thm3", count=3, jobs=10_000)
    assert sizes == workers
    assert [r.json_line() for r in reports] == [r.json_line() for r in serial]
    assert len(reports) == 5 and all(r.passed for r in reports)
