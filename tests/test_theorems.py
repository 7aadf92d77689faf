import concurrent.futures
import hashlib
import json
import os
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from dentedhex import engines, formulas, harness, theorems
from dentedhex.engines import RegionTooLarge, qcount_axis, qcount_brute
from dentedhex.formulas import (ShuffleInstance, _gen_shuffle_rhs_collapsed_pp,
                                _q_shuffle_rhs_alt_shift,
                                _q_shuffle_rhs_integer_gap, shuffle_rhs)
from dentedhex.harness import (SUITE_NAMES, build_suite, demo_spec,
                               engine_corpus, random_region_spec,
                               random_shuffle_instance, run_suite, run_task)
from dentedhex.lattice import (ClusterSpec, SpecError, build_region,
                               make_spec, spec_from_json_dict)
from dentedhex.theorems import (asym_table, check_barrier_independence,
                                check_kuo, check_pair_product,
                                check_schur_sum, check_thm1, check_thm2,
                                check_thm3)

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


@pytest.mark.parametrize("inst, msg", [
    (FLIP, "size-preserving shuffle required"),
    (ShuffleInstance(2, 1, (1, 3), (2,), (2, 3), (1,), (4,)),
     "stated without barriers"),
], ids=["sizes change", "barriers"])
def test_check_pair_product_refusals(inst, msg):
    with pytest.raises(SpecError, match=msg):
        check_pair_product(inst)


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


def test_thm2_suite_catches_a_wrong_semihexagon_count(monkeypatch):
    # for y > 0 count_axis calls no closed form, so a wrong schur_ones
    # reaches gen_shuffle_rhs alone and cannot cancel from the ratio
    real = formulas.schur_ones
    for mod in (formulas, engines, theorems):
        monkeypatch.setattr(mod, "schur_ones",
                            lambda S: real(S) * (len(S) + 1))
    reports = run_suite("thm2", seed=7)
    assert any(not r.passed for r in reports)


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


def test_check_barrier_independence_refuses_barriers_on_the_instance():
    # the report's instance would print barriers that no count used
    inst = ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                           (4, 5, 8, 11), (2, 4, 9, 11, 12), (6,))
    with pytest.raises(SpecError, match="^barrier independence takes its "
                                        "barriers from barrier_sets$"):
        check_barrier_independence(inst, [[], [13]])


def _count_calls(monkeypatch, engine):
    """Record every spec theorems passes to engine ("count_axis" or
    "qcount_axis")."""
    real = getattr(theorems, engine)
    calls = []

    def counted(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(theorems, engine, counted)
    return calls


DEMO_DENTS = dict(x=4, y=3, U=(2, 4, 5, 8, 11), D=(4, 9, 11, 12))
DEMO_IDENT = ShuffleInstance(**DEMO_DENTS, U2=DEMO_DENTS["U"],
                             D2=DEMO_DENTS["D"])
DEMO_FLIP = ShuffleInstance(**DEMO_DENTS, U2=(4, 5, 8, 11),
                            D2=(2, 4, 9, 11, 12))
BARRIER_SETS = [[], [6], [6, 13]]


@pytest.mark.parametrize("check, engine, ident, moved, calls", [
    (check_thm1, "count_axis", IDENT, SWAP, (1, 2)),
    (check_thm2, "count_axis", IDENT, SWAP, (1, 2)),
    (check_pair_product, "count_axis", IDENT, SWAP, (2, 4)),
    (check_thm3, "qcount_axis", IDENT, SWAP, (1, 2)),
    (lambda inst: check_barrier_independence(inst, BARRIER_SETS),
     "count_axis", DEMO_IDENT, DEMO_FLIP,
     (len(BARRIER_SETS), 2 * len(BARRIER_SETS))),
], ids=["thm1", "thm2", "pair_product", "thm3", "barrier"])
def test_a_check_counts_each_distinct_region_once(monkeypatch, check, engine,
                                                   ident, moved, calls):
    counted = _count_calls(monkeypatch, engine)
    assert check(ident).passed
    n_ident = len(counted)
    assert check(moved).passed
    assert (n_ident, len(counted) - n_ident) == calls
    # each distinct spec once: an engine never sees one spec twice per call
    assert len(set(counted[:n_ident])) == n_ident
    # nothing survives a check: the same check on the same instance
    # counts again
    counted.clear()
    check(ident)
    assert len(counted) == calls[0]


def test_asym_table_counts_each_row_of_an_identity_table_once(monkeypatch):
    c = ClusterSpec((("up", "down", "up"), ("down",)), (2,))
    c2 = ClusterSpec((("up", "up", "down"), ("down",)), (2,))
    counted = _count_calls(monkeypatch, "count_axis")
    assert all(r.deviation == 0 for r in asym_table(c, c, 1, 1, 3).rows)
    assert len(counted) == 3
    asym_table(c, c2, 1, 1, 3)
    assert len(counted) == 3 + 6


def test_every_region_a_check_counts_is_what_make_spec_builds(monkeypatch):
    # the checks build derived regions without make_spec; each must still
    # be the spec make_spec returns for its own fields
    counts = _count_calls(monkeypatch, "count_axis")
    qcounts = _count_calls(monkeypatch, "qcount_axis")
    shuffles = 0
    for seed in (7, 8, 9):
        for name in SUITE_NAMES:
            for task in build_suite(name, seed=seed):
                assert run_task(task).passed
                payload = task[1]
                if "U2" in payload:
                    inst = harness._inst_from_payload(payload)
                    assert inst.spec_b == make_spec(
                        inst.x, inst.y, inst.U2, inst.D2, inst.B)
                    shuffles += 1
    assert shuffles and counts and qcounts
    for spec in counts + qcounts:
        assert spec == make_spec(spec.x, spec.y, spec.U, spec.D, spec.B)


@pytest.mark.parametrize("kind, witness, bad_label", [
    ("thm2_pp_control", dict(x=2, y=1, U=[1, 2], D=[3, 4]), "collapsed"),
    ("thm3_gap_control", dict(x=2, y=1, U=[1, 4], D=[2, 3]),
     "integer gap factor"),
], ids=["thm2_pp", "thm3_gap"])
def test_negative_controls_reject_their_wrong_formula_on_an_identity_shuffle(
        kind, witness, bad_label):
    # a drawn witness may move no dent; the wrong formula must still fail
    # there, with both sides one region
    payload = dict(witness, U2=witness["U"], D2=witness["D"], B=[])
    report = run_task((kind, payload))
    assert report.passed
    assert report.rhs == f"{bad_label}: False"


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
    # min_xy=1 draws meet the recurrence's preconditions (see
    # test_kuo_suite_draws_meet_the_recurrence_preconditions)
    rng = random.Random(53)
    for _ in range(8):
        spec = random_region_spec(rng, max_L=9, max_y=3, max_dents=3,
                                  max_b=1, min_xy=1)
        assert check_kuo(spec).passed


def test_kuo_integer_shadow():
    # the q=1 specialization of a passing polynomial identity holds for
    # the plain counts as well
    from dentedhex.engines import count_axis
    spec = make_spec(2, 2, (1, 4), (2,), (3,))
    assert check_kuo(spec).passed
    free = spec.free
    alpha, beta = free[0], free[-1]

    def cnt(x, y, extra):
        return count_axis(make_spec(x, y, tuple(sorted(spec.U + extra)),
                                    spec.D, spec.B))

    lhs = cnt(2, 2, ()) * cnt(1, 1, (alpha, beta))
    rhs = (cnt(1, 2, (beta,)) * cnt(2, 1, (alpha,))
           + cnt(1, 2, (alpha,)) * cnt(2, 1, (beta,)))
    assert lhs == rhs


def test_check_kuo_errors():
    # both refusals are SpecErrors; the message says which one fired
    with pytest.raises(SpecError,
                       match="^recurrence needs x >= 1 and y >= 1$"):
        check_kuo(make_spec(0, 1))
    with pytest.raises(SpecError,
                       match="^need two distinct removable positions$"):
        # the barrier leaves a single removable axis position
        check_kuo(make_spec(1, 1, (), (), (1,)))


def test_check_kuo_refuses_too_many_barriers_before_counting(monkeypatch):
    # the neighbours at x - 1 would hold more barriers than x - 1; the
    # check refuses with make_spec's message before any engine runs
    def no_count(spec):
        raise AssertionError("counted before refusing")

    monkeypatch.setattr(theorems, "qcount_axis", no_count)
    with pytest.raises(SpecError) as refused:
        check_kuo(make_spec(1, 2, (), (), (1,)))
    assert str(refused.value) == "1 barriers but x=0"


def test_kuo_suite_draws_meet_the_recurrence_preconditions():
    # the suite keeps every draw: min_xy=1 gives y >= 1 and caps the
    # barriers at x - 1, so |free| = x + y - |B| >= 2 and alpha != beta
    for seed in range(200):
        for _, payload in build_suite("kuo", seed=seed):
            spec = spec_from_json_dict(payload)
            assert len(spec.B) < spec.x and len(spec.free) >= 2


def test_check_schur_sum():
    assert check_schur_sum(make_spec(1, 1)).passed
    assert check_schur_sum(make_spec(2, 0, (1,), (2,))).passed
    rng = random.Random(54)
    for _ in range(8):
        spec = random_region_spec(rng, max_L=7, max_b=0)
        assert check_schur_sum(spec).passed
    with pytest.raises(SpecError):
        check_schur_sum(make_spec(2, 1, (), (), (1,)))


def test_check_schur_sum_refuses_an_oversized_spec_before_building_it():
    # 6,000,000 triangles: refused from the spec, with nothing built
    spec = make_spec(1000, 1000)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(RegionTooLarge):
            check_schur_sum(spec)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1 and peak < 5 * 2**20


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


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_every_suite_passes_at_count_1(name):
    # asym's strict_decay compares the last row with the first; a count of
    # 1 still builds two rows, so the suite passes on its merits
    reports = run_suite(name, count=1)
    assert reports and all(r.passed for r in reports)
    if name == "asym":
        assert [r.instance["n_max"] for r in reports] == [2, 2, 2]


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


@pytest.mark.parametrize("name", ["thm1", "asym"])
def test_build_suite_refuses_a_count_below_1(name):
    # a count of 0 is no request for the default count (200 thm1 draws,
    # 6-row asym tables): it is refused, as the CLI's --count refuses it
    for count in (0, -3):
        with pytest.raises(ValueError, match=f"got {count}$"):
            build_suite(name, count=count)


def test_engine_corpus_refuses_a_negative_size():
    # specs[:-1] would drop the last spec, not build an empty corpus
    with pytest.raises(ValueError, match="size must be at least 0, got -1$"):
        engine_corpus(size=-1)
    assert engine_corpus(size=0) == []


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
