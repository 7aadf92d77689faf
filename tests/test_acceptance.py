"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single pass/fail line; run with -s (or read captured
output) for the summary. Seeds and instance counts are pinned here.
"""

import random
from itertools import combinations

from dentedhex.cli import main
from dentedhex.engines import count_axis, count_brute, qcount_axis, qcount_brute
from dentedhex.formulas import (ShuffleInstance, asym_rhs, gen_shuffle_rhs,
                                q_shuffle_rhs, schur_ones, shuffle_rhs)
from dentedhex.harness import (engine_corpus, random_shuffle_instance,
                               run_suite, summarize)
from dentedhex.lattice import ClusterSpec, build_region, make_spec
from dentedhex.theorems import (asym_table, check_barrier_independence,
                                check_thm1, check_thm2, check_thm3)

SEED = 7


def _criterion(n, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[criterion {n:02d}] FAIL {desc}")
        raise
    print(f"[criterion {n:02d}] PASS {desc}")


def test_criterion_01_engine_equivalence():
    def run():
        corpus = engine_corpus(seed=SEED, size=300)
        assert len(corpus) == 300
        for spec in corpus:
            region = build_region(spec)
            assert count_axis(spec) == count_brute(region)
            assert qcount_axis(spec) == qcount_brute(region)

    _criterion(1, "count_axis == count_brute and qcount_axis == qcount_brute "
                  "on the 300-spec corpus", run)


def test_criterion_02_box_anchor():
    def run():
        from dentedhex.formulas import pp
        for (x, y), want in (((1, 1), 2), ((2, 2), 20)):
            spec = make_spec(x, y)
            assert pp(x, y, y) == want
            assert count_axis(spec) == want
            assert count_brute(build_region(spec)) == want

    _criterion(2, "pure hexagon counts match the box product (2 and 20)", run)


def test_criterion_03_semihexagon_anchor():
    def run():
        for a in range(0, 4):
            for base in range(a, 9):
                for dents in combinations(range(1, base + 1), a):
                    region = build_region(make_spec(base - a, 0, dents))
                    assert schur_ones(dents) == count_brute(region)

    _criterion(3, "semihexagon product equals brute force for a<=3, a+b<=8",
               run)


def test_criterion_04_shuffle_theorem():
    def run():
        rng = random.Random(SEED)
        insts = [random_shuffle_instance(rng, max_L=10, allow_flips=False)
                 for _ in range(100)]
        for inst in insts:
            assert check_thm1(inst).passed
        assert not check_thm1(insts[0], rhs=lambda i: 2 * shuffle_rhs(i)).passed

    _criterion(4, "100 size-preserving shuffles pass exactly; corrupted "
                  "control fails", run)


def test_criterion_05_general_shuffle_theorem():
    def run():
        reports = run_suite("thm2", seed=SEED)
        s = summarize(reports)
        assert s.failed == 0, s.first_failure
        control = [r for r in reports if r.name == "thm2_collapsed_pp_control"]
        assert len(control) == 1 and control[0].passed
        # the control report certifies: honest prediction passes, collapsed
        # box factor fails, on a concrete reported instance
        assert control[0].instance

    _criterion(5, "100 flip shuffles with barriers pass; collapsed box "
                  "factor fails and is reported", run)


def test_criterion_06_weighted_shuffle_theorem():
    def run():
        rng = random.Random(f"{SEED}:thm3")
        insts = [random_shuffle_instance(rng, max_L=10, allow_flips=True,
                                         max_b=1) for _ in range(50)]
        for inst in insts:
            r3 = check_thm3(inst)
            r2 = check_thm2(inst)
            assert r3.passed
            assert r2.passed
            assert q_shuffle_rhs(inst).limit_at_one() == gen_shuffle_rhs(inst)

    _criterion(6, "50 weighted shuffles pass exactly; q=1 shadows agree "
                  "with the unweighted verdicts", run)


def test_criterion_07_condensation_recurrence():
    def run():
        reports = run_suite("kuo", seed=SEED)
        assert len(reports) == 20
        s = summarize(reports)
        assert s.failed == 0, s.first_failure

    _criterion(7, "20 condensation instances hold as exact polynomial "
                  "identities", run)


def test_criterion_08_barrier_independence():
    def run():
        inst = ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                               (4, 5, 8, 11), (2, 4, 9, 11, 12), ())
        r = check_barrier_independence(inst, [[], [6], [6, 13]])
        assert r.passed

    _criterion(8, "demo region cross-products agree for barrier sets "
                  "{}, {6}, {6,13}", run)


def test_criterion_09_crossing_sum():
    def run():
        reports = run_suite("schur", seed=SEED)
        assert len(reports) == 30
        s = summarize(reports)
        assert s.failed == 0, s.first_failure

    _criterion(9, "30 random regions: crossing sum equals the brute-force "
                  "count", run)


def test_criterion_10_asymptotics():
    def run():
        c = ClusterSpec((("up", "down", "up"), ("down",)), (2,))
        c2 = ClusterSpec((("up", "up", "down"), ("down",)), (2,))
        table = asym_table(c, c2, 1, 1, 6)
        assert table.limit == asym_rhs(c, c2) == 2
        devs = {r.N: abs(r.deviation) for r in table.rows}
        assert devs[6] < devs[1]

    _criterion(10, "two-cluster family: deviation at N=6 strictly below "
                   "N=1; limit equals the cluster product", run)


def test_criterion_11_determinism(capsys):
    def run():
        assert main(["verify", "--suite", "all", "--seed", str(SEED),
                     "--jobs", "1"]) == 0
        jobs1 = capsys.readouterr().out
        assert main(["verify", "--suite", "all", "--seed", str(SEED),
                     "--jobs", "8"]) == 0
        jobs8 = capsys.readouterr().out
        assert jobs1 == jobs8
        assert main(["corpus", "--seed", str(SEED), "--size", "300"]) == 0
        corpus1 = capsys.readouterr().out
        assert main(["corpus", "--seed", str(SEED), "--size", "300"]) == 0
        corpus2 = capsys.readouterr().out
        assert corpus1 == corpus2

    _criterion(11, "verify --jobs 1 and --jobs 8 produce byte-identical "
                   "reports; corpus regeneration is byte-identical", run)
