import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import factorial, prod
from pathlib import Path

import pytest

from dentedhex import formulas
from dentedhex.engines import count_brute, qcount_axis, qcount_brute
from dentedhex.exactnum import ExactnessError, QPoly, QRatio
from dentedhex.formulas import (ShuffleInstance, asym_rhs, clp_q_dents,
                                delta, delta_q, gen_shuffle_rhs, pp, pp_q,
                                q_shift_exponent, q_shuffle_rhs, schur_ones,
                                shuffle_rhs)
from dentedhex.harness import build_suite, random_shuffle_instance
from dentedhex.lattice import (ClusterSpec, SpecError, build_region,
                               make_spec)

q = QPoly.monomial(1)


def test_pp_values():
    assert pp(1, 1, 1) == 2
    assert pp(3, 0, 5) == 1
    assert pp(2, 2, 0) == pp(2, 2, -1) == 1
    assert pp(2, 2, 2) == 20
    # symmetric in its arguments
    assert pp(2, 3, 4) == pp(4, 2, 3) == pp(3, 4, 2)


@pytest.mark.parametrize("order", [range(40, -1, -1), range(41)],
                         ids=["largest_first", "smallest_first"])
def test_superfactorial_table_is_exact_in_either_order(order):
    # from an empty cache, every read computes its own n; each value
    # is kept, and none depends on what was read before it
    formulas._superfactorial.cache_clear()
    for n in order:
        assert formulas._superfactorial(n) == prod(
            factorial(k) for k in range(n))
    assert formulas._superfactorial.cache_info().currsize == 41


def test_schur_ones_of_the_first_n_positions_is_1():
    # delta((1, ..., n)) is sf(n) itself: the quotient is 1, and not an
    # ExactnessError, only if every table entry through n = 80 is exact
    for n in range(81):
        assert schur_ones(tuple(range(1, n + 1))) == 1


def test_pp_q():
    assert pp_q(1, 1, 1) == 1 + q
    assert pp_q(4, 3, 0) == QPoly.one()
    rng = random.Random(31)
    for _ in range(20):
        a, b, c = (rng.randint(0, 3) for _ in range(3))
        assert pp_q(a, b, c).eval_one() == pp(a, b, c)
    # a box with no k-layers, as pp clamps it
    for c in (-1, -3):
        assert pp_q(2, 3, c) == QPoly.one()
        assert pp_q(2, 3, c).eval_one() == pp(2, 3, c)


def test_clp_values():
    assert schur_ones((1, 2, 3)) == 1
    assert schur_ones((3,)) == 1
    assert schur_ones(()) == 1
    assert schur_ones((1, 4)) == 3


def test_clp_against_brute_force():
    # small sweep; the full sweep is an acceptance criterion
    for a, base in ((2, 4), (3, 5)):
        for dents in combinations(range(1, base + 1), a):
            region = build_region(make_spec(base - a, 0, dents))
            assert schur_ones(dents) == count_brute(region)


def test_clp_q():
    # one-row semihexagons calibrate the weight convention
    for b in range(0, 4):
        for dent in range(1, b + 2):
            assert clp_q_dents((dent,)) == QPoly.monomial(dent - 1)
    assert clp_q_dents((1, 2, 3)) == QPoly.one()
    rng = random.Random(32)
    for _ in range(40):
        base = rng.randint(1, 8)
        a = rng.randint(0, min(4, base))
        dents = tuple(sorted(rng.sample(range(1, base + 1), a)))
        p = clp_q_dents(dents)
        assert p.eval_one() == schur_ones(dents)
        assert not p or p.min_exp() >= 0
    # 30 dents; a product of q-integer ratios reads the same both ways
    S = tuple(range(1, 60, 2))
    p = clp_q_dents(S)
    assert p.eval_one() == schur_ones(S)
    c = dict(p.items())
    coeffs = [c.get(e, 0) for e in range(p.min_exp(), p.max_exp() + 1)]
    assert coeffs == coeffs[::-1]
    # a dent left of the base breaks make_spec's rule for dents, as a
    # repeated one does
    with pytest.raises(SpecError, match="^S position 0 is not >= 1$"):
        clp_q_dents((0,))
    with pytest.raises(SpecError, match="^S contains 2 twice$"):
        clp_q_dents((2, 2))


@pytest.mark.parametrize("f", [schur_ones, clp_q_dents])
def test_dent_positions_follow_make_specs_rule(f):
    # (3, 1) and (0,) once read -2 and 1 through schur_ones: positions
    # must be strictly increasing and >= 1, as make_spec's dents are
    for S, message in (((3, 1), "^S is not strictly increasing at 3,1$"),
                       ((0,), "^S position 0 is not >= 1$"),
                       ((1, 0), "^S position 0 is not >= 1$"),
                       ((2, 5, 5), "^S contains 5 twice$")):
        with pytest.raises(SpecError, match=message):
            f(S)
        with pytest.raises(SpecError, match=message.replace("^S", "^U")):
            make_spec(9, 0, S)
    assert f([1, 4]) == f((1, 4))


def test_clp_q_dents_against_brute_force():
    # every semihexagon with a <= 3 dents on a base of at most 7
    cases = 0
    for a in range(0, 4):
        for base in range(a, 8):
            for dents in combinations(range(1, base + 1), a):
                region = build_region(make_spec(base - a, 0, dents))
                assert qcount_brute(region) == clp_q_dents(dents)
                cases += 1
    assert cases == 162


def test_clp_q_dents_matches_delta_q_quotient():
    # the defining product q^(sum(s_i - i)) * dq(S) / dq([a]), checked by
    # multiplying back, on bases up to 30 and up to 15 dents: an exact
    # quotient is unique
    rng = random.Random(35)
    for _ in range(80):
        base = rng.randint(1, 30)
        a = rng.randint(0, min(15, base))
        S = tuple(sorted(rng.sample(range(1, base + 1), a)))
        got = clp_q_dents(S).shifted(a * (a + 1) // 2 - sum(S))
        assert got * delta_q(range(1, a + 1)) == delta_q(S)


def test_delta():
    assert delta((1, 3)) == 2
    assert delta_q((1, 3)) == QPoly.monomial(3) - q
    assert delta((5,)) == 1
    assert delta_q(()) == QPoly.one()


def test_schur_ones_hook_content():
    # the Schur polynomial at a ones, s_lambda(1^a), is the product over
    # the cells (i, j) of lambda of (a + j - i) / hook(i, j); lambda is
    # read off the strict set S as lambda_i = s_(a+1-i) - (a+1-i)
    rng = random.Random(38)
    for _ in range(300):
        L = rng.randint(1, 14)
        a = rng.randint(0, L)
        S = tuple(sorted(rng.sample(range(1, L + 1), a)))
        lam = [S[a - i] - (a + 1 - i) for i in range(1, a + 1)]
        cols = [sum(row >= j for row in lam)
                for j in range(1, (lam[0] if lam else 0) + 1)]
        want = Fraction(1)
        for i, row in enumerate(lam, 1):
            for j in range(1, row + 1):
                hook = (row - j) + (cols[j - 1] - i) + 1
                want *= Fraction(a + j - i, hook)
        assert schur_ones(S) == want


def test_schur_ones():
    assert schur_ones((1, 2, 3, 4)) == 1
    assert schur_ones((1, 3)) == 2
    rng = random.Random(33)
    for _ in range(50):
        base = rng.randint(1, 9)
        a = rng.randint(0, min(5, base))
        dents = tuple(sorted(rng.sample(range(1, base + 1), a)))
        want = Fraction(1)
        for i in range(a):
            for j in range(i + 1, a):
                want *= Fraction(dents[j] - dents[i], j - i)
        assert schur_ones(dents) == want


def test_shuffle_rhs():
    ident = ShuffleInstance(1, 1, (1, 3), (2,), (1, 3), (2,))
    assert shuffle_rhs(ident) == 1
    inst = ShuffleInstance(1, 1, (1, 3), (2,), (2, 3), (1,))
    assert shuffle_rhs(inst) == 2
    inv = ShuffleInstance(1, 1, (2, 3), (1,), (1, 3), (2,))
    assert shuffle_rhs(inst) * shuffle_rhs(inv) == 1
    flipped = ShuffleInstance(1, 1, (2,), (1, 3), (1,), (2, 3))
    assert shuffle_rhs(flipped) == shuffle_rhs(inst)


def test_shuffle_rhs_needs_matching_sizes():
    inst = ShuffleInstance(2, 1, (1, 2), (), (1,), (2,))
    with pytest.raises(SpecError):
        shuffle_rhs(inst)


def test_gen_shuffle_rhs():
    ident = ShuffleInstance(1, 1, (1, 3), (2,), (1, 3), (2,))
    assert gen_shuffle_rhs(ident) == 1
    inst = ShuffleInstance(2, 1, (1, 2), (), (1,), (2,))
    assert gen_shuffle_rhs(inst) == Fraction(1, 2)


def test_gen_reduces_to_shuffle_on_matching_sizes():
    rng = random.Random(34)
    for _ in range(60):
        inst = random_shuffle_instance(rng, max_L=9, allow_flips=False)
        assert gen_shuffle_rhs(inst) == shuffle_rhs(inst)


def test_q_shuffle_rhs_identity():
    ident = ShuffleInstance(1, 1, (1, 3), (2,), (1, 3), (2,))
    assert q_shift_exponent(ident) == 0
    assert q_shuffle_rhs(ident) == QRatio.from_int(1)


def test_q_shuffle_rhs_at_one_matches_gen():
    rng = random.Random(35)
    for _ in range(40):
        inst = random_shuffle_instance(rng, max_L=9, allow_flips=True, max_b=1)
        assert q_shuffle_rhs(inst).limit_at_one() == gen_shuffle_rhs(inst)


def test_q_shuffle_rhs_condensation_compatibility():
    # g(x-1,y; U+b) * g(x,y-1; U+a) == g(x,y; U) * g(x-1,y-1; U+ab)
    # where adding a position extends U and U2 alike
    rng = random.Random(36)
    done = 0
    while done < 25:
        inst = random_shuffle_instance(rng, max_L=9, allow_flips=True)
        if inst.x < 1 or inst.y < 1:
            continue
        blocked = set(inst.U) | set(inst.D) | set(inst.B)
        free = [k for k in range(1, inst.spec_a.L + 1)
                if k not in blocked]
        if len(free) < 2:
            continue
        a, b = free[0], free[-1]

        def grown(extra, dx, dy):
            return ShuffleInstance(
                inst.x - dx, inst.y - dy,
                tuple(sorted(inst.U + extra)), inst.D,
                tuple(sorted(inst.U2 + extra)), inst.D2, inst.B)

        try:
            g = q_shuffle_rhs(grown((), 0, 0))
            g_b = q_shuffle_rhs(grown((b,), 1, 0))
            g_a = q_shuffle_rhs(grown((a,), 0, 1))
            g_ab = q_shuffle_rhs(grown((a, b), 1, 1))
        except SpecError:
            continue
        assert (QRatio(g_b.num * g_a.num, g_b.den * g_a.den)
                == QRatio(g.num * g_ab.num, g.den * g_ab.den))
        done += 1


def test_q_shuffle_rhs_against_engines_small():
    inst = ShuffleInstance(2, 1, (1, 2), (), (1,), (2,))
    lhs = QRatio(qcount_axis(inst.spec_a), qcount_axis(inst.spec_b))
    assert lhs == q_shuffle_rhs(inst)


def _delta_q_written_out(T):
    out = QPoly.one()
    for j, t in enumerate(T):
        for s in T[:j]:
            out = out * QPoly({t: 1, s: -1})
    return out


def _control_witnesses():
    # the instances the three negative controls of a seed-7 suite run on
    tasks = build_suite("thm2", seed=7) + build_suite("thm3", seed=7)
    return [ShuffleInstance(**payload) for kind, payload in tasks
            if kind.endswith("_control")]


def test_q_shuffle_rhs_sides_are_the_written_out_products():
    # thm3 reports print num and den, so each side must equal the product
    # of its delta_q and pp_q factors as a polynomial, not only as a ratio
    rng = random.Random(37)
    insts = [random_shuffle_instance(rng, max_L=10, allow_flips=True,
                                     max_b=1) for _ in range(200)]
    witnesses = _control_witnesses()
    assert len(witnesses) == 3
    for inst in insts + witnesses:
        u, d, u2, d2 = inst.sizes
        sides = ((inst.U, inst.D, range(1, u2 + 1), range(1, d2 + 1)),
                 (inst.U2, inst.D2, range(1, u + 1), range(1, d + 1)))
        want = []
        for sets, box in zip(sides, ((u, d), (u2, d2))):
            side = pp_q(*box, inst.y)
            for T in sets:
                dq = _delta_q_written_out(T)
                assert delta_q(T) == dq
                side = side * dq
            want.append(side)
        ratio = q_shuffle_rhs(inst)
        assert ratio.num == want[0].shifted(q_shift_exponent(inst))
        assert ratio.den == want[1]


def test_cluster_s_values():
    # one cluster against its ups-first arrangement, the same up count, whose
    # up and down dents sit at consecutive positions and so give
    # semihexagons that each count 1: asym_rhs is the cluster's s+ s-, its
    # up dents' semihexagon count times its down dents', at positions local
    # to the cluster
    def s(cluster):
        ups = cluster.count("up")
        first = ("up",) * ups + ("down",) * (len(cluster) - ups)
        return asym_rhs(ClusterSpec((cluster,), ()), ClusterSpec((first,), ()))

    assert s(()) == 1
    assert s(("up", "down")) == 1
    assert s(("up", "up", "down")) == 1
    assert s(("up", "down", "up")) == 2  # s+ = schur_ones((1, 3))
    assert s(("down", "up", "down")) == 2  # s- = schur_ones((1, 3))


def test_asym_rhs():
    c = ClusterSpec((("up", "down", "up"),), ())
    c2 = ClusterSpec((("up", "up", "down"),), ())
    assert asym_rhs(c, c2) == 2
    assert asym_rhs(c, c) == 1
    with pytest.raises(SpecError,
                       match=r"^cluster lengths differ: \(3,\) vs \(2,\)$"):
        asym_rhs(c, ClusterSpec((("up", "down"),), ()))


@pytest.mark.parametrize("c2, msg", [
    (ClusterSpec((("up", "down"), ("up",)), (2,)),
     r"^gaps differ: \(1,\) vs \(2,\)$"),
    (ClusterSpec((("up", "down"), ("up",), ("down",)), (1, 1)),
     r"^cluster lengths differ: \(2, 1\) vs \(2, 1, 1\)$"),
], ids=["gaps", "cluster count"])
def test_asym_rhs_refuses_other_gaps_or_cluster_counts(c2, msg):
    c = ClusterSpec((("up", "down"), ("up",)), (1,))
    with pytest.raises(SpecError, match=msg):
        asym_rhs(c, c2)


def test_asym_rhs_refuses_up_dents_moved_between_clusters():
    # every cluster has the same length, but the ups sit 2, 0, 1 against
    # 1, 1, 1: the finite-scale ratios have no such limit
    c = ClusterSpec((("up", "up"), ("down", "down"), ("up",)), (1, 1))
    c2 = ClusterSpec((("up", "down"), ("up", "down"), ("up",)), (1, 1))
    with pytest.raises(SpecError,
                       match=r"^up counts differ in clusters\[0\]: 2 vs 1$"):
        asym_rhs(c, c2)


def test_asym_rhs_is_product_of_local_shuffles():
    rng = random.Random(37)
    for _ in range(40):
        k = rng.randint(1, 3)
        clusters, clusters2 = [], []
        for _ in range(k):
            f = rng.randint(1, 4)
            toks = tuple(rng.choice(("up", "down")) for _ in range(f))
            ups = sum(t == "up" for t in toks)
            shuffled = ["up"] * ups + ["down"] * (f - ups)
            rng.shuffle(shuffled)
            clusters.append(toks)
            clusters2.append(tuple(shuffled))
        gaps = tuple(rng.randint(1, 3) for _ in range(k - 1))
        c = ClusterSpec(tuple(clusters), gaps)
        c2 = ClusterSpec(tuple(clusters2), gaps)
        expected = Fraction(1)
        for toks, toks2 in zip(clusters, clusters2):
            U = tuple(i + 1 for i, t in enumerate(toks) if t == "up")
            D = tuple(i + 1 for i, t in enumerate(toks) if t == "down")
            U2 = tuple(i + 1 for i, t in enumerate(toks2) if t == "up")
            D2 = tuple(i + 1 for i, t in enumerate(toks2) if t == "down")
            expected *= Fraction(delta(U) * delta(D), delta(U2) * delta(D2))
        assert asym_rhs(c, c2) == expected


def test_shuffle_instance_validation():
    with pytest.raises(SpecError):
        ShuffleInstance(1, 1, (1,), (2,), (3,), (1,))  # union changes
    with pytest.raises(SpecError):
        ShuffleInstance(1, 1, (1, 2), (2,), (1,), (2,))  # intersection changes


def test_shuffle_instance_holds_its_specs_tuples():
    inst = ShuffleInstance(1, 1, [1, 3], [2], [2, 3], [1])
    assert (inst.U, inst.D, inst.U2, inst.D2, inst.B) == (
        (1, 3), (2,), (2, 3), (1,), ())
    assert (inst.U, inst.D, inst.B) == (inst.spec_a.U, inst.spec_a.D,
                                        inst.spec_a.B)
    assert (inst.U2, inst.D2) == (inst.spec_b.U, inst.spec_b.D)
    same = ShuffleInstance(1, 1, (1, 3), (2,), (2, 3), (1,))
    assert inst == same and hash(inst) == hash(same)


def test_an_identity_shuffle_builds_one_spec():
    inst = ShuffleInstance(4, 3, [2, 4, 5, 8, 11], [4, 9, 11, 12],
                           [2, 4, 5, 8, 11], [4, 9, 11, 12], [6, 13])
    assert inst.spec_b is inst.spec_a
    assert inst.spec_a == make_spec(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                                    (6, 13))
    assert (inst.U, inst.D, inst.U2, inst.D2, inst.B) == (
        (2, 4, 5, 8, 11), (4, 9, 11, 12), (2, 4, 5, 8, 11), (4, 9, 11, 12),
        (6, 13))
    assert inst == ShuffleInstance(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12),
                                   (2, 4, 5, 8, 11), (4, 9, 11, 12), (6, 13))
    # a shuffle that moves a dent keeps two specs
    moved = ShuffleInstance(1, 1, [1, 3], [2], [1, 2], [3])
    assert moved.spec_b is not moved.spec_a
    assert moved.spec_b == make_spec(1, 1, (1, 2), (3,))


def test_a_shuffle_holds_the_validated_sizes():
    # x and y are read as make_spec reads them, so a check that derives a
    # region from inst.x and inst.y sums ints
    inst = ShuffleInstance("2", True, [1, 3], [2], [2, 3], [1])
    assert (inst.x, inst.y) == (2, 1)
    assert type(inst.x) is type(inst.y) is int
    assert inst == ShuffleInstance(2, 1, (1, 3), (2,), (2, 3), (1,))


@pytest.mark.parametrize("U2, D2", [
    ([3, 1], [2]),  # not increasing
    ([1, 1], [2]),  # a duplicate
    ([0, 3], [2]),  # a position below 1
    (["a", 3], [2]),  # not an int
    ([1, 3], [2, 2]),  # U2 matches U, D2 duplicates
    ([1, 3], [9]),  # U2 matches U, D2 past the base length
    ([1, 3], [6]),  # U2 matches U, D2 collides with the barrier
    ([1, 3], ["b"]),  # U2 matches U, D2 not an int
    ([1, 3.5], [2]),  # a fraction that int() would drop
    ([1, 3], [2.5]),  # U2 matches U, D2 has a fraction
    ([3, 1], ["b"]),  # both bad: U2 is reported, as make_spec reports it
    ([1, 3], [4]),  # a valid spec that changes the union
])
def test_a_bad_second_side_raises_what_make_spec_raises(U2, D2):
    try:
        make_spec(2, 1, U2, D2, [6])
    except ValueError as exc:
        want = exc
    else:
        want = SpecError("shuffle must preserve the union and the "
                         "intersection of dents")
    with pytest.raises(ValueError) as got:
        ShuffleInstance(2, 1, [1, 3], [2], U2, D2, [6])
    assert (type(got.value), str(got.value)) == (type(want), str(want))


def test_invariant_checks_survive_optimize_flag():
    # python -O strips assert statements; these checks must still run
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "from dentedhex.engines import _hankel_det; _hankel_det([0], 1)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=60)
    assert proc.returncode != 0
    assert "ExactnessError" in proc.stderr
