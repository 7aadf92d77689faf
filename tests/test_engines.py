import hashlib
import random
from itertools import combinations, permutations
from math import comb

import pytest

from dentedhex import engines
from dentedhex.engines import (RegionTooLarge, _count_bound, _dual_graph,
                               _hankel_det, _sweep, count_axis, count_brute,
                               _right_tilt_exponent, enumerate_tilings,
                               qcount_axis, qcount_brute)
from dentedhex.exactnum import ExactnessError, QPoly, digit_width
from dentedhex.formulas import clp_q_dents, pp, schur_ones
from dentedhex.harness import demo_spec, engine_corpus, random_region_spec
from dentedhex.theorems import crossing_subsets
from dentedhex.lattice import (Triangle, TriangularRegion, build_region,
                               lozenge_triangles, make_spec,
                               reflect_positions)


def test_count_anchors():
    assert count_brute(build_region(make_spec(1, 0))) == 1
    assert count_brute(build_region(make_spec(1, 1))) == 2
    assert count_brute(build_region(make_spec(2, 2))) == pp(2, 2, 2)
    assert count_axis(make_spec(1, 1)) == 2
    assert count_axis(make_spec(2, 2)) == 20


def test_pure_hexagons_match_box_counts():
    for x in range(0, 4):
        for y in range(0, 3):
            assert count_axis(make_spec(x, y)) == pp(x, y, y)


def _tiling_exponent(tiling) -> int:
    """The q-exponent of one tiling: its right-tilting lozenges' weights."""
    return sum(_right_tilt_exponent(loz.b) for loz in tiling
               if loz.kind == "R")


def test_qcount_unit_hexagon():
    region = build_region(make_spec(1, 1))
    poly = qcount_brute(region)
    assert poly == QPoly.monomial(-1) + QPoly.monomial(1)
    # two tilings whose weights differ by a single power of q squared
    tilings = enumerate_tilings(region)
    weights = sorted(_tiling_exponent(t) for t in tilings)
    assert weights == [-1, 1]


def test_qcount_brute_calibration():
    # one-row semihexagon with dent s weighs q^(s-1)
    for b in range(0, 4):
        for s in range(1, b + 2):
            region = build_region(make_spec(b, 0, (s,)))
            assert qcount_brute(region) == QPoly.monomial(s - 1)
            assert qcount_brute(region) == clp_q_dents((s,))


def test_count_axis_hand_example():
    # unit hexagon: crossings {1} and {2}, each contributing 1*1
    spec = make_spec(1, 1)
    assert list(crossing_subsets(spec.free, 1)) == [(1,), (2,)]
    assert count_axis(spec) == 2


def test_crossing_subsets_colex():
    subs = list(crossing_subsets((1, 3, 7, 10, 14), 3))
    assert len(subs) == 10
    assert subs[0] == (1, 3, 7)
    assert subs[-1] == (7, 10, 14)
    # colex: ordered by largest element, then recursively
    assert subs == sorted(subs, key=lambda t: t[::-1])


def test_axis_split_at_y_zero():
    rng = random.Random(41)
    for _ in range(25):
        spec = random_region_spec(rng, max_L=7, max_y=0, max_b=0)
        upper = schur_ones(spec.U)
        lower = schur_ones(spec.D)
        assert count_axis(spec) == upper * lower
        assert count_brute(build_region(spec)) == upper * lower


def test_qcount_axis_flat_base_case():
    # y=0: the region splits into an upper semihexagon at q and the
    # reflected lower one at 1/q
    rng = random.Random(42)
    for _ in range(25):
        spec = random_region_spec(rng, max_L=7, max_y=0, max_b=1)
        want = (clp_q_dents(spec.U)
                * clp_q_dents(reflect_positions(spec.D, spec.L)).invert_variable())
        assert qcount_axis(spec) == want


def test_engine_equivalence_sample():
    for spec in engine_corpus(seed=3, size=40):
        region = build_region(spec)
        assert count_axis(spec) == count_brute(region)
        qa = qcount_axis(spec)
        assert qa == qcount_brute(region)
        assert qa.eval_one() == count_axis(spec)
        assert all(v > 0 for _, v in qa.items())


def test_mirror_symmetries():
    rng = random.Random(43)
    for _ in range(30):
        spec = random_region_spec(rng, max_L=8)
        c = count_axis(spec)
        # flip through the axis: swap up and down dents
        assert count_axis(make_spec(spec.x, spec.y, spec.D, spec.U,
                                    spec.B)) == c
        # mirror left to right through the base midpoint
        assert count_axis(make_spec(
            spec.x, spec.y, *(reflect_positions(P, spec.L)
                              for P in (spec.U, spec.D, spec.B)))) == c


def test_barrier_monotone():
    rng = random.Random(44)
    done = 0
    while done < 25:
        spec = random_region_spec(rng, max_L=8, max_b=0)
        if not spec.free or spec.x < 1:
            continue
        k = spec.free[done % len(spec.free)]
        more = make_spec(spec.x, spec.y, spec.U, spec.D, (k,))
        assert count_axis(more) <= count_axis(spec)
        done += 1


def test_barriers_suppress_crossings():
    spec = make_spec(1, 1)
    blocked = make_spec(1, 1, (), (), (1,))
    assert count_axis(spec) == 2
    assert count_axis(blocked) == 1
    assert count_brute(build_region(blocked)) == 1


def test_no_crossing_at_barrier_positions():
    spec = make_spec(2, 1, (), (), (2,))
    region = build_region(spec)
    for t in enumerate_tilings(region):
        for loz in t:
            if loz.kind == "V" and loz.b == 0:
                assert loz.a + 1 not in spec.B


def test_enumerate_tilings():
    region = build_region(make_spec(1, 1))
    tilings = enumerate_tilings(region)
    assert len(tilings) == 2
    for t in tilings:
        covered = [tri for loz in t for tri in lozenge_triangles(loz)]
        assert len(covered) == len(set(covered)) == len(region.triangles)
        assert set(covered) == set(region.triangles)
    assert enumerate_tilings(region, limit=1) == tilings[:1]
    # repeat runs give the same order
    assert enumerate_tilings(region) == tilings
    empty = build_region(make_spec(0, 0))
    assert enumerate_tilings(empty) == [frozenset()]
    for r in (region, empty):
        assert enumerate_tilings(r, limit=0) == []


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def test_tiling_order_is_pinned():
    # every tiling, in walk order, of 300 seeded regions (80,856 tilings);
    # the digest was recorded from the generator-stack walk
    rng = random.Random(5)
    specs = [random_region_spec(rng, max_L=7, max_y=3, max_dents=2,
                                max_b=2) for _ in range(300)]
    digest = _sha256(
        [sorted(t) for t in enumerate_tilings(build_region(s),
                                              max_triangles=200)]
        for s in specs)
    assert digest == ("bb31d66bd3ba904757fb218b345c5b1c"
                      "b3402504293fdf934f85d87febdd3d39")


def test_dual_graph_is_pinned():
    # triangles, partner indices and weights, recorded before the mates
    # came from lattice.LOZENGE_MATES
    corpus = [build_region(s) for s in engine_corpus(seed=7, size=300)]
    assert _sha256(map(_dual_graph, corpus)) == (
        "f53d70c892a4a80cc7161b679ce5cb0cd79a8e3e87575decba11492301df92fb")
    rng = random.Random(11)
    barred = [build_region(s) for s in [demo_spec()] + [
        random_region_spec(rng, max_L=9, max_y=3, max_dents=3, max_b=3)
        for _ in range(100)]]
    # the barriers remove vertical edges from some of these graphs
    assert any(_dual_graph(r) != _dual_graph(
        TriangularRegion(r.triangles, frozenset())) for r in barred)
    assert _sha256(map(_dual_graph, barred)) == (
        "cb641cc212d8355de71e4bb46479ecdb814ade90c076a7e267314337cb820c46")


def test_tiling_qweights_sum_to_generating_function():
    rng = random.Random(45)
    for _ in range(10):
        spec = random_region_spec(rng, max_L=6)
        region = build_region(spec)
        total = QPoly.zero()
        for t in enumerate_tilings(region):
            total = total + QPoly.monomial(_tiling_exponent(t))
        assert total == qcount_brute(region)


def _without(region, *tris):
    return TriangularRegion(region.triangles - set(tris),
                            region.forbidden_vertical)


def test_count_brute_matches_tiling_walk():
    # the oracle's frontier DP against the per-tiling walk: barriers, dents
    # on both sides of one position, adjacent dents, the empty region, and
    # regions with one triangle (odd size) or two up triangles removed
    rng = random.Random(46)
    specs = [make_spec(0, 0)] + [random_region_spec(rng, max_L=6, max_b=2)
                                 for _ in range(40)]
    assert any(s.B for s in specs)
    assert any(set(s.U) & set(s.D) for s in specs)
    assert any(p + 1 in s.U + s.D for s in specs for p in s.U + s.D)
    regions = [build_region(s) for s in specs]
    for region in [r for r in regions if r.triangles][:10]:
        tris = sorted(region.triangles)
        ups = [t for t in tris if t.up]
        regions.append(_without(region, rng.choice(tris)))
        regions.append(_without(region, *rng.sample(ups, min(2, len(ups)))))
    assert any(len(r.triangles) % 2 for r in regions)
    assert not regions[0].triangles
    for region in regions:
        assert count_brute(region) == len(enumerate_tilings(region))
    assert count_brute(regions[0]) == 1


def test_region_too_large():
    region = build_region(make_spec(3, 3))
    with pytest.raises(RegionTooLarge):
        count_brute(region, limit=10)
    with pytest.raises(RegionTooLarge):
        qcount_brute(region, limit=10)
    with pytest.raises(RegionTooLarge):
        enumerate_tilings(region, max_triangles=10)


def test_oracle_survives_deep_regions():
    # 2,408 triangles: a recursive walk would nest 1,204 calls deep
    region = build_region(make_spec(300, 2))
    assert count_brute(region, limit=2408) == pp(300, 2, 2)
    tilings = enumerate_tilings(region, limit=2, max_triangles=2408)
    assert len(tilings) == 2
    assert all(len(t) == 1204 for t in tilings)


def test_oracle_reaches_tall_hexagons():
    # 294 to 384 triangles; the column sweep narrows hex(2,12) and
    # hex(3,10) the most (hex(2,12)'s widest layer from 1,105 to 91)
    for x, y in [(7, 7), (2, 12), (3, 10)]:
        region = build_region(make_spec(x, y))
        m = len(region.triangles)
        assert count_brute(region, limit=m) == pp(x, y, y)


def test_oracle_matches_axis_beyond_default_budget():
    demo = make_spec(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12), (6, 13))
    region = build_region(demo)
    assert len(region.triangles) == 298
    assert count_brute(region, limit=298) == count_axis(demo)
    assert count_axis(demo) == 28693855097460
    # barriers and shared dents, under the q-weights
    assert qcount_brute(region, limit=298) == qcount_axis(demo)
    hexagon = make_spec(5, 5)
    region = build_region(hexagon)
    assert qcount_brute(region, limit=150) == qcount_axis(hexagon)


def _layer_sum(tris, partners, k):
    """engines._matching_sum as the layer-by-layer DP it replaced.

    Layer i maps the set of triangles >= i that a partial matching covers
    (bit d: triangle i + d) to their summed value at q = 2^k, and step i
    either shifts a covered triangle out or matches it with each free
    partner j > i.
    """
    off = [min(w for _, w in ps) if t.up and ps else 0
           for t, ps in zip(tris, partners)]
    layer = {0: 1}
    for i, ps in enumerate(partners):
        nxt = {}
        for state, v in layer.items():
            if state & 1:
                nxt[state >> 1] = nxt.get(state >> 1, 0) + v
                continue
            for j, w in ps:
                if j > i and not state >> j - i & 1:
                    s = (state | 1 << j - i) >> 1
                    u = v << k * (w - off[i] - off[j])
                    nxt[s] = nxt.get(s, 0) + u
        layer = nxt
    return layer.get(0, 0), sum(off)


def _hand_region(*triangles):
    return TriangularRegion(frozenset(Triangle(*t) for t in triangles),
                            frozenset())


def test_matching_sum_values_match_the_layer_dp():
    empty = _hand_region()
    # up(0,0) can only take down(0,0), so up(1,0) takes down(1,0)
    one = _hand_region((0, 0, True), (0, 0, False), (1, 0, True),
                       (1, 0, False))
    # both up triangles have only down(0,0); down(3,0) touches neither
    stuck = _hand_region((0, 0, True), (0, 0, False), (1, 0, True),
                         (3, 0, False))
    regions = [build_region(spec) for spec in engine_corpus(seed=7, size=300)]
    regions += [build_region(demo_spec()), empty, one, stuck]
    for region in regions:
        graph = _dual_graph(region, _sweep)
        for k in (0, 8 * digit_width(_count_bound(*graph))):
            assert engines._matching_sum(*graph, k) == _layer_sum(*graph, k)
    assert engines._matching_sum(*_dual_graph(empty, _sweep), 8) == (1, 0)
    # its two right-tilting lozenges weigh q^2: q^low = q from up(0,0)'s
    # only edge, and P(q) = q from up(1,0)'s heavier edge
    assert engines._matching_sum(*_dual_graph(one, _sweep), 8) == (1 << 8, 1)
    assert engines._matching_sum(*_dual_graph(stuck, _sweep), 0)[0] == 0


def _widest_layer(tris, partners):
    """The most states engines._matching_sum holds: the states alive when
    step i starts, the maximum over i. They are layer i of the
    layer-by-layer DP (see _layer_sum), run here with the values dropped."""
    layer, widest = {0}, 1
    for i, ps in enumerate(partners):
        bits = [1 << j - i for j, _ in ps if j > i]
        nxt = set()
        for state in layer:
            if state & 1:
                nxt.add(state >> 1)
                continue
            nxt.update((state | bit) >> 1 for bit in bits if not state & bit)
        layer = nxt
        widest = max(widest, len(layer))
    return widest


def test_sweep_keeps_the_frontier_to_one_cut(monkeypatch):
    # both oracles run their DP in the sweep order
    walked = []
    monkeypatch.setattr(engines, "_matching_sum",
                        lambda tris, partners, k: walked.append(tris) or (1, 0))
    region = build_region(make_spec(2, 2))
    count_brute(region)
    qcount_brute(region)
    assert walked == [sorted(region.triangles, key=_sweep)] * 2
    # cut hex(x, y) along a lattice line and the two sides share only which
    # x of the x + y crossing positions the paths use; the sorted order
    # (a, b, up) keeps 260, 406, 120, 434, 1,596 and 5,940 states here
    for x, y in [(2, 7), (3, 6), (4, 4), (5, 5), (6, 6), (7, 7)]:
        region = build_region(make_spec(x, y))
        assert _widest_layer(*_dual_graph(region, _sweep)) == comb(x + y, x)
    # barriers and shared dents; the sorted order keeps 5,299
    region = build_region(demo_spec())
    assert _widest_layer(*_dual_graph(region, _sweep)) <= 1904


def test_packed_q_oracle_matches_axis():
    # hex(6,6), 216 triangles: past the default budget
    hexagon = make_spec(6, 6)
    qb = qcount_brute(build_region(hexagon), limit=216)
    assert qb == qcount_axis(hexagon)
    assert qb.eval_one() == pp(6, 6, 6)
    # three down dents and rows b = -1 .. -5 below the axis, where a
    # right-tilting lozenge weighs q^b: the least-weight offset is negative
    dented = make_spec(2, 2, (4,), (1, 3, 5))
    region = build_region(dented)
    qb = qcount_brute(region, limit=len(region.triangles))
    assert qb == qcount_axis(dented)
    assert qb.min_exp() < 0


def test_count_bound_covers_the_count():
    # the digit width of qcount_brute rests on this bound
    specs = engine_corpus(seed=7, size=300) + [make_spec(n, n)
                                               for n in range(7)]
    for spec in specs:
        region = build_region(spec)
        m = len(region.triangles)
        assert _count_bound(*_dual_graph(region)) >= count_brute(region,
                                                                 limit=m)


def test_qcount_brute_degenerate_regions():
    assert qcount_brute(build_region(make_spec(0, 0))) == QPoly.one()
    odd = TriangularRegion(frozenset({Triangle(0, 0, True)}), frozenset())
    apart = TriangularRegion(frozenset({Triangle(0, 0, True),
                                        Triangle(5, 0, False)}),
                             frozenset())
    for region in (odd, apart):
        assert qcount_brute(region) == QPoly.zero()
        assert count_brute(region) == 0


def _wide_spec(rng, y):
    """x in 2..3, 2..x barriers, at least 3 dents on each side of the axis."""
    while True:
        x = rng.randint(2, 3)
        n = rng.randint(3, 5)
        L = x + y + n
        U, D = [], []
        for p in sorted(rng.sample(range(1, L + 1), n)):
            side = rng.randrange(3)
            if side != 1:
                U.append(p)
            if side != 0:
                D.append(p)
        if len(U) >= 3 and len(D) >= 3:
            break
    free = [k for k in range(1, L + 1) if k not in U and k not in D]
    return make_spec(x, y, U, D, sorted(rng.sample(free, rng.randint(2, x))))


def test_engines_agree_on_wide_barrier_corpus():
    # 20 specs, y = 0..4 in turn: up to 240 triangles, beyond the default
    # brute budget, but flat enough (height at most y + 5) for the oracle
    rng = random.Random(8)
    for i in range(20):
        spec = _wide_spec(rng, i % 5)
        region = build_region(spec)
        m = len(region.triangles)
        assert count_axis(spec) == count_brute(region, limit=m)
        assert qcount_axis(spec) == qcount_brute(region, limit=m)


def test_counts_are_deterministic():
    spec = make_spec(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12), (6, 13))
    a = count_axis(spec)
    b = count_axis(spec)
    assert a == b
    assert qcount_axis(spec).render() == qcount_axis(spec).render()


def _crossing_sum(spec):
    """The axis cut written out: sum over y-subsets S of the free positions
    of the upper and lower dented-semihexagon counts, and the same for the
    q-weights (the lower half reflected and evaluated at 1/q)."""
    count, weights = 0, {}
    for S in combinations(spec.free, spec.y):
        upper = tuple(sorted(spec.U + S))
        lower = tuple(sorted(spec.D + S))
        count += schur_ones(upper) * schur_ones(lower)
        term = (clp_q_dents(upper)
                * clp_q_dents(reflect_positions(lower, spec.L)).invert_variable())
        for e, v in term.items():
            weights[e] = weights.get(e, 0) + v
    return count, QPoly(weights)


def _shared_dent_spec(rng, y):
    """x in 1..4, 2..5 dents of which at least one is shared by U and D,
    up to min(x, 2) barriers."""
    x = rng.randint(1, 4)
    n = rng.randint(2, 5)
    L = x + y + n
    union = sorted(rng.sample(range(1, L + 1), n))
    shared = rng.choice(union)
    U, D = [], []
    for p in union:
        side = 1 if p == shared else rng.randrange(3)
        if side != 2:
            U.append(p)
        if side != 0:
            D.append(p)
    free = [k for k in range(1, L + 1) if k not in union]
    return make_spec(x, y, U, D, sorted(rng.sample(free, rng.randint(0, min(x, 2)))))


def test_axis_engine_matches_crossing_sum():
    # 42 specs, y = 0..6 in turn: shared dents, barriers, and regions of up
    # to several hundred triangles, past the oracle's default budget
    rng = random.Random(12)
    largest = 0
    for i in range(42):
        spec = _shared_dent_spec(rng, i % 7)
        largest = max(largest, len(build_region(spec).triangles))
        count, weights = _crossing_sum(spec)
        assert count_axis(spec) == count
        assert qcount_axis(spec) == weights
    assert largest > 120


def test_qcount_axis_weights_wider_than_the_count():
    # all dents shared and packed around the one free position: a single
    # tiling, but the weight's coefficients reach 226, past a one-byte digit
    U = (1, 2, 3, 4, 6, 7, 8, 9)
    spec = make_spec(0, 1, U, U)
    region = build_region(spec)
    assert count_axis(spec) == 1
    assert qcount_axis(spec) == _crossing_sum(spec)[1]
    assert qcount_axis(spec) == qcount_brute(region, limit=146)


def test_axis_engine_on_large_hexagons():
    assert count_axis(make_spec(20, 20)) == pp(20, 20, 20)
    big = count_axis(make_spec(40, 40))
    assert big == pp(40, 40, 40) and len(str(big)) == 546
    hexagon = make_spec(8, 8)
    assert qcount_axis(hexagon).eval_one() == count_axis(hexagon)


def _leibniz_det(m):
    n, total = len(m), 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_hankel_det():
    assert _hankel_det([], 0) == 1
    rng = random.Random(13)
    for n in range(1, 5):
        nodes = rng.sample(range(-9, 10), n + 2)
        weights = [rng.randint(1, 50) for _ in nodes]
        moments = [sum(w * z ** m for w, z in zip(weights, nodes))
                   for m in range(2 * n - 1)]
        want = _leibniz_det([moments[i:i + n] for i in range(n)])
        assert want > 0
        assert _hankel_det(moments, n) == want
    # fewer distinct nodes than rows: singular, so a pivot vanishes
    with pytest.raises(ExactnessError):
        _hankel_det([2, 2, 2], 2)
    with pytest.raises(ExactnessError):
        _hankel_det([-1], 1)
