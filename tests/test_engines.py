import builtins
import copy
import hashlib
import pickle
import random
import tracemalloc
from itertools import combinations, islice, permutations
from math import comb
from operator import lshift, mul

import pytest

from dentedhex import engines, formulas, lattice
from dentedhex.engines import (RegionTooLarge, _count_bound, _hankel_det,
                               _moments, check_size, count_axis, count_brute,
                               enumerate_tilings, qcount_axis, qcount_brute)
from dentedhex.exactnum import ExactnessError, QPoly, digit_width
from dentedhex.formulas import clp_q_dents, pp, pp_q, schur_ones
from dentedhex.harness import demo_spec, engine_corpus, random_region_spec
from dentedhex.theorems import crossing_subsets
from dentedhex.lattice import (LOZENGE_MATES, Triangle, TriangularRegion,
                               _dual_graph, _right_tilt_exponent, _sweep,
                               build_region, lozenge_triangles, make_spec,
                               reflect_positions)


def test_count_anchors():
    assert count_brute(build_region(make_spec(1, 0))) == 1
    assert count_brute(build_region(make_spec(1, 1))) == 2
    assert count_brute(build_region(make_spec(2, 2))) == pp(2, 2, 2)
    assert count_axis(make_spec(1, 1)) == 2
    assert count_axis(make_spec(2, 2)) == 20


def test_count_axis_with_crossings_calls_no_closed_form(monkeypatch):
    # for y > 0 the count is one quotient of the dents' Vandermonde
    # products and the Hankel determinant, with no schur_ones factor
    spec = make_spec(2, 2, (1,), (3,))
    want = count_brute(build_region(spec))

    def refuse(S):
        raise AssertionError("count_axis called schur_ones")

    monkeypatch.setattr(engines, "schur_ones", refuse)
    assert count_axis(spec) == want


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
    weights = sorted(_tiling_exponent(t) for t in enumerate_tilings(region))
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
    walk = enumerate_tilings(region)
    assert iter(walk) is walk  # an iterator: nothing listed up front
    tilings = list(walk)
    assert len(tilings) == 2
    for t in tilings:
        covered = [tri for loz in t for tri in lozenge_triangles(loz)]
        assert len(covered) == len(set(covered)) == len(region.triangles)
        assert set(covered) == set(region.triangles)
    assert list(islice(enumerate_tilings(region), 1)) == tilings[:1]
    # repeat runs give the same order
    assert list(enumerate_tilings(region)) == tilings
    empty = build_region(make_spec(0, 0))
    assert list(enumerate_tilings(empty)) == [frozenset()]


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
        [sorted(t) for t in enumerate_tilings(build_region(s))]
        for s in specs)
    assert digest == ("bb31d66bd3ba904757fb218b345c5b1c"
                      "b3402504293fdf934f85d87febdd3d39")


def _partners(region, key=None):
    """The triangles and, per triangle, its sorted partner (index, weight)
    list, both ends of each edge: the graph as _dual_graph returned it
    before it listed each edge once, as a forward move."""
    tris, moves, _, _ = _dual_graph(region, key)
    partners = [[] for _ in tris]
    for i, ms in enumerate(moves):
        for j, w in ms:
            partners[i].append((j, w))
            partners[j].append((i, w))
    for ps in partners:
        ps.sort()
    return tris, partners


def test_dual_graph_is_pinned():
    # triangles, partner indices and weights, recorded before the mates
    # came from lattice.LOZENGE_MATES
    corpus = [build_region(s) for s in engine_corpus(seed=7, size=300)]
    assert _sha256(map(_partners, corpus)) == (
        "f53d70c892a4a80cc7161b679ce5cb0cd79a8e3e87575decba11492301df92fb")
    rng = random.Random(11)
    barred = [build_region(s) for s in [demo_spec()] + [
        random_region_spec(rng, max_L=9, max_y=3, max_dents=3, max_b=3)
        for _ in range(100)]]
    # the barriers remove vertical edges from some of these graphs
    assert any(_dual_graph(r) != _dual_graph(
        TriangularRegion(r.triangles, frozenset())) for r in barred)
    assert _sha256(map(_partners, barred)) == (
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


def test_qcount_axis_without_crossings_builds_no_nodes():
    # y = 0 is the empty determinant; the nodes 1 << k*s of 20,000 free
    # positions it once built anyway took a 204 MB traced peak
    spec = make_spec(20000, 0)
    tracemalloc.start()
    try:
        assert qcount_axis(spec) == QPoly.monomial(0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


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
        assert count_brute(region) == len(list(enumerate_tilings(region)))
    assert count_brute(regions[0]) == 1


def test_region_too_large():
    region = build_region(make_spec(3, 3))
    with pytest.raises(RegionTooLarge):
        count_brute(region, limit=10)
    with pytest.raises(RegionTooLarge):
        qcount_brute(region, limit=10)


def test_region_too_large_is_bad_input():
    # a ValueError, like SpecError: the CLI's exit-1 branch catches both
    with pytest.raises(ValueError,
                       match="^121 triangles exceeds the limit 120$"):
        check_size(121, None)


def test_oracle_survives_deep_regions():
    # 2,408 triangles: a recursive walk would nest 1,204 calls deep
    region = build_region(make_spec(300, 2))
    assert count_brute(region, limit=2408) == pp(300, 2, 2)
    tilings = list(islice(enumerate_tilings(region), 2))
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


EMPTY = _hand_region()
# up(0,0) can only take down(0,0), so up(1,0) takes down(1,0)
ONE = _hand_region((0, 0, True), (0, 0, False), (1, 0, True), (1, 0, False))
# both up triangles have only down(0,0); down(3,0) touches neither
STUCK = _hand_region((0, 0, True), (0, 0, False), (1, 0, True),
                     (3, 0, False))


def _graph_corpus():
    """engine_corpus(seed=7), the demo region and the hand-built regions."""
    regions = [build_region(spec) for spec in engine_corpus(seed=7, size=300)]
    return regions + [build_region(demo_spec()), EMPTY, ONE, STUCK]


def _mates_edges(region):
    """{(up, down): weight} for each edge of the dual graph, read off
    lattice.LOZENGE_MATES: a barrier at position p removes the vertical
    edge of up(p - 1, 0)."""
    out = {}
    for t in region.triangles:
        if not t.up:
            continue
        for kind, da, db in LOZENGE_MATES:
            down = Triangle(t.a + da, t.b + db, False)
            if down not in region.triangles or (
                    kind == "V" and t.b == 0
                    and t.a + 1 in region.forbidden_vertical):
                continue
            out[t, down] = _right_tilt_exponent(t.b) if kind == "R" else 0
    return out


def _move_edges(tris, moves):
    """{(up, down): weight} for each forward move; each edge once."""
    out = {}
    for i, ms in enumerate(moves):
        assert [j for j, _ in ms] == sorted({j for j, _ in ms})
        for j, w in ms:
            assert j > i
            t, u = tris[i], tris[j]
            pair = (t, u) if t.up else (u, t)
            assert pair not in out
            out[pair] = w
    return out


def test_dual_graph_lists_each_edge_once_as_a_forward_move():
    regions = _graph_corpus()
    for region in regions:
        edges = _mates_edges(region)
        for key in (None, _sweep):
            tris, moves, off, degrees = _dual_graph(region, key)
            assert tris == sorted(region.triangles, key=key)
            assert _move_edges(tris, moves) == edges
            assert sum(degrees) == sum(map(len, moves))
            assert degrees == [sum(up == t for up, _ in edges)
                               for t in tris if t.up]
            assert off == [min((w for (up, _), w in edges.items() if up == t),
                               default=0) if t.up else 0 for t in tris]
    # a barrier at p removes exactly the vertical edge of up(p - 1, 0)
    lost = 0
    for region in [r for r in regions if r.forbidden_vertical]:
        free = TriangularRegion(region.triangles, frozenset())
        edges = _move_edges(*_dual_graph(free)[:2])
        cut = {(Triangle(p - 1, 0, True), Triangle(p - 1, -1, False))
               for p in region.forbidden_vertical}
        assert _move_edges(*_dual_graph(region)[:2]) == {
            e: w for e, w in edges.items() if e not in cut}
        lost += len(cut & set(edges))
    assert lost


def test_matching_sum_values_match_the_layer_dp():
    regions = _graph_corpus()

    def matching_sum(region, k):
        _, moves, off, _ = _dual_graph(region, _sweep)
        return engines._matching_sum(moves, off, k)

    for region in regions:
        # the layer DP reads both ends of each edge and takes its own
        # offsets
        graph = _partners(region, _sweep)
        for k in (0, 8 * digit_width(_count_bound(_dual_graph(region)[3]))):
            assert matching_sum(region, k) == _layer_sum(*graph, k)
    assert matching_sum(EMPTY, 8) == (1, 0)
    # its two right-tilting lozenges weigh q^2: q^low = q from up(0,0)'s
    # only edge, and P(q) = q from up(1,0)'s heavier edge
    assert matching_sum(ONE, 8) == (1 << 8, 1)
    assert matching_sum(STUCK, 0)[0] == 0


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


def _spy_builds(monkeypatch) -> list:
    """Record the triangle order of each graph the region property builds,
    at the builder it calls."""
    built = []
    dual_graph = lattice._dual_graph

    def spy(region, key=None):
        graph = dual_graph(region, key)
        built.append(graph[0])
        return graph

    monkeypatch.setattr(lattice, "_dual_graph", spy)
    return built


def test_sweep_keeps_the_frontier_to_one_cut(monkeypatch):
    # both oracles run their DP on one graph, built once in the sweep order
    built = _spy_builds(monkeypatch)
    ran = []
    matching_sum = engines._matching_sum

    def dp(moves, off, k):
        ran.append(moves)
        return matching_sum(moves, off, k)

    monkeypatch.setattr(engines, "_matching_sum", dp)
    region = build_region(make_spec(2, 2))
    count_brute(region)
    qcount_brute(region)
    assert built == [sorted(region.triangles, key=_sweep)]
    assert len(ran) == 2
    assert all(moves is region.sweep_graph[1] for moves in ran)
    # cut hex(x, y) along a lattice line and the two sides share only which
    # x of the x + y crossing positions the paths use; the sorted order
    # (a, b, up) keeps 260, 406, 120, 434, 1,596 and 5,940 states here
    for x, y in [(2, 7), (3, 6), (4, 4), (5, 5), (6, 6), (7, 7)]:
        region = build_region(make_spec(x, y))
        assert _widest_layer(*_partners(region, _sweep)) == comb(x + y, x)
    # barriers and shared dents; the sorted order keeps 5,299
    region = build_region(demo_spec())
    assert _widest_layer(*_partners(region, _sweep)) <= 1904


def test_equal_regions_built_apart_build_their_own_graphs(monkeypatch):
    built = _spy_builds(monkeypatch)
    specs = engine_corpus(seed=7)
    for spec in specs:
        first, second = build_region(spec), build_region(spec)
        assert first == second
        count_brute(first)
        qcount_brute(second)
        assert first.sweep_graph == second.sweep_graph
        assert first.sweep_graph is not second.sweep_graph
    assert len(built) == 2 * len(specs)


def test_a_filled_graph_leaves_the_region_value_unchanged():
    for spec in engine_corpus(seed=7):
        region, fresh = build_region(spec), build_region(spec)
        before = hash(region), repr(region), pickle.dumps(region)
        qcount_brute(region)
        assert "sweep_graph" in vars(region)
        assert region == fresh and hash(region) == hash(fresh)
        assert (hash(region), repr(region), pickle.dumps(region)) == before
        for twin in (pickle.loads(before[2]), copy.copy(region)):
            assert twin == region and "sweep_graph" not in vars(twin)


def test_count_on_a_filled_graph_matches_a_fresh_region():
    for spec in engine_corpus(seed=7):
        filled = build_region(spec)
        qcount_brute(filled)
        assert count_brute(filled) == count_brute(build_region(spec))


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
        assert _count_bound(_dual_graph(region)[3]) >= count_brute(region,
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


def test_qcount_axis_moments_carry_no_power_of_q(monkeypatch):
    # the weight at the first free position is a product of odd factors
    # Q^d - 1 and its node is Q^0; every other term of a moment has a
    # factor Q, so each moment handed to the determinant is odd
    seen = []

    def spy(moments, n):
        seen.append(list(moments))
        return _hankel_det(moments, n)
    monkeypatch.setattr(engines, "_hankel_det", spy)
    for spec in engine_corpus(seed=7)[:60] + [make_spec(5, 5), demo_spec()]:
        if spec.y:
            seen.clear()
            qcount_axis(spec)
            assert all(m % 2 for m in seen[-1]), spec


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


def _moments_node_by_node(weights, nodes, y):
    """_moments as a double loop: each node's powers, one at a time."""
    out = [0] * (2 * y - 1)
    for w, z in zip(weights, nodes):
        for m in range(len(out)):
            out[m] += w
            w *= z
    return out


def test_moments_match_the_node_by_node_loop():
    rng = random.Random(30)
    for y in range(1, 6):
        for _ in range(30):
            n = rng.randint(1, 12)
            weights = [rng.randint(-10**6, 10**6) for _ in range(n)]
            nodes = [rng.randint(-40, 40) for _ in range(n)]
            given = list(weights)
            assert (_moments(weights, nodes, y, mul)
                    == _moments_node_by_node(weights, nodes, y))
            assert weights == given  # the caller's list is left alone
    # qcount_axis's input: nodes Q^d = 1 << k*d stepped as shifts by k*d,
    # weights of many k-bit digits
    k = 64
    weights = [rng.getrandbits(k * rng.randint(1, 40)) for _ in range(7)]
    steps = [k * d for d in (0, 1, 2, 4, 5, 8, 11)]
    assert (_moments(weights, steps, 5, lshift)
            == _moments_node_by_node(weights, [1 << d for d in steps], 5))


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


def _hankel_moments(weights, nodes, n):
    return [sum(w * z ** m for w, z in zip(weights, nodes))
            for m in range(2 * n - 1)]


def test_hankel_det_strips_shared_powers_of_two():
    # every moment carries 2^35 or more, so each matrix strips at step 0;
    # the q-style nodes 2^(32 d) make later steps' minors share more zeros
    rng = random.Random(36)
    for n in range(7):
        for nodes, weights in (
                ([1 << 32 * d for d in rng.sample(range(9), n + 1)],
                 [rng.randint(1, 99) << 35 for _ in range(n + 1)]),
                (rng.sample(range(-9, 10), n + 2),
                 [rng.randint(1, 50) << 36 for _ in range(n + 2)])):
            moments = _hankel_moments(weights, nodes, n)
            want = _leibniz_det([moments[i:i + n] for i in range(n)])
            assert want > 0 and all(m % 2**35 == 0 for m in moments)
            assert _hankel_det(moments, n) == want
    # step 0 strips 33 bits, the least of the moments' zeros, and its pivot
    # keeps 7 of its 40: step 1 divides by that pivot's odd part
    moments = _hankel_moments([3 * 2**40 - 2**33 - 2**36, 2**33, 2**36],
                              [0, 1, 2], 3)
    assert [(m & -m).bit_length() - 1 for m in moments] == [40, 33, 33, 33, 33]
    cases = [(moments, 3)]
    # step 0 strips 1 bit and its pivot keeps 31: step 1 divides by part of
    # that pivot, and step 2 by a pivot shifted left
    cases.append(([2**32, -14, 2, 0, 32, -6, 5 * 2**31], 4))
    # positive leading minors with uneven powers of two
    rng = random.Random(37)
    for _ in range(300):
        n = rng.randint(2, 5)
        moments = [rng.randint(-2**20, 2**20)
                   << rng.choice((0, 0, 1, 5, 31, 40, 64, 100))
                   for _ in range(2 * n - 1)]
        for m in range(0, 2 * n - 1, 2):
            if rng.random() < 0.5:
                moments[m] = abs(moments[m]) << rng.choice((30, 31, 60, 90))
        cases.append((moments, n))
    for moments, n in cases:
        minors = [_leibniz_det([moments[i:i + j] for i in range(j)])
                  for j in range(1, n + 1)]
        if min(minors) > 0:
            assert _hankel_det(moments, n) == minors[-1]


def _plus_one(f):
    return lambda *args: f(*args) + 1


# One planted fault per ExactnessError check that no other test reaches:
# the module and name rebound, the stand-in built from the original, the
# call that must reach the check, and the message it must raise with.
PLANTED_FAULTS = {
    "_hankel_det": (builtins, "divmod", lambda f: lambda a, b: f(a, b + 1),
                    lambda: _hankel_det([2, 0, 1, 0, 1], 3),
                    "^inexact Bareiss division$"),
    "count_axis": (engines, "_hankel_det", _plus_one,
                   lambda: count_axis(make_spec(2, 2, (1,), (3,))),
                   r"^count_axis\(.*\) is not an integer$"),
    "qcount_axis": (engines, "count_axis", _plus_one,
                    lambda: qcount_axis(make_spec(2, 2, (1,), (3,))),
                    r"^qcount_axis\(.*\) is not a polynomial with "
                    r"coefficients summing to 163$"),
    "qcount_brute": (engines, "_count_bound", lambda f: lambda degrees: 1,
                     lambda: qcount_brute(build_region(make_spec(4, 3))),
                     "^qcount_brute: a packed coefficient overflowed its "
                     "digit$"),
    "pp": (formulas, "_pp_exponents",
           lambda f: lambda *abc: (f(*abc)[0][1:], f(*abc)[1]),
           lambda: pp(2, 2, 2), r"^pp\(2, 2, 2\) = 20/3 is not an integer$"),
    "schur_ones": (formulas, "delta", _plus_one,
                   lambda: schur_ones((1, 2, 4)),
                   r"^schur_ones\(\(1, 2, 4\)\) = 7/2 is not an integer$"),
    "clp_q_dents": (formulas, "schur_ones", _plus_one,
                    lambda: clp_q_dents((1, 3)),
                    r"^clp_q_dents\(\(1, 3\)\) is not a polynomial with "
                    r"coefficients summing to 3$"),
    "one_minus_q_quotient": (formulas, "_pp_exponents",
                             lambda f: lambda *abc: (f(*abc)[0],
                                                     [*f(*abc)[1], 97]),
                             lambda: pp_q(2, 2, 2),
                             "^denominator factor exceeds degree$"),
    "build_region": (lattice, "dent_triangles",
                     lambda f: lambda spec: [*f(spec), Triangle(0, 0, True)],
                     lambda: build_region(make_spec(2, 2)),
                     "^region must be balanced$"),
}


@pytest.mark.parametrize("site", PLANTED_FAULTS)
def test_exactness_checks_fire_on_planted_faults(site, monkeypatch):
    # ExactnessError, not assert: CI runs this test under python -O too
    module, name, plant, call, message = PLANTED_FAULTS[site]
    monkeypatch.setattr(module, name, plant(getattr(module, name)))
    with pytest.raises(ExactnessError, match=message):
        call()
