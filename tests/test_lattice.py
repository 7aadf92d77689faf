import random
from itertools import combinations, product

import pytest

from dentedhex.harness import (CORPUS_BOUNDS, CORPUS_MAX_SIZE, demo_spec,
                               engine_corpus, random_region_spec)
from dentedhex.lattice import (LOZENGE_MATES, BarrierOverlap, ClusterSpec,
                               DuplicateEntry, GeometryMismatch, Lozenge,
                               NotSorted, PositionOutOfRange, SpecError,
                               TooManyBarriers, Triangle, UP, build_region,
                               clusters_to_spec, dent_triangles,
                               lozenge_triangles, make_spec,
                               spec_from_json_dict, reflect_positions,
                               triangle_count)


def test_validate_demo_instance():
    s = make_spec(4, 3, (2, 4, 5, 8, 11), (4, 9, 11, 12), (6, 13))
    assert s.L == 14
    assert s.free == (1, 3, 7, 10, 14)


def test_validate_trivial():
    s = make_spec(1, 1)
    assert s.L == 2
    assert s.free == (1, 2)


@pytest.mark.parametrize("raw,err", [
    ((0, 0, (), (), (1,)), TooManyBarriers),
    ((2, 1, (1, 1), ()), DuplicateEntry),
    ((2, 1, (3, 1), ()), NotSorted),
    ((2, 1, (9,), ()), PositionOutOfRange),
    ((2, 1, (1,), (), (1,)), BarrierOverlap),
    ((2, 1, (0,), ()), PositionOutOfRange),
])
def test_validate_errors(raw, err):
    with pytest.raises(err):
        make_spec(*raw)


# Inputs with two faults each, and the first fault make_spec names: the
# exception class and message are pinned exactly, so a faster validator
# must keep the order of its checks and the wording of each error.
@pytest.mark.parametrize("raw,err,msg", [
    # nonpositive and unsorted: every entry is checked for >= 1 first
    ((2, 1, (3, 0), ()), PositionOutOfRange, "U position 0 is not >= 1"),
    ((2, 1, (2, 1, -1), ()), PositionOutOfRange, "U position -1 is not >= 1"),
    ((3, 1, (), (5, 4, 0)), PositionOutOfRange, "D position 0 is not >= 1"),
    ((3, 1, (2, 1), (0,)), NotSorted, "U is not strictly increasing at 2,1"),
    ((2, 1, (1, 1, 0), ()), PositionOutOfRange, "U position 0 is not >= 1"),
    # duplicate and out of range: order within a list before the base length
    ((2, 1, (9, 9), ()), DuplicateEntry, "U contains 9 twice"),
    ((1, 1, (1,), (7, 7)), DuplicateEntry, "D contains 7 twice"),
    ((2, 1, (8,), (), (3, 3)), DuplicateEntry, "B contains 3 twice"),
    ((2, 1, (1, 3), (2,), (9, 1)), NotSorted,
     "B is not strictly increasing at 9,1"),
    # overlap and too many barriers: the overlap is named first
    ((1, 1, (2,), (), (2, 3)), BarrierOverlap,
     "barriers [2] collide with dents"),
    ((0, 2, (1,), (1,), (1,)), BarrierOverlap,
     "barriers [1] collide with dents"),
    ((1, 0, (5,), (), (5,)), BarrierOverlap,
     "barriers [5] collide with dents"),
    ((0, 1, (), (), (9,)), TooManyBarriers, "1 barriers but x=0"),
    ((-1, 1, (0,)), SpecError, "x and y must be nonnegative"),
    # two positions past L: the first in the blocked set's iteration order
    ((1, 0, (17,), (), (9,)), PositionOutOfRange,
     "position 17 exceeds the base length 2"),
    ((2, 0, (5, 13), (21,), ()), PositionOutOfRange,
     "position 13 exceeds the base length 5"),
    ((1, 0, (3,), (17,), (9,)), PositionOutOfRange,
     "position 17 exceeds the base length 3"),
])
def test_validate_error_precedence(raw, err, msg):
    with pytest.raises(SpecError) as info:
        make_spec(*raw)
    assert type(info.value) is err
    assert str(info.value) == msg


def test_unit_hexagon_triangles():
    region = build_region(make_spec(1, 1))
    ups = {t for t in region.triangles if t.up}
    downs = {t for t in region.triangles if not t.up}
    # 2 ups + 1 down above the axis; 2 downs + 1 up below
    assert {t for t in ups if t.b == 0} == {Triangle(0, 0, True), Triangle(1, 0, True)}
    assert {t for t in downs if t.b == 0} == {Triangle(0, 0, False)}
    assert {t for t in downs if t.b == -1} == {Triangle(0, -1, False), Triangle(1, -1, False)}
    assert {t for t in ups if t.b == -1} == {Triangle(1, -1, True)}
    assert len(region.triangles) == 6


def test_flat_region_with_dents():
    region = build_region(make_spec(1, 0, (1,), (2,)))
    upper_ups = {t for t in region.triangles if t.up and t.b == 0}
    upper_downs = {t for t in region.triangles if not t.up and t.b == 0}
    assert upper_ups == {Triangle(1, 0, True), Triangle(2, 0, True)}
    assert upper_downs == {Triangle(0, 0, False), Triangle(1, 0, False)}
    lower_downs = {t for t in region.triangles if not t.up and t.b == -1}
    assert lower_downs == {Triangle(0, -1, False), Triangle(2, -1, False)}


def _corners(t: Triangle) -> set:
    """Oblique-basis corners, as the lattice module docstring gives them."""
    if t.up:
        return {(t.a, t.b), (t.a + 1, t.b), (t.a, t.b + 1)}
    return {(t.a + 1, t.b), (t.a, t.b + 1), (t.a + 1, t.b + 1)}


def test_lozenge_mates_are_the_neighbours_counterclockwise():
    up = Triangle(2, -1, True)
    sides = []
    for kind, da, db in LOZENGE_MATES:
        got_up, down = lozenge_triangles(Lozenge(kind, up.a, up.b))
        assert (got_up, down) == (up, Triangle(up.a + da, up.b + db, False))
        sides.append(_corners(up) & _corners(down))
    # the bottom side, the right side, the left side
    assert sides == [{(2, -1), (3, -1)}, {(3, -1), (2, 0)}, {(2, 0), (2, -1)}]
    with pytest.raises(ValueError):
        lozenge_triangles(Lozenge("X", 0, 0))


def test_dent_triangles():
    spec = make_spec(1, 0, (1,), (2,))
    assert list(dent_triangles(spec)) == [Triangle(0, 0, True),
                                          Triangle(1, -1, False)]
    rng = random.Random(22)
    for _ in range(20):
        spec = random_region_spec(rng, max_L=8)
        dents = list(dent_triangles(spec))
        assert len(dents) == len(spec.U) + len(spec.D)
        assert build_region(spec).triangles.isdisjoint(dents)


def test_build_region_balanced_and_rows():
    rng = random.Random(21)
    for _ in range(60):
        spec = random_region_spec(rng, max_L=8)
        region = build_region(spec)
        assert region.up_count() == region.down_count()
        by_row_up = {}
        by_row_down = {}
        for t in region.triangles:
            d = by_row_up if t.up else by_row_down
            d[t.b] = d.get(t.b, 0) + 1
        L = spec.L
        u, d = len(spec.U), len(spec.D)
        for b in range(spec.y + u):
            assert by_row_up.get(b, 0) == L - b - (u if b == 0 else 0)
            assert by_row_down.get(b, 0) == L - 1 - b
        for b in range(-(spec.y + d), 0):
            assert by_row_down.get(b, 0) == L + b + 1 - (d if b == -1 else 0)
            assert by_row_up.get(b, 0) == L + b


def test_reflect_positions():
    assert reflect_positions((2,), 3) == (2,)
    assert reflect_positions((1, 4), 5) == (2, 5)
    S = (2, 4, 5)
    assert reflect_positions(reflect_positions(S, 14), 14) == S
    with pytest.raises(PositionOutOfRange):
        reflect_positions((6,), 5)


def test_clusters_to_spec():
    c = ClusterSpec((("up",), ("down",)), (2,))
    s = clusters_to_spec(c, 1, 1)
    assert (s.U, s.D, s.L) == ((1,), (4,), 4)
    c2 = ClusterSpec(((), ("up", "down"), ()), (1, 1))
    s2 = clusters_to_spec(c2, 1, 1)
    assert (s2.U, s2.D, s2.L) == ((2,), (3,), 4)
    with pytest.raises(GeometryMismatch):
        clusters_to_spec(c, 2, 2)


def test_cluster_roundtrip():
    rng = random.Random(22)
    for _ in range(80):
        k = rng.randint(2, 4)
        clusters = []
        for i in range(k):
            if i in (0, k - 1) and rng.random() < 0.3:
                clusters.append(())
            else:
                clusters.append(tuple(rng.choice(("up", "down"))
                                      for _ in range(rng.randint(1, 3))))
        gaps = tuple(rng.randint(1, 3) for _ in range(k - 1))
        c = ClusterSpec(tuple(clusters), gaps)
        x = rng.randint(0, sum(gaps))
        y = sum(gaps) - x
        spec = clusters_to_spec(c, x, y)
        assert spec.L == sum(c.lengths) + sum(c.gaps)
        assert spec.B == ()
        # cluster i starts after the earlier clusters and gaps
        U, D = [], []
        for i, cluster in enumerate(c.clusters):
            start = 1 + sum(c.lengths[:i]) + sum(c.gaps[:i])
            for k, tok in enumerate(cluster):
                (U if tok == UP else D).append(start + k)
        assert (spec.U, spec.D) == (tuple(U), tuple(D))


def test_cluster_validation():
    with pytest.raises(Exception):
        ClusterSpec((("up",), (), ("down",)), (1, 1))  # empty middle
    with pytest.raises(Exception):
        ClusterSpec((("up",), ("down",)), (0,))  # nonpositive gap
    with pytest.raises(Exception):
        ClusterSpec((("sideways",),), ())


def test_semihex_spec():
    # the semihexagon with dents S on a base of a+b is make_spec(b, 0, S)
    region = build_region(make_spec(2, 0, (1, 4)))
    assert region.up_count() == region.down_count()
    assert {t.b for t in region.triangles} == {0, 1}
    with pytest.raises(PositionOutOfRange):
        make_spec(1, 0, (3,))


def test_json_wire_format():
    s = spec_from_json_dict({"x": 1, "y": 1, "U": [1], "D": [2], "B": []})
    assert s == make_spec(1, 1, (1,), (2,))
    assert s.to_json_dict() == {"x": 1, "y": 1, "U": [1], "D": [2], "B": []}
    with pytest.raises(Exception):
        spec_from_json_dict({"x": 1, "y": 1, "Z": []})
    with pytest.raises(Exception):
        spec_from_json_dict({"y": 1})


def test_triangle_count_needs_no_region():
    specs = engine_corpus(seed=7) + [demo_spec(), make_spec(8, 8),
                                     make_spec(300, 2)]
    for spec in specs:
        assert triangle_count(spec) == len(build_region(spec).triangles)
    assert triangle_count(demo_spec()) == 298


def test_degenerate_regions():
    assert len(build_region(make_spec(0, 0)).triangles) == 0
    assert len(build_region(make_spec(1, 0)).triangles) == 0


def _specs_within_corpus_bounds() -> set:
    """Every spec random_region_spec can return under CORPUS_BOUNDS, by
    enumerating its choices: L, the occupied positions and the side of
    each, y, and the barriers."""
    max_dents, max_b = CORPUS_BOUNDS["max_dents"], CORPUS_BOUNDS["max_b"]
    out = set()
    for L in range(1, CORPUS_BOUNDS["max_L"] + 1):
        for n in range(min(2 * max_dents, L) + 1):
            for union in combinations(range(1, L + 1), n):
                free = [k for k in range(1, L + 1) if k not in union]
                for sides in product(("U", "D", "UD"), repeat=n):
                    U = [p for p, s in zip(union, sides) if "U" in s]
                    D = [p for p, s in zip(union, sides) if "D" in s]
                    if len(U) > max_dents or len(D) > max_dents:
                        continue
                    for y in range(min(CORPUS_BOUNDS["max_y"], L - n) + 1):
                        x = L - n - y
                        for nb in range(min(max_b, x, len(free)) + 1):
                            out.update(make_spec(x, y, U, D, B)
                                       for B in combinations(free, nb))
    return out


def test_corpus_max_size_counts_every_spec_within_the_bounds():
    specs = _specs_within_corpus_bounds()
    # the L = 0 anchor is the one corpus spec no draw can give
    assert len(specs) + 1 == CORPUS_MAX_SIZE == 46_007
    assert set(engine_corpus(seed=7)) - specs == {make_spec(0, 0)}
