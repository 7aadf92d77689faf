"""Two independent exact counting engines.

count_brute / qcount_brute sum over the perfect matchings of the region's
dual graph (vertices = unit triangles, edges = shared sides honoring the
forbidden crossing positions). A depth-first search always branches on the
lowest-indexed uncovered triangle, so the covered set is a prefix plus a
thin frontier; memoizing on it makes the search a frontier
(transfer-matrix) DP that counts every tiling without visiting each one.
They are the oracle: simple, and obviously faithful to the region.
enumerate_tilings is the only per-tiling walk, for rendering.

BRUTE_LIMIT stays at 120 triangles although the DP reaches far larger
regions. Its memory grows with the number of frontier states, which
depends on the region's shape more than on its size: the flat
make_spec(300, 2) (2,408 triangles) has 11,701 states, while the tall
make_spec(2, 12) (384 triangles) already has 126,764, and the count
climbs steeply with y. The same budget also guards enumerate_tilings,
which is exponential. Callers that know their region is flat pass an
explicit limit; raising the default waits for a measured state bound.

count_axis / qcount_axis cut every tiling along the axis. Exactly y of the
free base positions are straddled by vertical lozenges, so the count is a
sum over y-subsets S of products of two dented-semihexagon counts, with
dents U+S on top and D+S below. The weighted version evaluates the lower
half through the reflected dent set with q replaced by 1/q, which is how
a 180-degree rotation acts on the weights.

Weight convention (pinned by the calibration test qcount on a one-row
semihexagon with dent s giving q^(s-1)): only right-tilting lozenges
{up(a,b), down(a,b)} carry weight, q^(b+1) in rows b >= 0 and q^b in rows
b <= -1; all other lozenges have weight 1.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .exactnum import QPoly
from .formulas import clp_q_dents, schur_ones
from .lattice import (KIND_L, KIND_R, KIND_V, Lozenge, Tiling,
                      TriangularRegion, Triangle, ValidatedSpec,
                      reflect_positions)

BRUTE_LIMIT = 120


class RegionTooLarge(RuntimeError):
    """The region exceeds the configured brute-force triangle budget."""


def _right_tilt_exponent(b: int) -> int:
    return b + 1 if b >= 0 else b


def _dual_graph(region: TriangularRegion):
    """Sorted triangle list plus, per triangle, its partner (index, weight)."""
    tris = sorted(region.triangles)
    index = {t: i for i, t in enumerate(tris)}
    partners: list[list[tuple[int, int]]] = [[] for _ in tris]
    for t in tris:
        if not t.up:
            continue
        i = index[t]
        mates = (
            (Triangle(t.a, t.b, False), _right_tilt_exponent(t.b)),  # R
            (Triangle(t.a - 1, t.b, False), 0),                      # L
            (Triangle(t.a, t.b - 1, False), 0),                      # V
        )
        for mate, w in mates:
            j = index.get(mate)
            if j is None:
                continue
            if (mate.b == t.b - 1 and t.b == 0
                    and (t.a + 1) in region.forbidden_vertical):
                continue
            partners[i].append((j, w))
            partners[j].append((i, w))
    for ps in partners:
        ps.sort()
    return tris, partners


def _check_size(region: TriangularRegion, limit: int | None):
    m = len(region.triangles)
    cap = BRUTE_LIMIT if limit is None else limit
    if m > cap:
        raise RegionTooLarge(f"{m} triangles exceeds the limit {cap}")
    return m


def _matching_sum(region: TriangularRegion, one, combine):
    """Sum over the perfect matchings of the dual graph, memoized on the
    covered bitmask.

    A state is worth combine([(child value, edge weight), ...]) over its
    moves (combine([]) at a dead end); the fully covered state, which for
    the empty region is the start, is worth `one`. The post-order DFS
    keeps an explicit stack, so deep regions do not hit the interpreter's
    recursion limit.
    """
    if len(region.triangles) % 2:
        return combine([])
    _, partners = _dual_graph(region)
    full = (1 << len(partners)) - 1
    memo = {full: one}
    pending: dict[int, list[tuple[int, int]]] = {}
    stack = [0]
    while stack:
        covered = stack.pop()
        if covered in memo:
            continue
        moves = pending.pop(covered, None)
        if moves is None:
            low = ~covered & (covered + 1)
            moves = [(covered | low | 1 << j, w)
                     for j, w in partners[low.bit_length() - 1]
                     if not covered >> j & 1]
            todo = [c for c, _ in moves if c not in memo]
            if todo:
                pending[covered] = moves
                stack.append(covered)
                stack += todo
                continue
        memo[covered] = combine([(memo[c], w) for c, w in moves])
    return memo[0]


def _sum_counts(kids: list[tuple[int, int]]) -> int:
    return sum(v for v, _ in kids)


def _sum_weighted(kids: list[tuple[QPoly, int]]) -> QPoly:
    if not kids:
        return QPoly.zero()
    polys = [v.shifted(w) if w else v for v, w in kids]
    return sum(polys[1:], polys[0])


def count_brute(region: TriangularRegion, limit: int | None = None) -> int:
    """Number of perfect matchings of the dual graph; empty region -> 1."""
    _check_size(region, limit)
    return _matching_sum(region, 1, _sum_counts)


def qcount_brute(region: TriangularRegion, limit: int | None = None) -> QPoly:
    """Sum of q-weights over all tilings, as a Laurent polynomial."""
    _check_size(region, limit)
    return _matching_sum(region, QPoly.one(), _sum_weighted)


def _classify(up: Triangle, down: Triangle) -> Lozenge:
    if down.a == up.a and down.b == up.b:
        return Lozenge(KIND_R, up.a, up.b)
    if down.a == up.a - 1 and down.b == up.b:
        return Lozenge(KIND_L, up.a, up.b)
    if down.a == up.a and down.b == up.b - 1:
        return Lozenge(KIND_V, up.a, up.b)
    raise ValueError("triangles do not form a lozenge")


def enumerate_tilings(region: TriangularRegion, limit: int | None = None,
                      max_triangles: int | None = None) -> list[Tiling]:
    """All tilings in deterministic DFS order, truncated at limit."""
    m = _check_size(region, max_triangles)
    if m == 0:
        return [Tiling()]
    if m % 2:
        return []
    tris, partners = _dual_graph(region)
    full = (1 << m) - 1
    out: list[Tiling] = []

    def rec(covered: int, chosen: list[Lozenge]) -> bool:
        if limit is not None and len(out) >= limit:
            return False
        if covered == full:
            out.append(Tiling(chosen))
            return limit is None or len(out) < limit
        rest = full & ~covered
        i = (rest & -rest).bit_length() - 1
        for j, _ in partners[i]:
            if not covered >> j & 1:
                a, b = tris[i], tris[j]
                if not a.up:
                    a, b = b, a
                chosen.append(_classify(a, b))
                alive = rec(covered | (1 << i) | (1 << j), chosen)
                chosen.pop()
                if not alive:
                    return False
        return True

    rec(0, [])
    return out


def tiling_qweight(tiling: Tiling) -> QPoly:
    """Weight monomial of one tiling: q to the summed right-tilt exponents."""
    e = 0
    for loz in tiling:
        if loz.kind == KIND_R:
            e += _right_tilt_exponent(loz.b)
    return QPoly.monomial(e)


def crossing_subsets(free: Sequence[int], y: int) -> Iterator[tuple[int, ...]]:
    """y-subsets of the free positions in colexicographic order."""
    items = tuple(free)

    def colex(n: int, k: int) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        for last in range(k - 1, n):
            for rest in colex(last, k - 1):
                yield rest + (last,)

    for idxs in colex(len(items), y):
        yield tuple(items[i] for i in idxs)


def count_axis(spec: ValidatedSpec) -> int:
    """Closed-form count: sum over crossing subsets of semihexagon products."""
    total = 0
    for S in crossing_subsets(spec.free, spec.y):
        upper = tuple(sorted(spec.U + S))
        lower = tuple(sorted(spec.D + S))
        total += schur_ones(upper) * schur_ones(lower)
    return total


def qcount_axis(spec: ValidatedSpec) -> QPoly:
    """Closed-form tiling generating function, exactly equal to qcount_brute.

    Upper halves are weighted as dented semihexagons; lower halves are the
    reflected dent sets evaluated at 1/q.
    """
    total: dict[int, int] = {}
    for S in crossing_subsets(spec.free, spec.y):
        upper = tuple(sorted(spec.U + S))
        lower = reflect_positions(sorted(spec.D + S), spec.L)
        term = clp_q_dents(upper) * clp_q_dents(lower).invert_variable()
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    return QPoly(total)
