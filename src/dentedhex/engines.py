"""Two independent exact counting engines.

count_brute / qcount_brute sum over the perfect matchings of the region's
dual graph (vertices = unit triangles, edges = shared sides honoring the
forbidden crossing positions). A forward DP walks the triangles in sweep
order (_sweep: column by column, each from the top) and extends a partial
matching only at its lowest uncovered triangle, the order in which
enumerate_tilings' DFS extends a partial tiling. Matchings that share
their lowest uncovered triangle i are told apart only by the later
triangles they cover, so one dict per i (that set -> summed value) is all
the DP keeps; step i empties the dict of i into the dicts further on. It
counts every tiling without visiting each one. They are the oracle:
simple, and obviously faithful to the region; its edges come from
lattice.LOZENGE_MATES. enumerate_tilings is the only per-tiling walk, for
rendering: depth first over the same edges, on an explicit state stack,
in sorted (a, b, up) order, which fixes the order of the tilings it
lists.

Both run one DP on plain ints, with the q-weights evaluated at q = 2^k:
matching along an edge of weight w shifts a value left by k*w bits, and
count_brute is k = 0. Each up triangle is matched exactly once, so its
least edge weight is first taken off all its edges; every shift is then
nonnegative and the sum is q^low * P(q), low the sum of those least
weights. qcount_brute reads P back as k-bit digits (QPoly.from_packed).
Its coefficients are nonnegative and sum to the count, the permanent of
the 0-1 up x down adjacency matrix, so Bregman's bound on that permanent,
a product over the up triangles' degrees, sizes the digits without a
counting pass. A digit that overflowed would read back negative, which
raises ExactnessError.

The DP's memory follows the states alive at one time, not every state it
ever reaches. When step i starts, those are the partial matchings that
cover every triangle below i, each filed under its own lowest uncovered
triangle: the same states a layer-by-layer DP keeps as its layer i. That
DP copies each state whose triangle i is already covered into layer
i + 1; this order skips those copies, and keeps no more states. In sweep
order a hexagon make_spec(x, y) with x <= y + 1 peaks at C(x + y, x)
states: which x of the x + y crossings of one lattice line its paths
use. The flat make_spec(300, 2) (2,408 triangles) peaks at 10 states,
the tall make_spec(2, 12) (384 triangles) at 91 and make_spec(8, 8) (384
triangles) at 12,870; sorted (a, b, up) order would keep 10, 1,105 and
22,308. make_spec(8, 8) counts in 0.25-0.5 s and 18 MB of peak RSS,
make_spec(10, 10) in 14.4-14.9 s and 57 MB (two fresh processes, load
average under 0.6). The q-count of make_spec(8, 8), packed in 20-byte
digits, takes 1.7-1.9 s and 147 MB (Python 3.11, one core of a shared
2-vCPU machine).
BRUTE_LIMIT stays at 120 triangles all the same: it also guards
enumerate_tilings, which is exponential, and the CLI tests rely on it to
refuse rendering a tiling of the 298-triangle demo region. Callers that
want a larger region counted pass an explicit limit.

count_axis / qcount_axis cut every tiling along the axis. Exactly y of the
free base positions are straddled by vertical lozenges, so the count is
the crossing sum over y-subsets S of the free positions of
s(U+S) * s(D+S), where s(T) = delta(T) / prod_{k<|T|} k! is the
dented-semihexagon count (formulas.schur_ones) and delta(T) =
prod_{i<j} (t_j - t_i). The weighted version evaluates the lower half
through the reflected dent set with q replaced by 1/q, which is how a
180-degree rotation acts on the weights. theorems.check_schur_sum writes
the sum out; neither engine walks the C(|free|, y) subsets.

S avoids the dents, so delta(U+S) = delta(U) * delta(S) * prod_{s in S,
u in U} |s - u|. With a = |U| + y and b = |D| + y this gives

    count = s(U) s(D) det[mu_(i+j)] / (prod_{|U|<=k<a} k! prod_{|D|<=k<b} k!)
    mu_m  = sum over s in free of w(s) s^m,
    w(s)  = prod_{t in U} |s - t| * prod_{t in D} |s - t|,

because sum_S delta(S)^2 prod_{s in S} w(s) is, by Cauchy-Binet over the
rows S of the Vandermonde matrix [s^j], the y x y Hankel determinant of
the moments. Every w(s) is positive and there are at least y distinct
free positions, so the matrix is positive definite: _hankel_det
eliminates it fraction-free (Bareiss) without pivoting, and y = 0 is the
empty determinant 1.

The q-version is the same determinant in the nodes q^s. With
dq(T) = prod_{i<j} (q^(t_j) - q^(t_i)) and c_n = dq({1..n}),

    qcount = q^E dq(U) dq(D) det[M_(i+j)] / (c_a c_b),
    M_m    = sum over s in free of w_q(s) q^(s*m),
    w_q(s) = q^(2s) prod_{t in U+D} (q^max(s,t) - q^min(s,t)),

where a dent in both U and D gives two factors, and E = sum(U) + sum(D)
- a(a+1)/2 + b(b+1)/2 - (L+1)(b(b-1)/2 + b) + (b-1)b(b+1)/2 collects the
q-powers of the two semihexagon shifts and of the reflection at 1/q. It
all runs on ints at q = Q = 2^k: each w_q(s) is a QPoly product packed at
Q, and the determinant and the one division by c_a c_b are exact int
operations; QPoly.from_packed reads the quotient back. That quotient is
q^-E * qcount, a polynomial whose coefficients are nonnegative (they
count tilings by weight) and sum to count_axis(spec), so none exceeds
that count; the coefficients of w_q(s) sum in absolute value to at most
2^(|U|+|D|). k = 8 * digit_width of the larger bound keeps every digit
apart. A remainder, or a digit sum other than the count, raises
ExactnessError.

Both engines are polynomial in x, y and the dent count. The count's
moments have O(y log L) digits and hex(60, 60) (1,227 digits) takes about
1.3 s (Python 3.11, one core of a 2-vCPU machine). The q-version's moments
have O(k y L) bits, and the Bareiss divisions dominate because CPython's
big-int division is quadratic: hex(12, 12) takes about 11 s there.

Weight convention (pinned by the calibration test qcount on a one-row
semihexagon with dent s giving q^(s-1)): only right-tilting lozenges
{up(a,b), down(a,b)} carry weight, q^(b+1) in rows b >= 0 and q^b in rows
b <= -1; all other lozenges have weight 1.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

from .exactnum import ExactnessError, QPoly, digit_width
from .formulas import _factorials, delta, schur_ones
from .lattice import (KIND_R, KIND_V, LOZENGE_MATES, Lozenge, Tiling,
                      Triangle, TriangularRegion, ValidatedSpec)

BRUTE_LIMIT = 120


class RegionTooLarge(RuntimeError):
    """The region exceeds the configured brute-force triangle budget."""


def _right_tilt_exponent(b: int) -> int:
    return b + 1 if b >= 0 else b


def _sweep(t: Triangle):
    """Sort key: column a ascending, its top row first, in each cell up
    before down. The DP's frontier then follows one lattice line."""
    return t.a, -t.b, not t.up


def _dual_graph(region: TriangularRegion, key=None):
    """Triangle list sorted by key plus, per triangle, its partner
    (index, weight).

    An up triangle's mates come from LOZENGE_MATES, looked up as plain
    (a, b, up) tuples, which hash and compare as the Triangle they stand for.
    """
    tris = sorted(region.triangles, key=key)
    index = {t: i for i, t in enumerate(tris)}
    partners: list[list[tuple[int, int]]] = [[] for _ in tris]
    barred = region.forbidden_vertical
    for i, (a, b, up) in enumerate(tris):
        if not up:
            continue
        for kind, da, db in LOZENGE_MATES:
            if kind == KIND_V and b == 0 and a + 1 in barred:
                continue
            j = index.get((a + da, b + db, False))
            if j is not None:
                w = _right_tilt_exponent(b) if kind == KIND_R else 0
                partners[i].append((j, w))
                partners[j].append((i, w))
    for ps in partners:
        ps.sort()
    return tris, partners


def check_size(m: int, limit: int | None) -> int:
    """m, a region's triangle count; RegionTooLarge when it exceeds
    limit (None: BRUTE_LIMIT). The CLI checks lattice.triangle_count(spec)
    here before it builds the region."""
    cap = BRUTE_LIMIT if limit is None else limit
    if m > cap:
        raise RegionTooLarge(f"{m} triangles exceeds the limit {cap}")
    return m


def _matching_sum(tris, partners, k: int) -> tuple[int, int]:
    """(P(2^k), low), where q^low * P(q) sums the q-weights of the perfect
    matchings of the dual graph; k = 0 gives the number of matchings.

    Each up triangle is matched exactly once, so subtracting its least
    edge weight from all of its edges takes q^low out of every matching,
    low the sum of those least weights, and leaves every shift k * w >= 0.
    Down triangles are offset by 0.

    A partial matching is extended only at its lowest uncovered triangle,
    the order enumerate_tilings' DFS walks. pending[i] holds the partial
    matchings whose lowest uncovered triangle is i: it maps the covered
    set, bit d for triangle i + d, to their summed value at q = 2^k. Step
    i matches triangle i with each free partner j > i, the value times
    2^(k * w), and files the result under its new lowest uncovered
    triangle, i plus the trailing one bits of the new set. The full
    region is the state 0 of pending[m]; for the empty region that is
    pending[0], worth 1.
    """
    off = [min(w for _, w in ps) if t.up and ps else 0
           for t, ps in zip(tris, partners)]
    pending: list[dict[int, int] | None] = [{} for _ in range(len(tris) + 1)]
    pending[0][0] = 1
    for i, ps in enumerate(partners):
        states, pending[i] = pending[i], None  # freed once stepped
        if not states:
            continue
        # bits: triangle i and its partner j
        mates = [(1 << j - i | 1, k * (w - off[i] - off[j]))
                 for j, w in ps if j > i]
        for state, v in states.items():
            for bits, shift in mates:
                if not state & bits:
                    s = state | bits
                    t = (s ^ s + 1).bit_length() - 1  # trailing ones
                    s >>= t
                    bucket = pending[i + t]
                    u = v << shift if shift else v
                    old = bucket.get(s)
                    bucket[s] = u if old is None else old + u
    return pending[-1].get(0, 0), sum(off)


def count_brute(region: TriangularRegion, limit: int | None = None) -> int:
    """Number of perfect matchings of the dual graph; empty region -> 1."""
    check_size(len(region.triangles), limit)
    return _matching_sum(*_dual_graph(region, _sweep), 0)[0]


def _count_bound(tris, partners) -> int:
    """A power of two at least the number of perfect matchings.

    That number is the permanent of the 0-1 up x down adjacency matrix,
    which Bregman's bound (1973) keeps at most the product over up
    triangles of (d!)^(1/d), d the degree. Its sixth power is the integer
    B6 = prod (d!)^(6/d) (d <= 3), below 2^bits(B6), so the bound
    2^ceil(bits(B6) / 6) holds. It costs no pass over the matchings.
    """
    b6 = prod((1, 1, 8, 36)[len(ps)]
              for t, ps in zip(tris, partners) if t.up)
    return 1 << (b6.bit_length() + 5) // 6


def qcount_brute(region: TriangularRegion, limit: int | None = None) -> QPoly:
    """Sum of q-weights over all tilings, as a Laurent polynomial.

    The coefficients are nonnegative and sum to the count, so each one
    fits a digit sized by _count_bound; an overflowed digit would read
    back negative.
    """
    check_size(len(region.triangles), limit)
    tris, partners = _dual_graph(region, _sweep)
    width = digit_width(_count_bound(tris, partners))
    n, low = _matching_sum(tris, partners, 8 * width)
    out = QPoly.from_packed(n, width, low)
    if any(v < 0 for _, v in out.items()):
        raise ExactnessError("qcount_brute: a packed coefficient overflowed "
                             "its digit")
    return out


def enumerate_tilings(region: TriangularRegion, limit: int | None = None,
                      max_triangles: int | None = None) -> list[Tiling]:
    """All tilings in deterministic DFS order, truncated at limit."""
    m = check_size(len(region.triangles), max_triangles)
    if m % 2:
        return []
    tris, partners = _dual_graph(region)
    kind_of = {(da, db): kind for kind, da, db in LOZENGE_MATES}
    moves = []  # per triangle, one (bits, lozenge) per partner
    for i, (t, ps) in enumerate(zip(tris, partners)):
        row = []
        for j, _ in ps:
            up, down = (t, tris[j]) if t.up else (tris[j], t)
            loz = Lozenge(kind_of[down.a - up.a, down.b - up.b], up.a, up.b)
            row.append((1 << i | 1 << j, loz))
        moves.append(row[::-1])  # pushed last to first, popped in order
    full = (1 << m) - 1
    out: list[Tiling] = []
    stack = [(0, None)]  # (covered, partial tiling as (lozenge, rest) pairs)
    while stack and (limit is None or len(out) < limit):
        covered, chain = stack.pop()
        if covered == full:
            lozenges = []
            while chain:
                loz, chain = chain
                lozenges.append(loz)
            out.append(Tiling(lozenges))
            continue
        i = (~covered & covered + 1).bit_length() - 1  # lowest uncovered
        for bits, loz in moves[i]:
            if not covered & bits:
                stack.append((covered | bits, (loz, chain)))
    return out


def _hankel_det(moments: Sequence[int], n: int) -> int:
    """det[moments[i+j]] for 0 <= i, j < n, by fraction-free elimination.

    Bareiss (1968): after step k every entry is a minor of order k+1, so
    each division by the previous pivot is exact. Callers pass the moments
    of a positive weight on at least n distinct points, so the matrix is
    positive definite and every pivot (a leading principal minor) is
    positive: no row exchange, and a pivot <= 0 is an error. The matrix is
    symmetric and so is each step, so only the upper triangle is updated.
    """
    rows = [list(moments[i:i + n]) for i in range(n)]
    prev = 1
    for k in range(n):
        top = rows[k]
        pivot = top[k]
        if pivot <= 0:
            raise ExactnessError(f"Hankel pivot {k} is {pivot}, not positive")
        for i in range(k + 1, n):
            row, f = rows[i], top[i]
            for j in range(i, n):
                row[j], rem = divmod(row[j] * pivot - f * top[j], prev)
                if rem:
                    raise ExactnessError("inexact Bareiss division")
        prev = pivot
    return prev


def _moments(weights: Sequence[int], nodes: Sequence[int], y: int) -> list[int]:
    """sum of weights[i] * nodes[i]^m for m < 2y-1."""
    out = [0] * (2 * y - 1)
    for w, z in zip(weights, nodes):
        for m in range(len(out)):
            out[m] += w
            w *= z
    return out


def count_axis(spec: ValidatedSpec) -> int:
    """Tiling count: the crossing sum as one y x y Hankel determinant."""
    U, D, y = spec.U, spec.D, spec.y
    if not y:  # the empty determinant and factorial products leave s(U) s(D)
        return schur_ones(U) * schur_ones(D)
    weights = [prod(abs(s - t) for t in U + D) for s in spec.free]
    det = _hankel_det(_moments(weights, spec.free, y), y)
    num = schur_ones(U) * schur_ones(D) * det
    den = _factorials(len(U), len(U) + y) * _factorials(len(D), len(D) + y)
    out, rem = divmod(num, den)
    if rem:
        raise ExactnessError(f"count_axis({spec.to_json_dict()}) is not an "
                             "integer")
    return out


def qcount_axis(spec: ValidatedSpec) -> QPoly:
    """Tiling generating function, exactly equal to qcount_brute.

    q^E dq(U) dq(D) det[M_(i+j)] / (dq([a]) dq([b])), evaluated at
    Q = 2^k and unpacked (see the module docstring).
    """
    U, D, y, L = spec.U, spec.D, spec.y, spec.L
    a, b = len(U) + y, len(D) + y
    count = count_axis(spec)
    # coefficients of w_q(s), a product of |U|+|D| binomials, sum in
    # absolute value to at most 2^(|U|+|D|); those of the result to count
    width = digit_width(max(count, 1 << len(U + D)))
    k = 8 * width
    weights = []
    for s in spec.free if y else ():  # y = 0 needs no moments
        w = QPoly.monomial(2 * s)
        for t in U + D:  # s is free, so s != t: the binomial is normal
            w = w * QPoly._raw({max(s, t): 1, min(s, t): -1})
        weights.append(w.packed(width))
    nodes = [1 << k * s for s in spec.free]
    det = _hankel_det(_moments(weights, nodes, y), y)
    # dq(T) at q = Q is delta of the nodes Q^t
    num = (delta([1 << k * t for t in U]) * delta([1 << k * t for t in D])
           * det)
    den = (delta([1 << k * t for t in range(1, a + 1)])
           * delta([1 << k * t for t in range(1, b + 1)]))
    quo, rem = divmod(num, den)
    E = (sum(U) + sum(D) - a * (a + 1) // 2 + b * (b + 1) // 2
         - (L + 1) * (b * (b - 1) // 2 + b) + (b - 1) * b * (b + 1) // 2)
    out = QPoly.from_packed(quo, width, E)
    if rem or out.eval_one() != count:
        raise ExactnessError(f"qcount_axis({spec.to_json_dict()}) is not a "
                             f"polynomial with coefficients summing to "
                             f"{count}")
    return out
