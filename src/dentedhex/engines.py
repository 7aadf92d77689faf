"""Two independent exact counting engines.

count_brute / qcount_brute sum over the perfect matchings of the region's
dual graph (vertices = unit triangles, edges = shared sides honoring the
forbidden crossing positions). A forward DP walks the triangles in sweep
order (lattice._sweep: column by column, each from the top) and extends
a partial matching only at its lowest uncovered triangle, the order in
which enumerate_tilings' DFS extends a partial tiling. Matchings that share
their lowest uncovered triangle i are told apart only by the later
triangles they cover, so one dict per i (that set -> summed value) is all
the DP keeps; step i empties the dict of i into the dicts further on. It
counts every tiling without visiting each one. They are the oracle:
simple, and obviously faithful to the region; its edges come from
lattice.LOZENGE_MATES. enumerate_tilings is the only per-tiling walk, for
rendering: depth first over the same edges, on an explicit state stack,
in sorted (a, b, up) order, which fixes the order of the tilings it
yields one at a time. Each edge's move names its lozenge's kind, so the
walk reads each lozenge off the graph and anchors it at the move's up
triangle.

The graph comes from lattice._dual_graph: each edge once, as a forward
move (j, w, kind) of its earlier end i < j, with each up triangle's least
edge weight. Both oracles read the sweep-ordered graph from
region.sweep_graph, which the first of them builds and the region keeps
until it is freed, and the number of matchings from _count, which keeps
it beside the graph in the region's __dict__: count_brute and
qcount_brute of one region build the graph once and run the k = 0 DP
once, in either order, and two equal regions built separately do both
twice. enumerate_tilings builds its own graph in sorted order. Step i of
the DP loops over i's moves outside its states: a move's bit mask and
shift are computed once per step, not once per state.

Both run one DP on plain ints, with the q-weights evaluated at q = 2^k:
matching along an edge of weight w shifts a value left by k*w bits, and
count_brute is k = 0. Each up triangle is matched exactly once, so its
least edge weight is first taken off all its edges; every shift is then
nonnegative and the sum is q^low * P(q), low the sum of those least
weights. qcount_brute reads P back as k-bit digits (QPoly.from_packed),
by qcount_axis's rule: P's coefficients are nonnegative and sum to the
count, so none exceeds it, and k = 8 * digit_width(count) keeps every
digit apart; a digit sum other than the count raises ExactnessError. The
DP only shifts and adds exact ints, so its partial values may carry
across digits; only the final value is read back.

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
22,308. make_spec(8, 8) counts in 0.22-0.45 s and 18 MB of peak RSS
(eight fresh processes), make_spec(10, 10) in 9.8-11.2 s and 57 MB (two
fresh processes). Python 3.11, one core of a shared 2-vCPU machine, load
average under 1. The q-count of make_spec(8, 8), packed in 10-byte
digits, takes 1.1-1.2 s and 84 MB (four fresh processes, the same
machine; 1.7 s and 147 MB when its digits were 20 bytes wide).
BRUTE_LIMIT stays at 120 triangles all the same: brute_region checks it
on the spec before it builds a region for the oracle, so rendering a tiling
of the 298-triangle demo region is refused, and callers that want a
larger region counted pass an explicit limit. enumerate_tilings has no
budget of its own: it builds nothing its caller does not pull.

count_axis / qcount_axis cut every tiling along the axis. Exactly y of the
free base positions are straddled by vertical lozenges, so the count is
the crossing sum over y-subsets S of the free positions of
s(U+S) * s(D+S), where s(T) = delta(T) / prod_{k<|T|} k! is the
dented-semihexagon count (formulas.schur_ones) and delta(T) =
prod_{i<j} (t_j - t_i). The weighted version evaluates the lower half
through the reflected dent set with q replaced by 1/q, which is how a
180-degree rotation acts on the weights. theorems.check_schur_sum writes
the sum out; neither engine walks the C(|free|, y) subsets. Each engine
evaluates the sum in one of two forms: as a determinant of order y (the
crossing form, _crossing_det and _qcrossing_det) or, on tall regions,
through its complement, of order x - |B| (_complement_det and
_qcomplement_det; the rule is _short_side, below).

S avoids the dents, so delta(U+S) = delta(U) * delta(S) * prod_{s in S,
u in U} |s - u|. With a = |U| + y and b = |D| + y this gives

    count = delta(U) delta(D) det[mu_(i+j)] / (prod_{k<a} k! prod_{k<b} k!)
    mu_m  = sum over s in free of w(s) s^m,
    w(s)  = prod_{t in U} |s - t| * prod_{t in D} |s - t|,

because sum_S delta(S)^2 prod_{s in S} w(s) is, by Cauchy-Binet over the
rows S of the Vandermonde matrix [s^j], the y x y Hankel determinant of
the moments. Every w(s) is positive and there are at least y distinct
free positions, so the matrix is positive definite: _hankel_det
eliminates it fraction-free (Bareiss) without pivoting. After step k each
entry is a minor of order k+1, and when a step's entries share a power of
two that fills the pivot's lowest int digit, _hankel_det shifts it out of
the whole step and keeps count of it. count_axis makes
one exact division, and its remainder is the count's one integrality
check. For y > 0 it calls no closed form of formulas, so a wrong
schur_ones shows as a failed thm2 ratio instead of cancelling from both
sides. At y = 0 the determinant is empty and no lozenge crosses the axis:
the region is the two dented semihexagons above and below it, and
count_axis returns their product s(U) s(D) through schur_ones, the same
quotient split in two, which keeps the name bound in this module for the
benchmark's tracer.

The q-version is the same determinant in the nodes q^s. With
dq(T) = prod_{i<j} (q^(t_j) - q^(t_i)) and c_n = dq({1..n}),

    qcount = q^E dq(U) dq(D) det[M_(i+j)] / (c_a c_b),
    M_m    = sum over s in free of w_q(s) q^(s*m),
    w_q(s) = q^(2s) prod_{t in U+D} (q^max(s,t) - q^min(s,t)),

where a dent in both U and D gives two factors, and E = sum(U) + sum(D)
- a(a+1)/2 + b(b+1)/2 - (L+1)(b(b-1)/2 + b) + (b-1)b(b+1)/2 collects the
q-powers of the two semihexagon shifts and of the reflection at 1/q.

Every factor in that quotient carries a power of q that the positions
fix, and qcount_axis takes each one out before it computes:

- w_q(s) = q^e(s) prod_{t in U+D} (q^|s-t| - 1) with e(s) = 2s +
  sum_t min(s, t), which grows with s, so e0 = e(s0) is the least power,
  s0 the first free position;
- with the weights w'(s) = q^(e(s) - e0) prod_t (q^|s-t| - 1) and the
  nodes q^(s - s0), M_m = q^(e0 + s0*m) M'_m, so det[M_(i+j)] =
  q^(y*e0 + s0*y(y-1)) det[M'_(i+j)];
- dq(T) = q^(sum_{i<j} t_i) prod_{i<j} (q^(t_j - t_i) - 1), for each of
  dq(U), dq(D), c_a and c_b (_below gives the power).

Those powers join E. It all runs on ints at q = Q = 2^k: each w'(s)
starts at its first binomial q^d - 1, multiplies in the other |U|+|D| - 1
as QPolys, is packed at Q and shifted by k(e(s) - e0) bits; with no dents
it is the int 1 << k(e(s) - e0). Each node Q^(s - s0) is 1 << k(s - s0),
so _moments, the routine count_axis uses, steps each weight to its next
power by a left shift of k(s - s0) bits (lshift) where count_axis
multiplies by s (mul). The determinant and the one division are exact
int operations. Every odd factor on either side is some Q^d - 1 with
d < L, so qcount_axis keeps one list of each d's power, numerator less
divisor, and multiplies out only what does not cancel: the divisor is
odd.
QPoly.from_packed reads the quotient back at E' = E plus the powers taken
out. So M'_m is k(e0 + s0*m) bits shorter than M_m, and the determinant,
the divisor and the quotient are each shorter by k times the powers they
lose. The quotient is q^-E' * qcount, a polynomial whose coefficients are
nonnegative (they count tilings by weight) and sum to count_axis(spec),
so none exceeds that count, and k = 8 * digit_width(count) keeps every
digit of it apart. The digits come from the count alone: the weights are
ints, evaluated at Q term by term (QPoly.packed), so their coefficients
need fit no digit, and no value before the quotient is read back. A
remainder, or a digit sum other than the count, raises ExactnessError.

The Bareiss minors carry powers of q as well. A step-k entry is a minor
of order k+1 of [M'_(i+j)], and by Cauchy-Binet a sum over (k+1)-subsets
S of the free positions of prod_{s in S} w'(s) times two minors of the
matrix [q^((s - s0) j)]. Each term carries at least q^V(k), the power
carried by the squared q-Vandermonde product of the first k+1 free
positions times their weights, because both grow with the positions. At
Q = 2^k the whole step shares k V(k) zero bits, and _hankel_det strips
them. On the first input of the benchmark's axis workload at seed 7
(x = y = 4, U = [9], D = [1], B = [4]) the pivots of steps 1-3 carry 96
of 2,400 bits, 448 of 4,032 and 1,088 of 5,888 as zeros.

The complement. Exactly r = x - |B| free positions are crossed by no
vertical lozenge, so the crossing sum over y-subsets S of the free
positions F is as well a sum over their complements R = F - S. For t in F
let p(t) = prod_{u in F - t} |u - t|; then delta(S) = delta(F) delta(R) /
prod_{t in R} p(t). F, U union D and B partition [1..L], so p(t) =
(L-1)! / (C(L-1, t-1) prod_{c in U union D union B} |t - c|), and with
W_F = prod_{s in F} w(s) this is complementary Cauchy-Binet:

    det[mu_(i+j)]_y = W_F delta(F)^2 det[nu_(i+j)]_r / ((L-1)!)^(2r)
    nu_m  = sum over t in F of v'(t) t^m,
    v'(t) = C(L-1, t-1)^2 prod_{d in U xor D} |t - d| prod_{b in B} (t - b)^2.

A dent in both U and D drops out of v': w(t) has its factor twice and
p(t)^2 divides it out twice. v' is positive on the same |F| >= r distinct
nodes, so _moments and _hankel_det serve unchanged, with their pivot and
remainder checks, and the count is still one exact division, now by
((L-1)!)^(2r) times the two superfactorials. At r = 0 the determinant is
empty and no weight is built.

The q-form is the same identity in the nodes q^t, each factor a replaced
by q^a - 1 once its power of q is taken out. The binomials become the
Gaussian binomials [L-1, t-1]_Q (_qbinomials), (L-1)! becomes G =
prod_{i<L} (Q^i - 1), and w_q(t) p_q(t)^2 = Q^e'(t) times odd factors,
p_q(t) = prod_{u in F - t} |Q^u - Q^t| and e'(t) = e(t) + 2 sum_{u in
F - t} min(t, u). e' grows with t, so its largest value e0 = max e' is at
the last free position, and the weights and nodes are

    v'(t) = Q^(e0 - e'(t)) [L-1, t-1]_Q^2 prod_{d in U xor D} (Q^|t-d| - 1)
            * prod_{b in B} (Q^|t-b| - 1)^2,   node Q^(t - t0),

t0 the first free position. Then det[M] = Q^P W_F* dq*(F)^2 det[M''] /
G^(2r), where * marks the odd part (each factor's Q^min taken out), M''
is the r x r Hankel matrix of v' and

    P = sum_{s in F} e(s) + 2 sum_{i<j} f_i + t0 r(r-1) - e0 r

joins E. The odd factors of W_F*, dq*(F)^2, dq(U) and dq(D) over those of
G^(2r), c_a and c_b cancel in qcount_axis's one list of powers (on a pure
hexagon all of them do); the digit width, the read-back and the digit-sum
check are as above. The complement's moments are not odd: the weights'
least power is at the last free position and the nodes' at the first, so
_hankel_det strips what each step's entries share.

Both engines take the complement when r <= y - 2 (_short_side reads it
off the spec; no option sets it). Measured in process (Python 3.11.7, a
shared 2-vCPU VM, best of 7 or more runs): the q-count of the benchmark's
(4, 5, 2, 1, 1, 0) axis slot at seed 7 fell about fourfold (579 to 153
us, and 626 to 159 us in a second set), the count of hex(6, 60) from
0.51 s to 0.64 ms, the count of hex(2, 120) from 86 s to 5.0 ms, and the
q-count of hex(3, 12) from 0.31 s to 2.3 ms. At r = y - 1 the complement
was slower in all but one of 24 readings: by 11-47% on counts and 10-49%
on q-counts (the axis slots (4, 4, 1, 1, 1, 0) and (5, 4, 2, 1, 1, 0),
hex(3, 4) and hex(4, 5), three sets; one set read one q-count 9%
faster), so the rule stops at y - 2. Pure and wide hexagons keep the
crossing form.

Both engines are polynomial in x, y and the dent count, with a
determinant of order min(y, x - |B|) up to that rule. The count's
moments have O(y log L) digits and hex(60, 60) (1,227 digits) takes about
1.2 s (a whole `dentedhex count` process, Python 3.11.7 on a shared 2-vCPU
Xeon VM). The q-version's moments have O(k y L) bits, and the Bareiss
divisions dominate because CPython's big-int division is quadratic:
hex(12, 12) takes about 10 s there.

Weight convention (pinned by the calibration test qcount on a one-row
semihexagon with dent s giving q^(s-1)): only right-tilting lozenges
{up(a,b), down(a,b)} carry weight, q^(b+1) in rows b >= 0 and q^b in rows
b <= -1; all other lozenges have weight 1.
"""

from __future__ import annotations

import sys
from itertools import chain
from math import comb, factorial, prod
from operator import lshift, mul
from typing import Callable, Iterator, Sequence

from .exactnum import ExactnessError, QPoly, digit_width
from .formulas import _gaps, _superfactorial, delta, schur_ones
from .lattice import (Lozenge, Tiling, TriangularRegion, ValidatedSpec,
                      _dual_graph, build_region, triangle_count)

BRUTE_LIMIT = 120
# _hankel_det strips a step only when its pivot's lowest int digit is zero
_DIGIT_MASK = (1 << sys.int_info.bits_per_digit) - 1


class RegionTooLarge(ValueError):
    """The region exceeds the configured brute-force triangle budget: bad
    input, like SpecError, and no caller tells the two apart."""


def check_size(m: int, limit: int | None) -> None:
    """RegionTooLarge when m, a region's triangle count, exceeds limit
    (None: BRUTE_LIMIT)."""
    cap = BRUTE_LIMIT if limit is None else limit
    if m > cap:
        raise RegionTooLarge(f"{m} triangles exceeds the limit {cap}")


def brute_region(spec: ValidatedSpec,
                 limit: int | None = None) -> TriangularRegion:
    """The region of spec for the oracle. Its triangle budget is checked
    from the spec first: building an oversized region costs memory in
    proportion to its size before the engine would refuse it."""
    check_size(triangle_count(spec), limit)
    return build_region(spec)


def _matching_sum(moves, off, k: int) -> tuple[int, int]:
    """(P(2^k), low), where q^low * P(q) sums the q-weights of the perfect
    matchings of the dual graph given by its forward moves (j, w, kind)
    and offsets (_dual_graph); k = 0 gives the number of matchings.

    Each up triangle is matched exactly once, so subtracting its least
    edge weight off[i] from all of its edges takes q^low out of every
    matching, low the sum of those least weights, and leaves every shift
    k * w >= 0. Down triangles are offset by 0.

    A partial matching is extended only at its lowest uncovered triangle,
    the order enumerate_tilings' DFS walks; its back partners are all
    covered then, so only forward moves can extend it. pending[i] holds
    the partial matchings whose lowest uncovered triangle is i: it maps the
    covered set, bit d for triangle i + d, to their summed value at
    q = 2^k. Step i matches triangle i with each free partner j > i, the
    value times 2^(k * w), and files the result under its new lowest
    uncovered triangle, i plus the trailing one bits of the new set. The
    full region is the state 0 of pending[m]; for the empty region that
    is pending[0], worth 1.
    """
    pending: list[dict[int, int] | None] = [{} for _ in range(len(moves) + 1)]
    pending[0][0] = 1
    for i, ms in enumerate(moves):
        states, pending[i] = pending[i], None  # freed once stepped
        if not states:
            continue
        for j, w, _ in ms:
            bits = 1 << j - i | 1  # triangle i and its partner j
            shift = k * (w - off[i] - off[j])
            for state, v in states.items():
                if not state & bits:
                    s = state | bits
                    t = (s ^ s + 1).bit_length() - 1  # trailing ones
                    s >>= t
                    bucket = pending[i + t]
                    u = v << shift if shift else v
                    old = bucket.get(s)
                    bucket[s] = u if old is None else old + u
    return pending[-1].get(0, 0), sum(off)


def _count(region: TriangularRegion, limit: int | None) -> int:
    """The number of perfect matchings of region's dual graph, within the
    triangle budget limit (check_size). It is counted on the first call and
    kept in the region's __dict__ beside sweep_graph: the one k = 0 pass
    that count_brute and qcount_brute share."""
    check_size(len(region.triangles), limit)
    memo = vars(region)
    if "count" not in memo:  # the graph is (tris, moves, off)
        memo["count"] = _matching_sum(*region.sweep_graph[1:], 0)[0]
    return memo["count"]


def count_brute(region: TriangularRegion, limit: int | None = None) -> int:
    """Number of perfect matchings of the dual graph; empty region -> 1."""
    return _count(region, limit)


def qcount_brute(region: TriangularRegion, limit: int | None = None) -> QPoly:
    """Sum of q-weights over all tilings, as a Laurent polynomial.

    The coefficients are nonnegative and sum to the count (_count), so
    digits of digit_width(count) bytes hold them apart, as in qcount_axis.
    A digit sum other than the count raises ExactnessError.
    """
    count = _count(region, limit)
    width = digit_width(count)
    n, low = _matching_sum(*region.sweep_graph[1:], 8 * width)
    out = QPoly.from_packed(n, width, low)
    if out.eval_one() != count:
        raise ExactnessError(f"qcount_brute: digits do not sum to {count}")
    return out


def enumerate_tilings(region: TriangularRegion) -> Iterator[Tiling]:
    """Every tiling, one at a time, in deterministic DFS order.

    The walk holds one stack of partial tilings and none of the tilings it
    has yielded, so a caller pays only for what it takes (itertools.islice).
    """
    m = len(region.triangles)
    if m % 2:
        return
    tris, moves, _ = _dual_graph(region)
    pushes = []  # per triangle, one (bits, lozenge) per forward move
    for i, (t, ms) in enumerate(zip(tris, moves)):
        row = []
        for j, _, kind in ms:
            up = t if t.up else tris[j]  # the lozenge's anchor
            row.append((1 << i | 1 << j, Lozenge(kind, up.a, up.b)))
        pushes.append(row[::-1])  # pushed last to first, popped in order
    full = (1 << m) - 1
    stack = [(0, None)]  # (covered, partial tiling as (lozenge, rest) pairs)
    while stack:
        covered, chain = stack.pop()
        if covered == full:
            lozenges = []
            while chain:
                loz, chain = chain
                lozenges.append(loz)
            yield Tiling(lozenges)
            continue
        i = (~covered & covered + 1).bit_length() - 1  # lowest uncovered
        # i's partners before it are covered: only forward moves are free
        for bits, loz in pushes[i]:
            if not covered & bits:
                stack.append((covered | bits, (loz, chain)))


def _zeros(n: int) -> int:
    """The number of trailing zero bits of n != 0."""
    return (n & -n).bit_length() - 1


def _hankel_det(moments: Sequence[int], n: int) -> int:
    """det[moments[i+j]] for 0 <= i, j < n, by fraction-free elimination.

    Bareiss (1968): after step k every entry is a minor of order k+1, so
    each division by the previous pivot is exact. Callers pass the moments
    of a positive weight on at least n distinct points: the crossing
    forms w on the free positions with n = y, the complement forms v' on
    the same positions with n = x - |B|, and both q-forms at nodes that
    are distinct powers of Q. So the matrix is positive definite and every
    pivot (a leading principal minor) is positive: no row exchange, and a
    pivot <= 0 is an error. The matrix is
    symmetric and so is each step, so only the upper triangle is updated.

    Each step stores its entries as their minors over 2^v. When the
    pivot's lowest int digit (sys.int_info.bits_per_digit bits) is zero,
    every entry the step reads is shifted right by d, the fewest trailing
    zero bits among them, and v grows by d. The step's products are then
    the next minors times the stored previous pivot, over 2^s with
    s = 2v - vp, vp that pivot's shift. They are divided by that pivot
    times 2^(w - s), an int for w = max(s - t, 0), t its trailing zero
    bits. The quotient, the next minors over 2^w, is exact: the next
    minors times the previous pivot's true value are the products times
    2^(2v), so they carry at least s - t zero bits. A matrix that never
    strips keeps v = 0 and divides by the whole pivot, as plain Bareiss
    does. The determinant is the last pivot times 2^v.
    """
    rows = [list(moments[i:i + n]) for i in range(n)]
    prev, vp, v = 1, 0, 0
    last = n - 1
    for k in range(n):
        top = rows[k]
        pivot = top[k]
        if pivot <= 0:
            raise ExactnessError(f"Hankel pivot {k} is {pivot}, not positive")
        if k == last:
            return pivot << v if v else pivot
        # the compare skips the & for a pivot below 2^bits_per_digit
        if pivot > _DIGIT_MASK and not pivot & _DIGIT_MASK:
            low = 0  # its lowest set bit is the entries' least one
            for i in range(k, n):
                for x in rows[i][i:]:
                    low |= x
            d = _zeros(low)
            for i in range(k, n):
                row = rows[i]
                for j in range(i, n):
                    row[j] >>= d
            v += d
            pivot = top[k]
        if v or vp:  # the divisor is prev times 2^(w - s), w the new shift
            s = 2 * v - vp
            # prev loses r trailing zeros, at most its own when s > 0; s <= 0
            # is the same rule with r = s, a shift left, and the new v is 0
            r = min(s, _zeros(prev)) if s > 0 else s
            prev = prev >> r if r >= 0 else prev << -r
            vp, v = v, s - r
        for i in range(k + 1, n):
            row, f = rows[i], top[i]
            for j in range(i, n):
                row[j], rem = divmod(row[j] * pivot - f * top[j], prev)
                if rem:
                    raise ExactnessError("inexact Bareiss division")
        prev = pivot
    return 1  # the empty determinant


def _moments(weights: Sequence[int], steps: Sequence[int], y: int,
             op: Callable[[int, int], int]) -> list[int]:
    """sum of weights[i] * z_i^m for m < 2y-1, y >= 1, where op(w,
    steps[i]) is w * z_i: one pass of map and one sum per power. The
    count's forms pass the nodes and mul, the q-count's the exponents of
    their power-of-two nodes and lshift."""
    out = [sum(weights)]
    for _ in range(2 * y - 2):
        weights = list(map(op, weights, steps))
        out.append(sum(weights))
    return out


def _short_side(spec: ValidatedSpec) -> bool:
    """Whether the axis engines sum over the r = x - |B| free positions
    that no vertical lozenge crosses: when r <= y - 2 (module docstring)."""
    return spec.x - len(spec.B) <= spec.y - 2


def _crossing_det(spec: ValidatedSpec) -> tuple[int, int]:
    """(num, den), the crossing sum's quotient: its y x y Hankel
    determinant over 1, for y >= 1."""
    free, dents, y = spec.free, spec.U + spec.D, spec.y
    # s is free, so no factor s - t is 0: only the sign differs from
    # prod |s - t|
    weights = [abs(prod(map(s.__sub__, dents))) for s in free]
    return _hankel_det(_moments(weights, free, y, mul), y), 1


def _complement_det(spec: ValidatedSpec) -> tuple[int, int]:
    """(num, den), the crossing sum's quotient through its complement:
    W_F delta(F)^2 det[nu_(i+j)] over ((L-1)!)^(2r), an r x r Hankel
    determinant of the weights v' (module docstring), for y >= 1."""
    U, D, B, L = spec.U, spec.D, spec.B, spec.L
    r = spec.x - len(B)
    free, dents = spec.free, U + D
    num = prod(abs(prod(map(s.__sub__, dents))) for s in free) * delta(free)**2
    if r:
        odd = sorted({*U} ^ {*D})  # a shared dent's two factors cancel
        weights = [comb(L - 1, t - 1)**2 * abs(prod(map(t.__sub__, odd)))
                   * prod(map(t.__sub__, B))**2 for t in free]
        num *= _hankel_det(_moments(weights, free, r, mul), r)
    return num, factorial(L - 1)**(2 * r)


def count_axis(spec: ValidatedSpec) -> int:
    """Tiling count: the crossing sum as one Hankel determinant, of order
    x - |B| when that is at most y - 2 and of order y otherwise."""
    U, D = spec.U, spec.D
    if not spec.y:  # no crossings: the two semihexagons of the flat region
        return schur_ones(U) * schur_ones(D)
    return _count_by(spec, _complement_det if _short_side(spec)
                     else _crossing_det)


def _count_by(spec: ValidatedSpec,
              form: Callable[[ValidatedSpec], tuple[int, int]]) -> int:
    """count_axis for y >= 1, with the crossing sum's quotient from form."""
    U, D, y = spec.U, spec.D, spec.y
    num, den = form(spec)
    den *= _superfactorial(len(U) + y) * _superfactorial(len(D) + y)
    out, rem = divmod(delta(U) * delta(D) * num, den)
    if rem:
        raise ExactnessError(f"count_axis({spec.to_json_dict()}) is not an "
                             "integer")
    return out


def _below(T: Sequence[int]) -> int:
    """sum over i < j of t_i, for T increasing: the power of Q in dq(T).

    Each factor Q^t_j - Q^t_i (i < j) is Q^t_i * (Q^(t_j - t_i) - 1), and
    the odd rest is one factor Q^d - 1 per gap d (formulas._gaps).
    """
    return sum(map(mul, T, range(len(T) - 1, -1, -1)))


def _qbinomials(n: int, k: int) -> list[int]:
    """The Gaussian binomials [n, j] at Q = 2^k, j = 0..n: each is the last
    times Q^(n-j+1) - 1, divided exactly by Q^j - 1."""
    out = [1]
    for j in range(1, n + 1):
        out.append(out[-1] * ((1 << k * (n - j + 1)) - 1)
                   // ((1 << k * j) - 1))
    return out


def _qcrossing_det(spec: ValidatedSpec, k: int) -> tuple[int, int, list, list]:
    """The q-crossing sum as its y x y Hankel determinant, with the powers
    of Q the positions fix taken out of its weights and nodes."""
    y = spec.y
    if not y:  # the empty determinant, with no weights or nodes
        return 1, 0, [], []
    free, dents = spec.free, spec.U + spec.D
    width = k // 8
    s0 = free[0]
    # w_q(s) = q^e(s) prod_t (q^|s-t| - 1), e(s) = 2s + sum_t min(s, t),
    # which grows with s: the least power is e0 = e(s0)
    e0 = 2 * s0 + sum(min(s0, t) for t in dents)
    weights = []
    for s in free:
        w, e = None, 2 * s - e0  # no dents: the weight is Q^e
        for t in dents:  # s is free, so s != t: the binomial is normal
            binom = QPoly._raw({abs(s - t): 1, 0: -1})
            w = binom if w is None else w * binom
            e += min(s, t)
        weights.append((1 if w is None else w.packed(width)) << k * e)
    # node Q^(s - s0): the next power is the last one shifted left
    steps = [k * (s - s0) for s in free]
    det = _hankel_det(_moments(weights, steps, y, lshift), y)
    # M_m = Q^(e0 + s0 m) * M'_m, so det[M] = Q^low * det
    return det, y * e0 + s0 * y * (y - 1), [], []


def _qcomplement_det(spec: ValidatedSpec,
                     k: int) -> tuple[int, int, list, list]:
    """The q-crossing sum through its complement: W_F dq(F)^2 times the
    r x r Hankel determinant of the weights v' over G^(2r) (module
    docstring), with the powers of Q the positions fix taken out."""
    U, D, B, L = spec.U, spec.D, spec.B, spec.L
    r = spec.x - len(B)
    free, dents = spec.free, U + D
    e = [2 * s + sum(min(s, t) for t in dents) for s in free]  # as above
    low = sum(e) + 2 * _below(free)  # the powers of W_F and dq(F)^2
    num = [abs(s - t) for s in free for t in dents]
    num += 2 * [*_gaps(free)]
    det = 1
    if r:
        # w_q(t) p(t)^2 = Q^e'(t) * odd, p(t) = prod_{u in F - t} |Q^u - Q^t|
        last, ep, before = len(free) - 1, [], 0
        for i, t in enumerate(free):
            ep.append(e[i] + 2 * (before + t * (last - i)))
            before += t
        e0, t0 = max(ep), free[0]
        gauss = _qbinomials(L - 1, k)
        odd = sorted({*U} ^ {*D})  # a shared dent's two factors cancel
        weights = []
        for t, et in zip(free, ep):
            w = (gauss[t - 1]**2
                 * prod((1 << k * abs(t - d)) - 1 for d in odd)
                 * prod((1 << k * abs(t - b)) - 1 for b in B)**2)
            weights.append(w << k * (e0 - et))
        steps = [k * (t - t0) for t in free]
        det = _hankel_det(_moments(weights, steps, r, lshift), r)
        low += t0 * r * (r - 1) - e0 * r
    return det, low, num, [*range(1, L)] * (2 * r)


def qcount_axis(spec: ValidatedSpec) -> QPoly:
    """Tiling generating function, exactly equal to qcount_brute.

    q^E dq(U) dq(D) det[M_(i+j)] / (dq([a]) dq([b])), evaluated at
    Q = 2^k with every power of Q that the positions determine taken out
    and added to E, then unpacked (see the module docstring); the
    determinant is of order x - |B| when that is at most y - 2.
    """
    return _qcount_by(spec, _qcomplement_det if _short_side(spec)
                      else _qcrossing_det)


def _qcount_by(spec: ValidatedSpec,
               form: Callable[[ValidatedSpec, int], tuple]) -> QPoly:
    """qcount_axis with the q-crossing sum taken by form: form(spec, k) is
    (det, low, num, den), the sum's value Q^low * det * prod(Q^d - 1 over
    d in num) / prod(Q^d - 1 over d in den) at Q = 2^k."""
    U, D, y, L = spec.U, spec.D, spec.y, spec.L
    a, b = len(U) + y, len(D) + y
    count = count_axis(spec)
    # the result's coefficients are nonnegative and sum to count; the
    # weights are evaluated at Q exactly, whatever their coefficients
    width = digit_width(count)
    k = 8 * width
    det, low, num, den = form(spec, k)
    # every odd factor is some Q^d - 1 with d < L: exps[d] is its power in
    # the numerator less its power in the divisor, so the two cancel first
    exps = [0] * L
    for d in chain(num, _gaps(U), _gaps(D)):
        exps[d] += 1
    for d in den:
        exps[d] -= 1
    for n in (a, b):  # dq([n]) has n - d gaps d
        for d in range(1, n):
            exps[d] -= n - d
    top = bottom = 1
    for d, n in enumerate(exps):
        if n:  # n = 1 and n = -1 skip pow, which costs more than a product
            f = (1 << k * d) - 1
            if n > 0:
                top *= f if n == 1 else f**n
            else:
                bottom *= f if n == -1 else f**-n
    quo, rem = divmod(top * det, bottom)
    # dq([n]) carries Q^((n-1)n(n+1)/6), _below(range(1, n + 1))
    E = (sum(U) + sum(D) - a * (a + 1) // 2 + b * (b + 1) // 2
         - (L + 1) * (b * (b - 1) // 2 + b) + (b - 1) * b * (b + 1) // 2
         + low + _below(U) + _below(D)
         - (a - 1) * a * (a + 1) // 6 - (b - 1) * b * (b + 1) // 6)
    out = QPoly.from_packed(quo, width, E)
    if rem or out.eval_one() != count:
        raise ExactnessError(f"qcount_axis({spec.to_json_dict()}) is not a "
                             f"polynomial with coefficients summing to "
                             f"{count}")
    return out
