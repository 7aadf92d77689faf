"""Closed-form products: box counts, dented-semihexagon counts, their
q-analogs, and the right-hand sides of the shuffling identities.

Integer products are exact integer quotients whose remainder must be zero,
which doubles as an integrality check; every broken invariant raises
ExactnessError.

Those quotients divide a Vandermonde product by a superfactorial
sf(n) = prod_{k<n} k! (schur_ones here, count_axis in engines).
_superfactorial(n) computes it as one product of factorials, not by
recursion, which would go n calls deep and hit Python's recursion limit
near n = 1,000; functools.cache keeps each sf(n) asked for as an exact int.
It is no result cache: it holds values of one constant sequence that
depend on no region, so no count turns into a lookup, and every count
still does its own product and division. Its memory is bounded by the n
asked: sf(60) has 6,816 bits and sf(0) through sf(60) together about
123 kbit (15 kB), while count_axis(make_spec(60, 60)), which asks for
sf(60), builds a 60 x 60 Hankel matrix of moments of up to 816 bits each
and a determinant of 17,708 bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, starmap
from math import comb, factorial, prod
from operator import sub
from typing import Iterator, Sequence

from .exactnum import ExactnessError, QPoly, QRatio, one_minus_q_quotient
from .lattice import (ClusterSpec, SpecError, ValidatedSpec, UP, DOWN,
                      _check_positions, _checked_positions, make_spec)


def pp(a: int, b: int, c: int) -> int:
    """Boxed plane-partition count: prod (i+j+k-1)/(i+j+k-2) over the box.

    The k-product telescopes, leaving the integer quotient
    prod (i+j+c-1) // prod (i+j-1) over i <= a, j <= b.
    """
    num, den = map(prod, _pp_exponents(a, b, c))
    out, rem = divmod(num, den)
    if rem:
        raise ExactnessError(f"pp({a}, {b}, {c}) = {Fraction(num, den)} is "
                             "not an integer")
    return out


def _pp_exponents(a: int, b: int, c: int) -> tuple[list[int], list[int]]:
    """The factors of pp(a, b, c), one pair per (i, j): the exponents of
    pp_q's factors 1 - q^e."""
    c = max(c, 0)  # a box with no k-layers is an empty product
    num = [i + j + c - 1 for i in range(1, a + 1) for j in range(1, b + 1)]
    den = [i + j - 1 for i in range(1, a + 1) for j in range(1, b + 1)]
    return num, den


def pp_q(a: int, b: int, c: int) -> QPoly:
    """q-analog of pp: prod (1-q^(i+j+k-1))/(1-q^(i+j+k-2)), a polynomial.

    The k-product telescopes, leaving one factor pair per (i,j).
    """
    return one_minus_q_quotient(*_pp_exponents(a, b, c))


@cache
def _superfactorial(n: int) -> int:
    """sf(n) = prod of k! for k < n; sf(0) is the empty product (see the
    module docstring)."""
    return prod(map(factorial, range(n)))


def schur_ones(S: Sequence[int]) -> int:
    """prod (s_j-s_i)/(j-i): the dented-semihexagon count for dents S.

    Computed as the integer quotient delta(S) // prod_{k<len(S)} k!, since
    prod_{i<j} (j-i) is that product of factorials. Equals the Schur
    polynomial s_lambda at a = len(S) ones, lambda_i = s_(a+1-i) - (a+1-i)
    for S = (s_1 < ... < s_a), by Weyl's dimension formula. Positions
    that are not strictly increasing and >= 1 raise SpecError, by
    make_spec's rule for dents.
    """
    _check_positions("S", S)
    num = delta(S)
    den = _superfactorial(len(S))
    out, rem = divmod(num, den)
    if rem:
        raise ExactnessError(f"schur_ones({tuple(S)}) = {Fraction(num, den)} "
                             "is not an integer")
    return out


def clp_q_dents(S: Sequence[int]) -> QPoly:
    """Generating polynomial of the dented semihexagon with dents S.

    q^(sum(s_i - i)) * prod (q^(s_j)-q^(s_i))/(q^j-q^i), in the gap form
    q^shift * prod (1 - q^(s_j-s_i)) / prod (1 - q^(j-i)): one
    one_minus_q_quotient call (both products have a(a-1)/2 factors, so the
    signs cancel). Positions that are not strictly increasing and >= 1
    raise SpecError, as in schur_ones; a coefficient sum other than
    schur_ones(S) or a negative exponent raises ExactnessError.
    """
    _check_positions("S", S)
    a = len(S)
    out = one_minus_q_quotient(_gaps(S), _gaps(range(a)))
    out = out.shifted(sum((a - i) * (S[i] - i - 1) for i in range(a)))
    ones = schur_ones(S)
    if out.eval_one() != ones:
        raise ExactnessError(f"clp_q_dents({tuple(S)}) is not a polynomial "
                             f"with coefficients summing to {ones}")
    if out and out.min_exp() < 0:
        raise ExactnessError(f"clp_q_dents({tuple(S)}) has a negative "
                             "exponent")
    return out


def _gaps(S: Sequence[int]) -> Iterator[int]:
    """s_j - s_i over i < j, in C: each pair (s_j, s_i) of combinations of
    S reversed."""
    return starmap(sub, combinations(S[::-1], 2))


def delta(S: Sequence[int]) -> int:
    """prod over i<j of (s_j - s_i)."""
    return prod(_gaps(S))


def delta_q(S: Sequence[int]) -> QPoly:
    """prod over i<j of (q^(s_j) - q^(s_i)), S strictly increasing."""
    return _delta_q_product((S,))


def _delta_q_product(sets: Sequence[Sequence[int]], num: Sequence[int] = (),
                     den: Sequence[int] = (), shift: int = 0) -> QPoly:
    """q^shift * prod of delta_q(T) over T in sets * prod (1 - q^a) over a
    in num / prod (1 - q^b) over b in den, which must be a polynomial.

    For T strictly increasing, delta_q(T) = (-1)^C(|T|,2) *
    q^(sum_i t_i (|T|-1-i)) * prod_{i<j} (1 - q^(t_j - t_i)), so this is
    one one_minus_q_quotient call, the gaps t_j - t_i joining num, times a
    sign and a q-power. A T not strictly increasing has a gap <= 0, which
    one_minus_q_quotient rejects with ValueError.
    """
    gaps = list(num)
    pairs = low = 0
    for T in sets:
        n = len(T)
        gaps += _gaps(T)
        pairs += n * (n - 1) // 2
        low += sum(t * (n - 1 - i) for i, t in enumerate(T))
    out = one_minus_q_quotient(gaps, den).shifted(low + shift)
    return -out if pairs % 2 else out


@dataclass(frozen=True)
class ShuffleInstance:
    """Two dent assignments of the same occupied positions, plus barriers.

    U2/D2 redistribute the symmetric difference of U and D; the union and
    the intersection must be preserved. Sizes may differ (orientation
    flips) unless a theorem-1 shape (|U|=|U2|, |D|=|D2|) is required.
    """

    x: int
    y: int
    U: tuple[int, ...]
    D: tuple[int, ...]
    U2: tuple[int, ...]
    D2: tuple[int, ...]
    B: tuple[int, ...] = ()
    # the two validated regions, built once in __post_init__; one
    # spec, spec_b is spec_a, when the shuffle moves no dent
    spec_a: ValidatedSpec = field(init=False, compare=False, repr=False)
    spec_b: ValidatedSpec = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a = make_spec(self.x, self.y, self.U, self.D, self.B)
        U2 = _checked_positions("U", self.U2)
        D2 = _checked_positions("D", self.D2)
        if (U2, D2) == (a.U, a.D):  # an identity shuffle gets one spec
            b = a
        else:
            # U and D are sets, so the multiset U + D holds their union
            # once and their intersection twice: one comparison checks both
            if sorted(a.U + a.D) != sorted(U2 + D2):
                make_spec(a.x, a.y, U2, D2, a.B)  # raises a bad side first
                raise SpecError("shuffle must preserve the union and the "
                                "intersection of dents")
            # the same dented positions keep L, the barrier collisions and
            # the position bounds that make_spec accepted for a
            b = ValidatedSpec(a.x, a.y, U2, D2, a.B)
        # frozen: fill the fields past __setattr__, with the validated values
        vars(self).update(x=a.x, y=a.y, U=a.U, D=a.D, U2=b.U, D2=b.D, B=a.B,
                          spec_a=a, spec_b=b)

    @property
    def n(self) -> int:
        return len(set(self.U) | set(self.D))

    @property
    def sizes(self) -> tuple[int, int, int, int]:
        return len(self.U), len(self.D), len(self.U2), len(self.D2)

    def thm1_shaped(self) -> bool:
        return len(self.U) == len(self.U2) and len(self.D) == len(self.D2)

    def to_json_dict(self) -> dict:
        return {
            "x": self.x, "y": self.y,
            "U": list(self.U), "D": list(self.D),
            "U2": list(self.U2), "D2": list(self.D2),
            "B": list(self.B),
        }


def shuffle_rhs(inst: ShuffleInstance) -> Fraction:
    """Predicted count ratio for a size-preserving shuffle:
    delta(U)*delta(D) / (delta(U2)*delta(D2))."""
    if not inst.thm1_shaped():
        raise SpecError("size-preserving shuffle required here")
    return Fraction(delta(inst.U) * delta(inst.D),
                    delta(inst.U2) * delta(inst.D2))


def gen_shuffle_rhs(inst: ShuffleInstance) -> Fraction:
    """Predicted count ratio when flips are allowed and barriers present.

    The barrier set drops out: the ratio only sees the dent data and y.
    """
    u, d, u2, d2 = inst.sizes
    num = schur_ones(inst.U) * schur_ones(inst.D) * pp(u, d, inst.y)
    den = schur_ones(inst.U2) * schur_ones(inst.D2) * pp(u2, d2, inst.y)
    return Fraction(num, den)


def _gen_shuffle_rhs_collapsed_pp(inst: ShuffleInstance) -> Fraction:
    """Negative control: gen_shuffle_rhs with the primed box factor
    pp(|U2|, |D2|, y) swapped for pp(|U2| * |D2|, y, 1), its two size
    arguments collapsed into their product. Rejected by the engines; kept
    so the harness can demonstrate that the collapse is wrong."""
    _, _, u2, d2 = inst.sizes
    return gen_shuffle_rhs(inst) * Fraction(pp(u2, d2, inst.y),
                                            pp(u2 * d2, inst.y, 1))


def q_shift_exponent(inst: ShuffleInstance) -> int:
    """Exponent of the global q-power in the weighted shuffle ratio.

    The closed form is the published-style expression plus the
    normalization in the dent-set sizes, _size_normalization; it is pinned
    mechanically by exact engine comparisons in the verification suite.
    The negative control _q_shuffle_rhs_alt_shift drops the normalization,
    and the engines reject it whenever that term is nonzero.
    """
    x, y, n = inst.x, inst.y, inst.n
    u, d, u2, d2 = inst.sizes
    published = ((d - x - n) * comb(y + d + 1, 2)
                 - (d2 - x - n) * comb(y + d2 + 1, 2)
                 + u * d * y - u2 * d2 * y)
    return published + _size_normalization(inst)


def _size_normalization(inst: ShuffleInstance) -> int:
    u, d, u2, d2 = inst.sizes
    return comb(u2 + 1, 2) + comb(d2 + 1, 2) - comb(u + 1, 2) - comb(d + 1, 2)


def _range_set(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


def q_shuffle_rhs(inst: ShuffleInstance) -> QRatio:
    """Predicted ratio of tiling generating functions, as a QRatio.

    numerator   q^shift * dq(U) dq(D) dq([u2]) dq([d2]) pp_q(u,d,y)
    denominator           dq(U2) dq(D2) dq([u]) dq([d]) pp_q(u2,d2,y)

    where dq is delta_q, [k] = {1..k} and shift = q_shift_exponent(inst).
    Each side is one one_minus_q_quotient call (_delta_q_product): the
    gaps of its four dq factors and pp_q's numerator exponents over pp_q's
    denominator exponents, times the sign and q-power of the dq factors.
    """
    u, d, u2, d2 = inst.sizes
    num = _delta_q_product(
        (inst.U, inst.D, _range_set(u2), _range_set(d2)),
        *_pp_exponents(u, d, inst.y), shift=q_shift_exponent(inst))
    den = _delta_q_product(
        (inst.U2, inst.D2, _range_set(u), _range_set(d)),
        *_pp_exponents(u2, d2, inst.y))
    return QRatio(num, den)


def _q_shuffle_rhs_alt_shift(inst: ShuffleInstance) -> QRatio:
    """Negative control: q_shuffle_rhs with the q-power of the
    published-style term alone, i.e. without the size normalization."""
    ratio = q_shuffle_rhs(inst)
    return QRatio(ratio.num.shifted(-_size_normalization(inst)), ratio.den)


def _q_shuffle_rhs_integer_gap(inst: ShuffleInstance) -> QRatio:
    """Negative control: q_shuffle_rhs with the gap factor dq([d]) read as
    the plain integer delta([d])."""
    ratio = q_shuffle_rhs(inst)
    gap = _range_set(len(inst.D))
    return QRatio(ratio.num * delta_q(gap), ratio.den * delta(gap))


def asym_rhs(c: ClusterSpec, c2: ClusterSpec) -> Fraction:
    """Limit ratio for cluster shuffles as the hexagon and gaps scale:
    the product over clusters of (s+ s-) / (s+' s-'), where s+ and s- count
    the dented semihexagons of a cluster's up and of its down dents, at
    positions local to the cluster. The clusters must match in number,
    lengths, gaps and, cluster by cluster, up count; SpecError otherwise,
    naming the first that differs."""
    if c.lengths != c2.lengths:
        raise SpecError(f"cluster lengths differ: {c.lengths} vs {c2.lengths}")
    if c.gaps != c2.gaps:
        raise SpecError(f"gaps differ: {c.gaps} vs {c2.gaps}")
    # a pair of dents in different clusters gives a factor that grows with
    # the scale; these cancel between the sides only when every cluster
    # keeps its up count, and the product is the limit only then
    for k, (a, b) in enumerate(zip(c.clusters, c2.clusters)):
        if a.count(UP) != b.count(UP):
            raise SpecError(f"up counts differ in clusters[{k}]: "
                            f"{a.count(UP)} vs {b.count(UP)}")
    out = Fraction(1)
    for a, b in zip(c.clusters, c2.clusters):
        for tok in (UP, DOWN):
            out *= Fraction(
                schur_ones([i + 1 for i, t in enumerate(a) if t == tok]),
                schur_ones([i + 1 for i, t in enumerate(b) if t == tok]))
    return out
