"""Verification checks: every identity the library claims, tested on
concrete instances with exact arithmetic. A report never passes within a
tolerance; pass means exact equality of integers or polynomials.

The oracle hierarchy, strongest first: qcount_brute, count_brute,
qcount_axis, count_axis, closed forms. Each check states which engine it
leans on.

check_thm1, check_thm2 and check_thm3 take the prediction they check as
rhs, a function of the instance; None means the validated formula of
formulas, looked up when the check runs. A negative control passes a
wrong formula instead and expects the check to fail.

A CheckReport holds exactly what its JSON line prints: the check's name,
its instance, both sides and the verdict. It carries no timing, so the
report bytes cannot depend on the clock or on the worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .engines import count_axis, count_brute, qcount_axis
from .exactnum import QRatio
from .formulas import (ClusterSpec, IncompatibleClusters, ShuffleInstance,
                       asym_rhs, gen_shuffle_rhs, q_shuffle_rhs, schur_ones,
                       shuffle_rhs)
from .lattice import (UP, SpecError, ValidatedSpec, build_region,
                      clusters_to_spec, make_spec)


class NoDistinctAlphaBeta(SpecError):
    """The condensation recurrence needs two distinct free axis positions."""


@dataclass
class CheckReport:
    name: str
    instance: dict
    lhs: str
    rhs: str
    passed: bool

    def json_line(self) -> str:
        return json.dumps(
            {"name": self.name, "instance": self.instance, "lhs": self.lhs,
             "rhs": self.rhs, "pass": self.passed},
            sort_keys=True, separators=(",", ":"))


def _count_ratio(name: str, inst: ShuffleInstance,
                 ratio: Fraction) -> CheckReport:
    """The count ratio of the two sides of inst against ratio, verified as
    the exact integer identity count_a * ratio.den == count_b * ratio.num."""
    a = count_axis(inst.spec_a)
    b = count_axis(inst.spec_b)
    return CheckReport(name, inst.to_json_dict(), f"{a}/{b}", str(ratio),
                       a * ratio.denominator == b * ratio.numerator)


def check_thm1(inst: ShuffleInstance,
               rhs: Callable[[ShuffleInstance], Fraction] | None = None
               ) -> CheckReport:
    """Size-preserving shuffle: count ratio equals the delta-product ratio
    (rhs, default shuffle_rhs)."""
    if inst.B:
        raise SpecError("the size-preserving identity is stated without barriers")
    return _count_ratio("thm1", inst, (rhs or shuffle_rhs)(inst))


def check_pair_product(inst: ShuffleInstance) -> CheckReport:
    """count(x,y;U,D) * count(x+y,0;U2,D2) == count(x,y;U2,D2) * count(x+y,0;U,D).

    The flat companions share the base length, so positions transfer as is.
    """
    if not inst.thm1_shaped():
        raise SpecError("size-preserving shuffle required here")
    if inst.B:
        raise SpecError("the pair-product identity is stated without barriers")
    a = count_axis(inst.spec_a)
    b = count_axis(inst.spec_b)
    flat = inst.x + inst.y
    fa = count_axis(make_spec(flat, 0, inst.U, inst.D, ()))
    fb = count_axis(make_spec(flat, 0, inst.U2, inst.D2, ()))
    return CheckReport("pair_product", inst.to_json_dict(),
                       f"{a}*{fb}", f"{b}*{fa}", a * fb == b * fa)


def check_thm2(inst: ShuffleInstance,
               rhs: Callable[[ShuffleInstance], Fraction] | None = None
               ) -> CheckReport:
    """General shuffle with flips and barriers: count ratio equals rhs,
    default gen_shuffle_rhs."""
    return _count_ratio("thm2", inst, (rhs or gen_shuffle_rhs)(inst))


def check_barrier_independence(inst: ShuffleInstance,
                               barrier_sets: Sequence[Sequence[int]]) -> CheckReport:
    """The shuffle ratio does not see the barrier set: all pairwise
    cross-products of counts over the given barrier sets must agree."""
    counts = []
    for B in barrier_sets:
        a = count_axis(make_spec(inst.x, inst.y, inst.U, inst.D, tuple(B)))
        b = count_axis(make_spec(inst.x, inst.y, inst.U2, inst.D2, tuple(B)))
        counts.append((a, b))
    passed = all(ai * bj == aj * bi
                 for (ai, bi), (aj, bj) in combinations(counts, 2))
    instance = dict(inst.to_json_dict(),
                    barrier_sets=[list(B) for B in barrier_sets])
    lhs = ";".join(f"{a}/{b}" for a, b in counts)
    return CheckReport("barrier_independence", instance, lhs,
                       "all cross-products equal", passed)


def check_thm3(inst: ShuffleInstance,
               rhs: Callable[[ShuffleInstance], QRatio] | None = None
               ) -> CheckReport:
    """Weighted shuffle: the ratio of tiling generating functions equals
    rhs, default q_shuffle_rhs, compared by cross-multiplication of
    Laurent polynomials."""
    ratio = (rhs or q_shuffle_rhs)(inst)
    a = qcount_axis(inst.spec_a)
    b = qcount_axis(inst.spec_b)
    return CheckReport("thm3", inst.to_json_dict(), f"({a}) / ({b})",
                       str(ratio), QRatio(a, b) == ratio)


def check_kuo(spec: ValidatedSpec) -> CheckReport:
    """Condensation recurrence among six regions, as exact polynomials.

    With alpha/beta the first and last axis positions not occupied by a
    dent or a barrier, and all regions sharing D and B:

      Mq(x,y; U) * Mq(x-1,y-1; U+ab) ==
          Mq(x-1,y; U+b) * Mq(x,y-1; U+a)
        + Mq(x-1,y; U+a) * Mq(x,y-1; U+b)

    Every term is computed by qcount_axis; the base length is the same for
    all six regions, so positions keep their meaning.
    """
    if spec.x < 1 or spec.y < 1:
        raise SpecError("recurrence needs x >= 1 and y >= 1")
    if len(spec.free) < 2:
        raise NoDistinctAlphaBeta("need two distinct removable positions")
    alpha, beta = spec.free[0], spec.free[-1]

    def mq(x, y, extra):
        U = tuple(sorted(spec.U + extra))
        return qcount_axis(make_spec(x, y, U, spec.D, spec.B))

    lhs = qcount_axis(spec) * mq(spec.x - 1, spec.y - 1, (alpha, beta))
    rhs = (mq(spec.x - 1, spec.y, (beta,)) * mq(spec.x, spec.y - 1, (alpha,))
           + mq(spec.x - 1, spec.y, (alpha,)) * mq(spec.x, spec.y - 1, (beta,)))
    instance = dict(spec.to_json_dict(), alpha=alpha, beta=beta)
    return CheckReport("kuo", instance, str(lhs), str(rhs), lhs == rhs)


def crossing_subsets(free: Sequence[int], y: int) -> list[tuple[int, ...]]:
    """y-subsets of the free positions in colexicographic order."""
    return sorted(combinations(free, y), key=lambda S: S[::-1])


def check_schur_sum(spec: ValidatedSpec) -> CheckReport:
    """The axis-cut sum against the brute-force oracle, and count_axis
    against both.

    The crossing sum over y-subsets S of the free positions of
    schur_ones(U+S) * schur_ones(D+S) is the identity this check proves,
    so it is written out here and its left side is count_brute. count_axis
    evaluates the same sum as one Hankel determinant; the check passes only
    when all three agree. Barrier-free specs only.
    """
    if spec.B:
        raise SpecError("the crossing-sum identity is stated without barriers")
    lhs = count_brute(build_region(spec))
    rhs = 0
    for S in crossing_subsets(spec.free, spec.y):
        rhs += (schur_ones(tuple(sorted(spec.U + S)))
                * schur_ones(tuple(sorted(spec.D + S))))
    return CheckReport("schur_sum", spec.to_json_dict(), str(lhs), str(rhs),
                       lhs == rhs == count_axis(spec))


@dataclass(frozen=True)
class AsymRow:
    N: int
    ratio: Fraction
    deviation: Fraction  # ratio/limit - 1


@dataclass(frozen=True)
class AsymTable:
    limit: Fraction
    rows: tuple[AsymRow, ...]


def _scaled(c: ClusterSpec, N: int) -> ClusterSpec:
    return ClusterSpec(c.clusters, tuple(g * N for g in c.gaps))


def asym_table(c: ClusterSpec, c2: ClusterSpec, x: int, y: int,
               n_max: int) -> AsymTable:
    """Exact finite-scale ratios against the cluster-product limit.

    Row N counts the regions with hexagon parameters (N*x, N*y) and gaps
    scaled by N, for N = 1..n_max, each by one (N*y)-square determinant
    in count_axis.
    """
    limit = asym_rhs(c, c2)
    # a pair of dents in different clusters gives a factor that grows with
    # the scale; these cancel between the sides only when every cluster
    # keeps its up count, and asym_rhs is the limit only then
    for k, (a, b) in enumerate(zip(c.clusters, c2.clusters)):
        if a.count(UP) != b.count(UP):
            raise IncompatibleClusters(f"up counts differ in clusters[{k}]: "
                                       f"{a.count(UP)} vs {b.count(UP)}")
    rows = []
    for N in range(1, n_max + 1):
        spec_a = clusters_to_spec(_scaled(c, N), N * x, N * y)
        spec_b = clusters_to_spec(_scaled(c2, N), N * x, N * y)
        ratio = Fraction(count_axis(spec_a), count_axis(spec_b))
        rows.append(AsymRow(N, ratio, ratio / limit - 1))
    return AsymTable(limit, tuple(rows))
