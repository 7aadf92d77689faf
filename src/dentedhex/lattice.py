"""Triangular-lattice model of dented hexagons with axis barriers.

Coordinates use the oblique basis e1=(1,0), e2=(1/2, sqrt(3)/2). The up
triangle up(a,b) has corners (a,b), (a+1,b), (a,b+1); the down triangle
down(a,b) has corners (a+1,b), (a,b+1), (a+1,b+1). The counting axis is
the horizontal lattice line between rows b=0 and b=-1, and base position
k (1-based) is the unit segment from (k-1,0) to (k,0) on that axis.
LOZENGE_MATES says which down neighbour each lozenge kind pairs up(a,b)
with, counterclockwise: V down(a,b-1), R down(a,b), L down(a-1,b); around
down(a,b) the same cycle reads L, V, R: up(a+1,b), up(a,b+1), up(a,b).

A region spec (x, y, U, D, B) is a symmetric hexagon of base length
L = x + y + n, where n = |U union D|, with the up triangles up(s-1,0)
removed for s in U, the down triangles down(t-1,-1) removed for t in D,
and vertical lozenges forbidden across the axis at the positions in B.
Rows 0..y+u-1 hold up(a,b) for 0 <= a <= L-1-b and down(a,b) for
0 <= a <= L-2-b; rows -(y+d)..-1 hold down(a,b) for -b-1 <= a <= L-1 and
up(a,b) for -b <= a <= L-1. This realization reproduces the hexagon side
lengths x+n-u, y+u, y+d, x+n-d, y+d, y+u and makes dents and barriers
pure position lookups.

n is always derived from U and D, never supplied. Degenerate regions
(empty triangle sets) are valid and have exactly one, empty, tiling.
The dented semihexagon with the a dents S on a base of length a+b is
the flat region make_spec(b, 0, S): rows 0..a-1 and no rows below the
axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import filterfalse
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exactnum import ExactnessError


class SpecError(ValueError):
    """Base class for invalid region descriptions."""


class NotSorted(SpecError):
    pass


class DuplicateEntry(SpecError):
    pass


class PositionOutOfRange(SpecError):
    pass


class BarrierOverlap(SpecError):
    pass


class TooManyBarriers(SpecError):
    pass


class GeometryMismatch(SpecError):
    pass


UP = "up"
DOWN = "down"

KIND_R = "R"
KIND_L = "L"
KIND_V = "V"

# (kind, da, db): up(a,b) pairs with down(a+da, b+db)
LOZENGE_MATES = ((KIND_V, 0, -1), (KIND_R, 0, 0), (KIND_L, -1, 0))


class Triangle(NamedTuple):
    a: int
    b: int
    up: bool


class Lozenge(NamedTuple):
    kind: str
    a: int
    b: int


def lozenge_triangles(loz: Lozenge) -> tuple[Triangle, Triangle]:
    """The two unit triangles covered by a lozenge, anchored at its up triangle."""
    for kind, da, db in LOZENGE_MATES:
        if kind == loz.kind:
            return (Triangle(loz.a, loz.b, True),
                    Triangle(loz.a + da, loz.b + db, False))
    raise ValueError(f"unknown lozenge kind {loz.kind!r}")


Tiling = frozenset  # of Lozenge


@dataclass(frozen=True)
class ValidatedSpec:
    """A checked region description; build it with make_spec.

    L = x + y + |U union D| is the base length, and free lists the axis
    positions that may host a crossing vertical lozenge: [1..L] minus
    dents and barriers.
    """

    x: int
    y: int
    U: tuple[int, ...]
    D: tuple[int, ...]
    B: tuple[int, ...]
    L: int
    free: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "U": list(self.U),
            "D": list(self.D),
            "B": list(self.B),
        }


def _checked_positions(name: str, values: Iterable[int]) -> tuple[int, ...]:
    out = tuple(map(int, values))
    # a strictly increasing tuple is positive iff its first entry is; the
    # loops run only on a fault, to name the first one
    if out and (out[0] < 1 or not all(map(int.__lt__, out, out[1:]))):
        for v in out:
            if v < 1:
                raise PositionOutOfRange(f"{name} position {v} is not >= 1")
        for a, b in zip(out, out[1:]):
            if a == b:
                raise DuplicateEntry(f"{name} contains {a} twice")
            if a > b:
                raise NotSorted(
                    f"{name} is not strictly increasing at {a},{b}")
    return out


def make_spec(x: int, y: int, U: Sequence[int] = (), D: Sequence[int] = (),
              B: Sequence[int] = ()) -> ValidatedSpec:
    """Check a region description and compute L and the free positions."""
    x, y = int(x), int(y)
    if x < 0 or y < 0:
        raise SpecError("x and y must be nonnegative")
    U = _checked_positions("U", U)
    D = _checked_positions("D", D)
    B = _checked_positions("B", B)
    dents = set(U) | set(D)
    barred = set(B)
    if not dents.isdisjoint(barred):
        raise BarrierOverlap(
            f"barriers {sorted(barred & dents)} collide with dents")
    if len(B) > x:
        raise TooManyBarriers(f"{len(B)} barriers but x={x}")
    L = x + y + len(dents)
    blocked = dents | barred
    if blocked and max(blocked) > L:
        for v in blocked:
            if v > L:
                raise PositionOutOfRange(
                    f"position {v} exceeds the base length {L}")
    free = tuple(filterfalse(blocked.__contains__, range(1, L + 1)))
    return ValidatedSpec(x, y, U, D, B, L, free)


# --- JSON wire format ------------------------------------------------------

_JSON_KEYS = {"x", "y", "U", "D", "B"}


def spec_from_json_dict(obj: dict) -> ValidatedSpec:
    """Parse {"x":int,"y":int,"U":[...],"D":[...],"B":[...]} (lists sorted)."""
    if not isinstance(obj, dict):
        raise SpecError("spec JSON must be an object")
    unknown = set(obj) - _JSON_KEYS
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    if "x" not in obj or "y" not in obj:
        raise SpecError("spec JSON needs x and y")
    for key in ("x", "y"):
        if not isinstance(obj[key], int) or isinstance(obj[key], bool):
            raise SpecError(f"{key} must be an integer")
    for key in ("U", "D", "B"):
        vals = obj.get(key, [])
        if not isinstance(vals, list) or any(
                not isinstance(v, int) or isinstance(v, bool) for v in vals):
            raise SpecError(f"{key} must be a list of integers")
    return make_spec(obj["x"], obj["y"], obj.get("U", ()), obj.get("D", ()),
                     obj.get("B", ()))


@dataclass(frozen=True)
class TriangularRegion:
    """An explicit set of unit triangles plus forbidden crossing positions."""

    triangles: frozenset
    forbidden_vertical: frozenset

    def up_count(self) -> int:
        return sum(1 for t in self.triangles if t.up)

    def down_count(self) -> int:
        return sum(1 for t in self.triangles if not t.up)


def dent_triangles(spec: ValidatedSpec) -> Iterator[Triangle]:
    """Removed triangles: up(s-1,0) for s in U, then down(t-1,-1) for t in D."""
    yield from (Triangle(s - 1, 0, True) for s in spec.U)
    yield from (Triangle(t - 1, -1, False) for t in spec.D)


def triangle_count(spec: ValidatedSpec) -> int:
    """len(build_region(spec).triangles), without building the region.

    Row b >= 0 holds L - b up and L - 1 - b down triangles, and so does row
    -1 - b, so the h = y + |U| rows above the axis hold h(2L - h) and the
    g = y + |D| rows below it g(2L - g); each dent removes one.
    """
    h, g = spec.y + len(spec.U), spec.y + len(spec.D)
    return (h * (2 * spec.L - h) + g * (2 * spec.L - g)
            - len(spec.U) - len(spec.D))


def build_region(spec: ValidatedSpec) -> TriangularRegion:
    """Materialize the triangle set of a validated spec."""
    L = spec.L
    tris: set[Triangle] = set()
    for b in range(spec.y + len(spec.U)):
        for a in range(L - b):
            tris.add(Triangle(a, b, True))
        for a in range(L - 1 - b):
            tris.add(Triangle(a, b, False))
    for b in range(-(spec.y + len(spec.D)), 0):
        for a in range(-b - 1, L):
            tris.add(Triangle(a, b, False))
        for a in range(-b, L):
            tris.add(Triangle(a, b, True))
    tris.difference_update(dent_triangles(spec))
    region = TriangularRegion(frozenset(tris), frozenset(spec.B))
    if region.up_count() != region.down_count():
        raise ExactnessError("region must be balanced")
    return region


def reflect_positions(S: Sequence[int], L: int) -> tuple[int, ...]:
    """Mirror positions through the base midpoint: s -> L+1-s, sorted."""
    out = []
    for s in S:
        if not 1 <= s <= L:
            raise PositionOutOfRange(f"position {s} outside [1..{L}]")
        out.append(L + 1 - s)
    return tuple(sorted(out))


@dataclass(frozen=True)
class ClusterSpec:
    """Dents grouped into contiguous clusters separated by positive gaps.

    clusters[0] sits flush against the west vertex and clusters[-1] flush
    against the east vertex; only those two may be empty. Tokens are UP
    or DOWN, one per occupied position.
    """

    clusters: tuple[tuple[str, ...], ...]
    gaps: tuple[int, ...]

    def __post_init__(self):
        clusters = tuple(tuple(c) for c in self.clusters)
        gaps = tuple(int(g) for g in self.gaps)
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "gaps", gaps)
        if len(gaps) != len(clusters) - 1:
            raise SpecError("need exactly one gap between consecutive clusters")
        if any(g <= 0 for g in gaps):
            raise SpecError("gaps must be positive")
        for i, c in enumerate(clusters):
            if 0 < i < len(clusters) - 1 and not c:
                raise SpecError("only the first and last cluster may be empty")
            for tok in c:
                if tok not in (UP, DOWN):
                    raise SpecError(f"unknown cluster token {tok!r}")

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.clusters)


def clusters_to_spec(c: ClusterSpec, x: int, y: int) -> ValidatedSpec:
    """Lay clusters along the base, west to east, and build the spec.

    The total gap length must equal x+y so that the clusters tile the rest
    of the base exactly (east attachment is then automatic).
    """
    if sum(c.gaps) != x + y:
        raise GeometryMismatch(
            f"gaps sum to {sum(c.gaps)}, expected x+y={x + y}")
    U: list[int] = []
    D: list[int] = []
    pos = 1
    for i, cluster in enumerate(c.clusters):
        for tok in cluster:
            (U if tok == UP else D).append(pos)
            pos += 1
        if i < len(c.gaps):
            pos += c.gaps[i]
    return make_spec(x, y, tuple(U), tuple(D), ())
