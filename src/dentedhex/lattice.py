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

A ValidatedSpec stores only x, y, U, D and B. n, L and the free axis
positions are derived from them on each read, never supplied: no spec can
disagree with its inputs, and building one allocates nothing in L.
Degenerate regions (empty triangle sets) are valid and have exactly one,
empty, tiling.
The dented semihexagon with the a dents S on a base of length a+b is
the flat region make_spec(b, 0, S): rows 0..a-1 and no rows below the
axis.

TriangularRegion.sweep_graph keeps the region's dual graph (_dual_graph)
in the sweep order that both oracle engines read.

make_spec and ClusterSpec read their numbers with int(), and refuse one
that int() would truncate or cannot read: make_spec(2.7, 1) is an error,
not make_spec(2, 1), and so is make_spec(float("inf"), 1). A str such as
"2" is parsed exactly or not at all, and True is the 1 it equals, so both
are read as int() reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import filterfalse
from operator import itemgetter, lt
from typing import Iterable, Iterator, NamedTuple, Sequence

from .exactnum import ExactnessError


class SpecError(ValueError):
    """Invalid input, such as a region or cluster description that breaks
    a rule; the message names the first fault found."""


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

    It holds the five inputs only. L and free are computed on each read:
    a caller that reads free more than once binds it to a local.

    Input from outside always enters through make_spec. A region derived
    from one that make_spec returned may be built directly, once the code
    has checked every make_spec rule that the derivation can break; each
    site that does so names the rule that keeps the region valid.
    """

    x: int
    y: int
    U: tuple[int, ...]
    D: tuple[int, ...]
    B: tuple[int, ...]

    @property
    def L(self) -> int:
        """The base length x + y + |U union D|."""
        return self.x + self.y + len({*self.U, *self.D})

    @property
    def free(self) -> tuple[int, ...]:
        """The axis positions that may host a crossing vertical lozenge:
        [1..L] minus dents and barriers."""
        blocked = {*self.U, *self.D, *self.B}
        return tuple(filterfalse(blocked.__contains__, range(1, self.L + 1)))

    def to_json_dict(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "U": list(self.U),
            "D": list(self.D),
            "B": list(self.B),
        }


def _check_positions(name: str, values: Sequence[int]) -> None:
    """SpecError unless values are strictly increasing and >= 1.

    One C-level pass tests 0 < v_1 < v_2 < ..., skipped when values is
    empty; the loops run only on a fault, to name the first one.
    """
    if values and not all(map(lt, (0, *values), values)):
        for v in values:
            if v < 1:
                raise SpecError(f"{name} position {v} is not >= 1")
        for a, b in zip(values, values[1:]):
            if a == b:
                raise SpecError(f"{name} contains {a} twice")
            if a > b:
                raise SpecError(
                    f"{name} is not strictly increasing at {a},{b}")


def _ints(name: str, values: Iterable) -> tuple[int, ...]:
    """tuple(map(int, values)), or SpecError when int() truncates a value
    or refuses it (inf, nan, a str it cannot parse).

    A value v that int() maps exactly compares equal to int(v), except a
    str, which int() parses exactly or refuses. So plain ints cost one
    C-level comparison, and only a mismatch is looked at value by value.
    """
    values = tuple(values)
    try:
        out = tuple(map(int, values))
    except (OverflowError, ValueError):  # some value fails below
        out = None
    if out != values:
        for v in values:
            try:
                exact = int(v) == v or isinstance(v, str)
            except (OverflowError, ValueError):
                exact = False
            if not exact:
                raise SpecError(f"{name} must be integers, not {v!r}")
    return out


def _checked_positions(name: str, values: Iterable[int]) -> tuple[int, ...]:
    out = _ints(name, values)
    _check_positions(name, out)
    return out


def make_spec(x: int, y: int, U: Sequence[int] = (), D: Sequence[int] = (),
              B: Sequence[int] = ()) -> ValidatedSpec:
    """Check a region description and build its spec."""
    if type(x) is not int or type(y) is not int:  # plain ints skip _ints
        x, y = _ints("x and y", (x, y))
    if x < 0 or y < 0:
        raise SpecError("x and y must be nonnegative")
    U = _checked_positions("U", U)
    D = _checked_positions("D", D)
    B = _checked_positions("B", B)
    dents = set(U) | set(D)
    barred = set(B)
    if not dents.isdisjoint(barred):
        raise SpecError(
            f"barriers {sorted(barred & dents)} collide with dents")
    if len(B) > x:
        raise SpecError(f"{len(B)} barriers but x={x}")
    L = x + y + len(dents)  # spec.L, without building the union again
    blocked = dents | barred
    if blocked and max(blocked) > L:
        for v in blocked:
            if v > L:
                raise SpecError(f"position {v} exceeds the base length {L}")
    return ValidatedSpec(x, y, U, D, B)


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
    """An explicit set of unit triangles plus forbidden crossing positions.

    Equality, hash, repr and pickling read the two fields only. The
    sweep-ordered dual graph is built on the first read of sweep_graph and
    kept in the instance's __dict__ until the region is freed, and so is
    its number of matchings, under "count", once an oracle engine has
    counted it (engines._count): two equal regions each build and count
    their own, and a pickle or copy carries neither.
    """

    triangles: frozenset
    forbidden_vertical: frozenset

    @cached_property
    def sweep_graph(self):
        """_dual_graph(self, _sweep), built once: the graph count_brute and
        qcount_brute both run their DP on. It is shared, so no reader may
        change its lists."""
        return _dual_graph(self, _sweep)

    def __getstate__(self):
        return {"triangles": self.triangles,
                "forbidden_vertical": self.forbidden_vertical}


def _right_tilt_exponent(b: int) -> int:
    """The q-exponent of a right-tilting lozenge in row b."""
    return b + 1 if b >= 0 else b


def _sweep(t: Triangle):
    """Sort key: column a ascending, its top row first, in each cell up
    before down. The oracle DP's frontier then follows one lattice line."""
    return t.a, -t.b, not t.up


def _dual_graph(region: TriangularRegion, key=None):
    """The dual graph in key order: (tris, moves, off).

    Vertices are the region's triangles, edges their shared sides, less
    the vertical ones crossing the axis at a forbidden position.
    moves[i] lists triangle i's forward moves, (j, w, kind) for each
    partner j > i in ascending j, w the edge's weight and kind the
    lozenge's (LOZENGE_MATES): each edge is listed once, at its earlier
    end. When i is the lowest uncovered triangle every partner
    before it is already covered, so forward moves are all that the oracle
    DP and the tiling walk ever take. off[i] is an up triangle's least edge
    weight (0 with no edge) and 0 for a down triangle.

    An up triangle's mates come from LOZENGE_MATES, looked up as plain
    (a, b, up) tuples, which hash and compare as the Triangle they stand
    for. A down triangle's moves come from the up triangles after it,
    which are reached in ascending order, so only an up triangle's own
    moves need sorting.
    """
    tris = sorted(region.triangles, key=key)
    index = {t: i for i, t in enumerate(tris)}
    moves: list[list[tuple[int, int, str]]] = [[] for _ in tris]
    off = [0] * len(tris)
    barred = region.forbidden_vertical
    for i, (a, b, up) in enumerate(tris):
        if not up:
            continue
        tilt = _right_tilt_exponent(b)
        row, low = moves[i], None
        for kind, da, db in LOZENGE_MATES:
            if kind == KIND_V and b == 0 and a + 1 in barred:
                continue
            j = index.get((a + da, b + db, False))
            if j is not None:
                w = tilt if kind == KIND_R else 0
                if j > i:
                    row.append((j, w, kind))
                else:
                    moves[j].append((i, w, kind))
                if low is None or w < low:
                    low = w
        row.sort()
        off[i] = low or 0  # None: no edge
    return tris, moves, off


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
    h, g, L = spec.y + len(spec.U), spec.y + len(spec.D), spec.L
    return h * (2 * L - h) + g * (2 * L - g) - len(spec.U) - len(spec.D)


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
    if 2 * sum(map(itemgetter(2), tris)) != len(tris):  # up == down
        raise ExactnessError("region must be balanced")
    return TriangularRegion(frozenset(tris), frozenset(spec.B))


def reflect_positions(S: Sequence[int], L: int) -> tuple[int, ...]:
    """Mirror positions through the base midpoint: s -> L+1-s, sorted."""
    out = []
    for s in S:
        if not 1 <= s <= L:
            raise SpecError(f"position {s} outside [1..{L}]")
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
        # frozen: fill the fields past __setattr__
        vars(self).update(clusters=tuple(map(tuple, self.clusters)),
                          gaps=_ints("gaps", self.gaps))
        if len(self.gaps) != len(self.clusters) - 1:
            raise SpecError("need exactly one gap between consecutive clusters")
        if any(g <= 0 for g in self.gaps):
            raise SpecError("gaps must be positive")
        for i, c in enumerate(self.clusters):
            if 0 < i < len(self.clusters) - 1 and not c:
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
        raise SpecError(f"gaps sum to {sum(c.gaps)}, expected x+y={x + y}")
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
