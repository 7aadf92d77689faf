"""SVG rendering of regions and tilings.

Triangles are drawn at their oblique-basis coordinates (e1=(1,0),
e2=(1/2, sqrt(3)/2)) scaled by a unit length; removed dent triangles are
filled dark, barriers are thick strokes on the axis, and lozenges are
colored by kind.
"""

from __future__ import annotations

import math
from typing import Iterable

from .lattice import (KIND_L, KIND_R, KIND_V, Tiling, Triangle,
                      ValidatedSpec, build_region, dent_triangles,
                      lozenge_triangles)

_SQRT3_2 = math.sqrt(3) / 2

_TRI_FILL = {True: "#f4f1ea", False: "#ffffff"}
_DENT_FILL = "#3a3a3a"
_LOZ_FILL = {KIND_R: "#8ecae6", KIND_L: "#ffb703", KIND_V: "#9bc995"}
_BARRIER_STROKE = "#c62828"


def _xy(a: float, b: float) -> tuple[float, float]:
    return a + b / 2.0, b * _SQRT3_2


def _tri_corners(t: Triangle) -> list[tuple[float, float]]:
    if t.up:
        pts = [(t.a, t.b), (t.a + 1, t.b), (t.a, t.b + 1)]
    else:
        pts = [(t.a + 1, t.b), (t.a, t.b + 1), (t.a + 1, t.b + 1)]
    return [_xy(a, b) for a, b in pts]


def _fmt(v: float) -> str:
    return f"{v:.3f}".rstrip("0").rstrip(".")


class _Canvas:
    def __init__(self, unit: float):
        self.unit = unit
        self.elems: list[str] = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf

    def _track(self, pts: Iterable[tuple[float, float]]):
        for x, y in pts:
            self.min_x = min(self.min_x, x)
            self.max_x = max(self.max_x, x)
            self.min_y = min(self.min_y, y)
            self.max_y = max(self.max_y, y)

    def polygon(self, pts, fill: str, cls: str, stroke: str = "#888",
                width: float = 0.03):
        self._track(pts)
        coords = " ".join(f"{_fmt(x)},{_fmt(-y)}" for x, y in pts)
        self.elems.append(
            f'<polygon class="{cls}" points="{coords}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def line(self, p1, p2, stroke: str, cls: str, width: float):
        self._track([p1, p2])
        (x1, y1), (x2, y2) = p1, p2
        self.elems.append(
            f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(-y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(-y2)}" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}" stroke-linecap="round"/>')

    def to_svg(self) -> str:
        if not self.elems:
            vb = "0 0 1 1"
            w = h = self.unit
        else:
            pad = 0.25
            x0, y0 = self.min_x - pad, -(self.max_y + pad)
            dx = self.max_x - self.min_x + 2 * pad
            dy = self.max_y - self.min_y + 2 * pad
            vb = f"{_fmt(x0)} {_fmt(y0)} {_fmt(dx)} {_fmt(dy)}"
            w, h = self.unit * dx, self.unit * dy
            if not (math.isfinite(w) and math.isfinite(h)):
                raise ValueError(f"unit {self.unit} makes the image "
                                 f"{w} x {h} pixels")
        body = "\n".join(self.elems)
        return (f'<svg xmlns="http://www.w3.org/2000/svg" '
                f'width="{_fmt(w)}" height="{_fmt(h)}" viewBox="{vb}">\n'
                f"{body}\n</svg>\n")


def _draw_obstacles(cv: _Canvas, spec: ValidatedSpec):
    for t in dent_triangles(spec):
        cv.polygon(_tri_corners(t), _DENT_FILL,
                   f"dent {'up' if t.up else 'down'}", stroke="#222")
    for k in spec.B:
        cv.line(_xy(k - 1, 0), _xy(k, 0), _BARRIER_STROKE, "barrier", 0.14)


def render_region_svg(spec: ValidatedSpec, unit: float = 24.0) -> str:
    """The bare region: light triangles, dark dents, barrier marks."""
    cv = _Canvas(unit)
    region = build_region(spec)
    for t in sorted(region.triangles):
        cv.polygon(_tri_corners(t), _TRI_FILL[t.up],
                   f"tri {'up' if t.up else 'down'}")
    _draw_obstacles(cv, spec)
    return cv.to_svg()


def render_tiling_svg(spec: ValidatedSpec, tiling: Tiling,
                      unit: float = 24.0) -> str:
    """One tiling: lozenges colored by kind over the dents and barriers."""
    cv = _Canvas(unit)
    for loz in sorted(tiling):
        up, down = map(_tri_corners, lozenge_triangles(loz))
        # the down triangle's far corner goes between the two shared
        # corners, which follow the up triangle's own corner k
        (far,) = (p for p in down if p not in up)
        k = next(i for i, p in enumerate(up) if p not in down)
        pts = up[:]
        pts.insert((k + 1) % 3 + 1, far)
        cv.polygon(pts, _LOZ_FILL[loz.kind], f"loz {loz.kind}", stroke="#333",
                   width=0.045)
    _draw_obstacles(cv, spec)
    return cv.to_svg()
