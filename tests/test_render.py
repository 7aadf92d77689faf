import hashlib
import xml.etree.ElementTree as ET

from dentedhex.engines import enumerate_tilings
from dentedhex.harness import demo_spec
from dentedhex.lattice import build_region, make_spec
from dentedhex.render import render_region_svg, render_tiling_svg


def _classes(svg: str, prefix: str):
    root = ET.fromstring(svg)
    return [e for e in root.iter()
            if (e.get("class") or "").startswith(prefix)]


def test_demo_region_svg():
    svg = render_region_svg(demo_spec())
    assert len(_classes(svg, "dent")) == 9  # u + d = 5 + 4
    assert len(_classes(svg, "barrier")) == 2
    region = build_region(demo_spec())
    assert len(_classes(svg, "tri")) == len(region.triangles)


def test_empty_region_svg():
    svg = render_region_svg(make_spec(0, 0))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) == 1  # nothing drawn


def test_tiling_svg():
    spec = make_spec(1, 1)
    first = next(enumerate_tilings(build_region(spec)))
    svg = render_tiling_svg(spec, first)
    assert len(_classes(svg, "loz")) == 3
    kinds = {e.get("class") for e in _classes(svg, "loz")}
    assert kinds <= {"loz R", "loz L", "loz V"}


def test_svg_scales_with_unit():
    spec = make_spec(1, 1)
    small = render_region_svg(spec, unit=10)
    big = render_region_svg(spec, unit=40)
    w_small = float(ET.fromstring(small).get("width"))
    w_big = float(ET.fromstring(big).get("width"))
    assert abs(w_big - 4 * w_small) < 1e-6


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_svg_bytes_are_pinned():
    # recorded from the hand-written lozenge outlines and dent loops
    assert _sha256(render_region_svg(demo_spec())) == (
        "87270fcdd9012665209967c9d655d2b81ec8ea260b7111dd1c9a60fa26491731")
    spec = make_spec(2, 2, (1,), (3,))
    region = build_region(spec)
    tilings = list(enumerate_tilings(region))
    assert (len(tilings), len(region.triangles)) == (162, 52)
    svgs = "".join(render_tiling_svg(spec, t) for t in tilings)
    assert _sha256(svgs) == (
        "176510f43668dac9a5396b786ab8ff7aaf8c9b09c2145c2be803f3eb295b4735")
