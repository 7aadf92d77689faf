"""Command-line front end.

Exit codes: 0 success, 1 input or validation error, 2 a verification check
failed. Machine output is exact: decimal integers, "p/q" rationals and the
canonical polynomial text form; --float only ever adds columns.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from .engines import (RegionTooLarge, check_size, count_axis, count_brute,
                      enumerate_tilings, qcount_axis, qcount_brute)
from .exactnum import ExactnessError
from .formulas import ShuffleInstance, gen_shuffle_rhs, q_shuffle_rhs, shuffle_rhs
from .harness import SUITE_NAMES, engine_corpus, run_suite, summarize
from .lattice import (ClusterSpec, SpecError, build_region, make_spec,
                      spec_from_json_dict, triangle_count)
from .render import render_region_svg, render_tiling_svg
from .theorems import asym_table, check_thm1, check_thm2, check_thm3

# render without --tiling draws every triangle, at a cost that grows with
# x * y: hex(100, 100), 60,000 triangles, takes 0.8 s and 50 MB (Python
# 3.11, one core of a 2-vCPU machine)
RENDER_LIMIT = 100_000


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_spec(path: str):
    return spec_from_json_dict(_read_json(path))


def _load_clusters(path: str) -> ClusterSpec:
    obj = _read_json(path)
    if (not isinstance(obj, dict)
            or not isinstance(obj.get("clusters"), list)
            or not isinstance(obj.get("gaps"), list)
            or any(not isinstance(c, list) for c in obj["clusters"])
            or any(not isinstance(g, int) or isinstance(g, bool)
                   for g in obj["gaps"])):
        raise SpecError("clusters JSON needs clusters and gaps: a list of "
                        "token lists and a list of integers")
    return ClusterSpec(obj["clusters"], obj["gaps"])


def _write(text: str, out: str | None):
    """text to the file out, its line ends untranslated, else to stdout."""
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _region_spec(args):
    """The region of count/qcount: --spec, or the pure hexagon --x, --y."""
    if args.spec is not None:
        if args.x is not None or args.y is not None:
            raise SpecError("give --spec or --x/--y, not both")
        return _load_spec(args.spec)
    if args.x is None or args.y is None:
        raise SpecError("give --spec, or both --x and --y")
    return make_spec(args.x, args.y)


def _brute_region(spec, limit: int | None):
    """The region of spec for the oracle. Its triangle budget is checked
    from the spec first: building an oversized region costs memory in
    proportion to its size before the engine would refuse it."""
    check_size(triangle_count(spec), limit)
    return build_region(spec)


def _cmd_count(args) -> int:
    """count or qcount: the region's tiling number or its q-polynomial,
    printed in canonical form (a QPoly prints as its render())."""
    spec = _region_spec(args)
    q = args.command == "qcount"
    if args.engine == "brute":
        value = (qcount_brute if q else count_brute)(
            _brute_region(spec, args.limit), limit=args.limit)
    else:
        value = (qcount_axis if q else count_axis)(spec)
    print(value)
    return 0


def _instance_from_specs(a, b) -> ShuffleInstance:
    if (a.x, a.y, a.B) != (b.x, b.y, b.B):
        raise SpecError("the two specs must share x, y and the barrier set")
    return ShuffleInstance(a.x, a.y, a.U, a.D, b.U, b.D, a.B)


# --thm -> (predicted ratio, the check that compares it with the engines)
_RATIO = {1: (shuffle_rhs, check_thm1), 2: (gen_shuffle_rhs, check_thm2),
          3: (q_shuffle_rhs, check_thm3)}


def _cmd_ratio(args) -> int:
    inst = _instance_from_specs(_load_spec(args.spec_a), _load_spec(args.spec_b))
    predict, check = _RATIO[args.thm]
    print(predict(inst))
    if args.check and not check(inst).passed:
        return 2
    return 0


def _cmd_verify(args) -> int:
    reports = run_suite(args.suite, seed=args.seed, count=args.count,
                        jobs=args.jobs)
    for r in reports:
        print(r.json_line())
    s = summarize(reports)
    print(f"SUITE {args.suite}: {s.total - s.failed}/{s.total} passed")
    if s.failed:
        print(f"FIRST-FAILURE {s.first_failure}")
    return 2 if s.failed else 0


def _cmd_asym(args) -> int:
    c = _load_clusters(args.clusters)
    c2 = _load_clusters(args.clusters_alt)
    table = asym_table(c, c2, args.x, args.y, args.nmax)
    buf = io.StringIO()
    csv_out = csv.writer(buf)
    header = ["N", "ratio", "limit", "deviation"]
    if args.float:
        header += ["ratio_float", "deviation_float"]
    csv_out.writerow(header)
    for row in table.rows:
        line = [row.N, str(row.ratio), str(table.limit), str(row.deviation)]
        if args.float:
            line += [float(row.ratio), float(row.deviation)]
        csv_out.writerow(line)
    _write(buf.getvalue(), args.out)
    return 0


def _cmd_render(args) -> int:
    spec = _load_spec(args.spec)
    if args.tiling is None:
        check_size(triangle_count(spec), RENDER_LIMIT)
        _write(render_region_svg(spec, unit=args.unit), args.out)
        return 0
    tilings = enumerate_tilings(_brute_region(spec, None),
                                limit=args.tiling + 1)
    if args.tiling >= len(tilings):
        print(f"error: region has only {len(tilings)} tilings", file=sys.stderr)
        return 1
    _write(render_tiling_svg(spec, tilings[args.tiling], unit=args.unit),
           args.out)
    return 0


def _cmd_corpus(args) -> int:
    for spec in engine_corpus(seed=args.seed, size=args.size):
        print(json.dumps(spec.to_json_dict(), sort_keys=True,
                         separators=(",", ":")))
    return 0


def _int_at_least(low: int):
    """argparse type: an int >= low, else a usage error (exit 1)."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {value}")
        return value
    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a positive finite float, else a usage error (exit 1)."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, "
                                         f"got {text}")
    return value


_positive_float.__name__ = "float"  # argparse: "invalid float value: 'x'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dentedhex",
        description="Exact lozenge-tiling counts of dented hexagons "
                    "with axis barriers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_region(p):
        p.add_argument("--spec", help="region spec JSON file")
        p.add_argument("--x", type=int, help="pure hexagon (x, y), "
                       "instead of --spec")
        p.add_argument("--y", type=int)

    for name, text in (("count", "exact tiling count of a region"),
                       ("qcount", "tiling generating function in q")):
        p = sub.add_parser(name, help=text)
        add_region(p)
        p.add_argument("--engine", choices=("axis", "brute"), default="axis")
        p.add_argument("--limit", type=_int_at_least(0), default=None,
                       help="brute-force triangle budget")
        p.set_defaults(func=_cmd_count)

    p = sub.add_parser("ratio", help="predicted count ratio of two regions")
    p.add_argument("--thm", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--spec-a", required=True)
    p.add_argument("--spec-b", required=True)
    p.add_argument("--check", action="store_true",
                   help="also verify against the engines (exit 2 on mismatch)")
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=SUITE_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--count", type=_int_at_least(1), default=None,
                   help="override the per-suite instance count")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("asym", help="finite-scale ratio table (CSV)")
    p.add_argument("--clusters", required=True,
                   help='JSON file {"clusters":[[...]],"gaps":[...]}')
    p.add_argument("--clusters-alt", required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--nmax", type=_int_at_least(1), default=6)
    p.add_argument("--float", action="store_true",
                   help="append float convenience columns")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_asym)

    p = sub.add_parser("render", help="SVG of a region or one tiling")
    p.add_argument("--spec", required=True, help="region spec JSON file")
    p.add_argument("--tiling", type=_int_at_least(0), default=None,
                   help="index into the deterministic tiling enumeration")
    p.add_argument("--unit", type=_positive_float, default=24.0,
                   help="pixels per unit")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("corpus", help="regenerate the cross-engine corpus")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--size", type=_int_at_least(0), default=300)
    p.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        # counts can outgrow the default cap on int-to-str digits (4,300)
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; keep 2 for failed checks only
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except (SpecError, RegionTooLarge, OSError,
            json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ExactnessError as exc:
        # an exact result broke its own invariant: a check failed
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
