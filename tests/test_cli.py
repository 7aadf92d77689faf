import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import dentedhex
from dentedhex import cli, harness, theorems
from dentedhex.cli import main
from dentedhex.engines import count_axis, qcount_axis
from dentedhex.exactnum import ExactnessError
from dentedhex.formulas import pp
from dentedhex.harness import DEMO_SPEC_JSON, demo_spec
from dentedhex.lattice import make_spec


@pytest.fixture
def demo_file(tmp_path):
    p = tmp_path / "demo.json"
    p.write_text(json.dumps(DEMO_SPEC_JSON))
    return str(p)


def _spec_file(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_count(demo_file, capsys):
    assert main(["count", "--spec", demo_file]) == 0
    out = capsys.readouterr().out.strip()
    assert out == str(count_axis(demo_spec()))


def test_count_pure_hexagon(demo_file, capsys):
    assert main(["count", "--x", "40", "--y", "40"]) == 0
    assert capsys.readouterr().out.strip() == str(pp(40, 40, 40))
    assert main(["qcount", "--x", "1", "--y", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1*q^-1 + 1*q^1"
    for argv in (["count", "--x", "3"],
                 ["count", "--spec", demo_file, "--x", "1", "--y", "1"],
                 ["count", "--x", "-1", "--y", "2"]):
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err


def test_count_prints_more_than_4300_digits(monkeypatch, capsys):
    # CPython 3.11+ caps int-to-str conversion at 4,300 digits by default
    import dentedhex.cli as cli_mod
    monkeypatch.setattr(cli_mod, "count_axis", lambda spec: 10 ** 5000)
    cap = sys.get_int_max_str_digits() if hasattr(
        sys, "get_int_max_str_digits") else None
    try:
        assert main(["count", "--x", "2", "--y", "2"]) == 0
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    out = capsys.readouterr().out.strip()
    assert len(out) == 5001 and out == "1" + "0" * 5000


def test_count_brute_small(tmp_path, capsys):
    spec = _spec_file(tmp_path, "hex.json", {"x": 1, "y": 1, "U": [], "D": [], "B": []})
    assert main(["count", "--spec", spec, "--engine", "brute"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_qcount_and_at_one(demo_file, capsys):
    assert main(["qcount", "--spec", demo_file]) == 0
    poly_text = capsys.readouterr().out.strip()
    assert poly_text == qcount_axis(demo_spec()).render()
    # the value at q = 1 is count; qcount has no option that prints it
    assert main(["qcount", "--spec", demo_file, "--at-one"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --at-one" in captured.err


def test_ratio_identity(tmp_path, capsys):
    a = _spec_file(tmp_path, "a.json", {"x": 1, "y": 1, "U": [1, 3], "D": [2], "B": []})
    assert main(["ratio", "--thm", "1", "--spec-a", a, "--spec-b", a]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_ratio_swap(tmp_path, capsys):
    a = _spec_file(tmp_path, "a.json", {"x": 1, "y": 1, "U": [1, 3], "D": [2], "B": []})
    b = _spec_file(tmp_path, "b.json", {"x": 1, "y": 1, "U": [2, 3], "D": [1], "B": []})
    assert main(["ratio", "--thm", "1", "--spec-a", a, "--spec-b", b, "--check"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["ratio", "--thm", "3", "--spec-a", a, "--spec-b", b, "--check"]) == 0


@pytest.mark.parametrize("thm, engine", [("1", "count_axis"),
                                         ("2", "count_axis"),
                                         ("3", "qcount_axis")])
def test_ratio_check_fails_on_corrupted_count(tmp_path, monkeypatch, thm,
                                              engine):
    # --check runs theorems.check_thm{1,2,3}: a corrupted count must exit 2
    import dentedhex.theorems as th
    real = getattr(th, engine)
    monkeypatch.setattr(th, engine, lambda spec: 2 * real(spec)
                        if spec.U == (1, 3) else real(spec))
    a = _spec_file(tmp_path, "a.json", {"x": 1, "y": 1, "U": [1, 3], "D": [2], "B": []})
    b = _spec_file(tmp_path, "b.json", {"x": 1, "y": 1, "U": [2, 3], "D": [1], "B": []})
    assert main(["ratio", "--thm", thm, "--spec-a", a, "--spec-b", b,
                 "--check"]) == 2


def test_ratio_thm1_check_rejects_barriers(tmp_path, capsys):
    a = _spec_file(tmp_path, "a.json", {"x": 2, "y": 1, "U": [1, 3], "D": [2], "B": [4]})
    b = _spec_file(tmp_path, "b.json", {"x": 2, "y": 1, "U": [2, 3], "D": [1], "B": [4]})
    assert main(["ratio", "--thm", "1", "--spec-a", a, "--spec-b", b]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["ratio", "--thm", "1", "--spec-a", a, "--spec-b", b,
                 "--check"]) == 1
    assert "without barriers" in capsys.readouterr().err
    # the general shuffle covers the same pair, barriers included
    assert main(["ratio", "--thm", "2", "--spec-a", a, "--spec-b", b,
                 "--check"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_ratio_flips(tmp_path, capsys):
    a = _spec_file(tmp_path, "a.json", {"x": 2, "y": 1, "U": [1, 2], "D": [], "B": []})
    b = _spec_file(tmp_path, "b.json", {"x": 2, "y": 1, "U": [1], "D": [2], "B": []})
    assert main(["ratio", "--thm", "2", "--spec-a", a, "--spec-b", b, "--check"]) == 0
    assert capsys.readouterr().out.strip() == "1/2"


def test_bad_input_exit_code(tmp_path, capsys):
    bad = _spec_file(tmp_path, "bad.json", {"x": 0, "y": 0, "B": [1]})
    assert main(["count", "--spec", bad]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["count"]) == 1  # neither --spec nor --x/--y
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_render_tiling_respects_brute_limit(demo_file, capsys):
    # the demo region is far beyond the enumeration budget
    assert main(["render", "--spec", demo_file, "--tiling", "0"]) == 1
    assert "error" in capsys.readouterr().err


def _unbuilt_region(spec):
    raise AssertionError("an oversized region was built before the "
                         "budget refused it")


@pytest.mark.parametrize("argv", [
    ["count", "--engine", "brute"], ["qcount", "--engine", "brute"],
    ["render", "--tiling", "0"]])
def test_oversized_region_is_refused_before_it_is_built(argv, demo_file,
                                                        monkeypatch, capsys):
    # building costs memory in proportion to the region; the budget is
    # checked on the triangle count of the spec
    monkeypatch.setattr(cli, "build_region", _unbuilt_region)
    assert main(argv + ["--spec", demo_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 298 triangles exceeds the limit 120\n"


def _broken_qcount_axis(spec):
    raise ExactnessError("qcount_axis: planted fault")


def test_exactness_error_exits_2_without_traceback(monkeypatch, demo_file,
                                                  capsys):
    monkeypatch.setattr(theorems, "qcount_axis", _broken_qcount_axis)
    assert main(["verify", "--suite", "thm3", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: qcount_axis: planted fault\n"
    monkeypatch.setattr(cli, "qcount_axis", _broken_qcount_axis)
    assert main(["qcount", "--spec", demo_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: qcount_axis: planted fault\n"


def test_verify_small(capsys):
    rc = main(["verify", "--suite", "thm1", "--count", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("SUITE thm1:")
    for line in lines[:-1]:
        assert json.loads(line)["pass"] is True


@pytest.mark.parametrize("flag, value", [("--count", "-1"), ("--count", "0"),
                                         ("--jobs", "0"), ("--jobs", "-3")])
def test_verify_rejects_nonpositive_sizes(flag, value, capsys):
    # not an empty suite, not the suite default in disguise, not a serial run
    assert main(["verify", "--suite", "thm1", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}" in captured.err


def test_verify_has_no_max_L(capsys):
    # each suite's bounds are fixed; the option that overrode them is gone
    assert main(["verify", "--max-L", "5"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_jobs_deterministic(capsys):
    assert main(["verify", "--suite", "thm3", "--count", "3", "--jobs", "1"]) == 0
    out1 = capsys.readouterr().out
    assert main(["verify", "--suite", "thm3", "--count", "3", "--jobs", "2"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


_POOL_MODULES = ["multiprocessing", "concurrent.futures.process"]


def _fresh_cli(*argvs):
    """Run main on each argv in one fresh interpreter that reports two CPUs:
    its stdout, and which of _POOL_MODULES it loaded."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    script = ("import json, os, sys\n"
              "from dentedhex.cli import main\n"
              "os.cpu_count = lambda: 2\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    if main(argv):\n"
              "        sys.exit(1)\n"
              f"print(json.dumps([m for m in {_POOL_MODULES!r}\n"
              "                  if m in sys.modules]), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stderr)


def test_only_worker_runs_import_the_process_pool(capsys):
    # pytest has loaded multiprocessing already, so each run starts afresh
    out, loaded = _fresh_cli(["count", "--x", "3", "--y", "3"],
                             ["verify", "--suite", "thm1", "--count", "1"])
    assert loaded == []
    assert out.startswith(f"{pp(3, 3, 3)}\n")
    assert main(["verify", "--suite", "thm3", "--count", "3", "--jobs", "1"]) == 0
    serial = capsys.readouterr().out
    out, loaded = _fresh_cli(["verify", "--suite", "thm3", "--count", "3",
                              "--jobs", "2"])
    assert loaded == _POOL_MODULES
    assert out == serial


def test_asym_csv(tmp_path, capsys):
    c = _spec_file(tmp_path, "c.json",
                   {"clusters": [["up", "down", "up"], ["down"]], "gaps": [2]})
    c2 = _spec_file(tmp_path, "c2.json",
                    {"clusters": [["up", "up", "down"], ["down"]], "gaps": [2]})
    rc = main(["asym", "--clusters", c, "--clusters-alt", c2,
               "--x", "1", "--y", "1", "--nmax", "3"])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0].split(",")[:4] == ["N", "ratio", "limit", "deviation"]
    assert rows[1].split(",")[1] == "8/3"
    assert all(r.split(",")[2] == "2" for r in rows[1:])


def test_asym_float_appends_two_columns_and_out_writes_stdout(tmp_path,
                                                             capsys):
    c = _spec_file(tmp_path, "c.json",
                   {"clusters": [["up", "down", "up"], ["down"]], "gaps": [2]})
    c2 = _spec_file(tmp_path, "c2.json",
                    {"clusters": [["up", "up", "down"], ["down"]], "gaps": [2]})
    argv = ["asym", "--clusters", c, "--clusters-alt", c2,
            "--x", "1", "--y", "1", "--nmax", "3"]
    outputs = {}
    for extra in ([], ["--float"]):
        assert main(argv + extra) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "table.csv"
        assert main(argv + extra + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode()
        outputs[bool(extra)] = [r.split(",") for r in stdout.splitlines()]
    exact, floats = outputs[False], outputs[True]
    assert len(exact) == len(floats) == 4
    assert [r[:4] for r in floats] == exact
    assert floats[0][4:] == ["ratio_float", "deviation_float"]
    for row, frow in zip(exact[1:], floats[1:]):
        assert len(frow) == 6
        assert float(frow[4]) == float(Fraction(row[1]))
        assert float(frow[5]) == float(Fraction(row[3]))


@pytest.mark.parametrize("clusters, clusters2, gaps, err", [
    # the same total of up dents, one moved from cluster 0 to cluster 1:
    # the ratios go to 0 (5/27, 7/64, 9/125, 11/216), not to asym_rhs = 1
    ([["up", "up"], ["down", "down"], ["up"]],
     [["up", "down"], ["up", "down"], ["up"]], [1, 1],
     "up counts differ in clusters[0]: 2 vs 1"),
    # a flipped dent changes the total as well
    ([["down"], ["up"]], [["down"], ["down"]], [2],
     "up counts differ in clusters[1]: 1 vs 0"),
], ids=["moved", "flipped"])
def test_asym_refuses_up_dents_moved_between_clusters(tmp_path, clusters,
                                                      clusters2, gaps, err,
                                                      capsys):
    c = _spec_file(tmp_path, "c.json", {"clusters": clusters, "gaps": gaps})
    c2 = _spec_file(tmp_path, "c2.json", {"clusters": clusters2, "gaps": gaps})
    assert main(["asym", "--clusters", c, "--clusters-alt", c2,
                 "--x", "1", "--y", "1", "--nmax", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_render_cli(demo_file, tmp_path, capsys):
    out = tmp_path / "r.svg"
    assert main(["render", "--spec", demo_file, "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")
    hexf = _spec_file(tmp_path, "hex.json", {"x": 1, "y": 1, "U": [], "D": [], "B": []})
    assert main(["render", "--spec", hexf, "--tiling", "0"]) == 0
    assert "loz" in capsys.readouterr().out
    for index in ("5", "-1"):  # past the last tiling, and negative
        assert main(["render", "--spec", hexf, "--tiling", index]) == 1
        assert "error" in capsys.readouterr().err


def test_render_refuses_an_oversized_region(demo_file, tmp_path, capsys):
    # hex(1000, 1000) has 100 times the 60,000 triangles of hex(100, 100),
    # which takes 0.8 s and 50 MB to draw; the count comes from the spec
    out = tmp_path / "r.svg"
    hexf = _spec_file(tmp_path, "hex.json", {"x": 1000, "y": 1000})
    t0 = time.perf_counter()
    assert main(["render", "--spec", hexf, "--out", str(out)]) == 1
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 6000000 triangles exceeds the limit "
                            f"{cli.RENDER_LIMIT}\n")
    assert not out.exists()
    assert main(["render", "--spec", demo_file, "--out", str(out)]) == 0
    assert out.read_text().startswith("<svg")


@pytest.mark.parametrize("unit", ["0", "-5", "nan", "inf"])
def test_render_unit_must_be_positive_finite(demo_file, tmp_path, unit,
                                             capsys):
    out = tmp_path / "r.svg"
    assert main(["render", "--spec", demo_file, "--unit", unit,
                 "--out", str(out)]) == 1
    assert "error: argument --unit: " in capsys.readouterr().err
    assert not out.exists()


def test_render_unit_that_overflows_the_image_exits_1(demo_file, tmp_path,
                                                     capsys):
    # 1e308 is finite, but 1e308 times the region's width is not
    out = tmp_path / "r.svg"
    assert main(["render", "--spec", demo_file, "--unit", "1e308",
                 "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unit 1e+308 makes the image inf")
    assert not out.exists()


@pytest.mark.parametrize("obj", [
    {"clusters": [["up"], ["down"]]},              # no gaps
    [[["up"], ["down"]], [2]],                     # not an object
    {"clusters": "up", "gaps": [2]},               # clusters not a list
    {"clusters": ["up", "down"], "gaps": [2]},     # a cluster not a list
    {"clusters": [["up"], ["down"]], "gaps": {}},  # gaps not a list
    {"clusters": [["up"], ["down"]], "gaps": [{}]},
])
def test_asym_rejects_malformed_clusters(tmp_path, obj, capsys):
    bad = _spec_file(tmp_path, "bad.json", obj)
    good = _spec_file(tmp_path, "good.json",
                      {"clusters": [["up"], ["down"]], "gaps": [2]})
    for pair in ([bad, good], [good, bad]):
        assert main(["asym", "--clusters", pair[0], "--clusters-alt", pair[1],
                     "--x", "1", "--y", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: clusters JSON needs clusters "
                                       "and gaps")
        assert captured.err.count("\n") == 1


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    # exit 2 iff any check fails (forced here by corrupting a report)
    import dentedhex.cli as cli_mod
    real = cli_mod.run_suite

    def sabotaged(*a, **kw):
        reports = real(*a, **kw)
        reports[0].passed = False
        return reports

    monkeypatch.setattr(cli_mod, "run_suite", sabotaged)
    assert main(["verify", "--suite", "thm1", "--count", "2"]) == 2
    out = capsys.readouterr().out
    assert "FIRST-FAILURE" in out


def test_spec_json_type_strictness(tmp_path, capsys):
    bad = _spec_file(tmp_path, "bad.json", {"x": 1.5, "y": 1})
    assert main(["count", "--spec", bad]) == 1
    capsys.readouterr()
    bad2 = _spec_file(tmp_path, "bad2.json", {"x": 1, "y": 1, "U": ["1"]})
    assert main(["count", "--spec", bad2]) == 1
    capsys.readouterr()


_ASYM = ["asym", "--clusters", "c.json", "--clusters-alt", "c.json",
         "--x", "1", "--y", "1"]


@pytest.mark.parametrize("argv, flag", [
    (["corpus", "--size", "-1"], "--size"),
    (_ASYM + ["--nmax", "0"], "--nmax"),
    (_ASYM + ["--nmax", "-2"], "--nmax"),
    (["corpus", "--max-L", "8"], "--max-L"),
    (["corpus", "--max-L", "-2"], "--max-L"),
    (["count", "--x", "3", "--y", "3", "--engine", "brute", "--limit", "-5"],
     "--limit"),
    (["qcount", "--x", "3", "--y", "3", "--engine", "brute", "--limit", "-5"],
     "--limit"),
])
def test_sizes_below_range_are_usage_errors(argv, flag, capsys):
    # argparse rejects the value before any cluster file is opened; the
    # corpus is defined at L <= 8, so corpus has no --max-L at all and
    # rejects it whatever its value
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    want = ("error: unrecognized arguments: --max-L" if flag == "--max-L"
            else f"error: argument {flag}")
    assert want in captured.err


@pytest.mark.parametrize("distinct", [1, 2])
def test_corpus_short_of_size_exits_1(distinct, monkeypatch, capsys):
    # draws that repeat the same few specs leave the corpus short of 50;
    # the draws are bounded, so this ends with an error instead of looping
    # forever
    specs = [make_spec(3, 1, (2,)), make_spec(2, 2, (), (1,))]
    draws = itertools.cycle(specs[:distinct])
    monkeypatch.setattr(harness, "random_region_spec",
                        lambda rng, **bounds: next(draws))
    assert main(["corpus", "--size", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "short of size 50" in captured.err


def test_corpus_above_the_spec_count_exits_1_before_drawing(monkeypatch,
                                                           capsys):
    def draw(rng, **bounds):
        raise AssertionError("drew a spec")

    monkeypatch.setattr(harness, "random_region_spec", draw)
    start = time.perf_counter()
    assert main(["corpus", "--size", "1000000"]) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"exceeds {harness.CORPUS_MAX_SIZE}" in captured.err


def test_public_api_names_resolve():
    for name in dentedhex.__all__:
        assert hasattr(dentedhex, name), name
    assert len(set(dentedhex.__all__)) == len(dentedhex.__all__)


def test_corpus_deterministic(capsys):
    assert main(["corpus", "--seed", "7", "--size", "25"]) == 0
    out1 = capsys.readouterr().out
    assert main(["corpus", "--seed", "7", "--size", "25"]) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 25
    json.loads(out1.strip().splitlines()[0])
