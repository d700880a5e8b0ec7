"""End-to-end checks of the command line front end through CliRunner."""

import csv
import io
import itertools
import json
import math
import pathlib
import shlex
import time
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import heatglue.cli
from heatglue import symlin
from heatglue.cli import Axis, Reports, main
from heatglue.expmix import ConfluentOverflowError
from heatglue.graph_heat import KernelMatrix, SeriesKernel
from heatglue.symlin import ConvergenceError


def invoke(args, env=None):
    runner = CliRunner()
    return runner.invoke(main, args, env=env, catch_exceptions=False)


def json_lines(output):
    return [json.loads(line) for line in output.splitlines() if line]


# ---------------------------------------------------------------------------
# graph subcommands
# ---------------------------------------------------------------------------


def test_graph_glue_line3_fixture_hits_closed_form():
    res = invoke(["graph", "glue", "--input", "line3", "--t", "1"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    assert len(reports) == 9
    by_case = {r["case"]: r for r in reports}
    r13 = by_case["glue[1,3]"]
    assert r13["status"] == "pass"
    assert r13["residual"] < 1e-12
    expected = 1.0 / 3.0 - 0.5 * math.exp(-1.0) + math.exp(-3.0) / 6.0
    assert r13["value"] == pytest.approx(expected, abs=1e-12)
    assert all(r["residual"] < 1e-12 for r in reports)


def test_graph_glue_reports_are_sorted_and_recomputable():
    res = invoke(["graph", "glue", "--input", "line3", "--t", "0.5"])
    reports = json_lines(res.stdout)
    cases = [r["case"] for r in reports]
    assert cases == sorted(cases)
    for r in reports:
        recomputed = r["residual"] <= max(r["inputs"]["tol"], r["bound"])
        assert (r["status"] == "pass") == recomputed


def test_graph_glue_series_bound_is_true():
    res = invoke(["graph", "glue", "--input", "line3", "--t", "1",
                  "--method", "series", "--kmax", "8"])
    assert res.exit_code == 0
    for r in json_lines(res.stdout):
        assert r["residual"] <= r["bound"]
        assert r["bound"] < 2.0


def test_graph_glue_series_walks_the_kernel_once_per_case(tmp_path,
                                                         monkeypatch):
    walks = []
    walk = SeriesKernel._rows_at

    def spy(self, t):
        walks.append(t)
        return walk(self, t)

    monkeypatch.setattr(SeriesKernel, "_rows_at", spy)
    res = invoke(["graph", "glue", "--input", "line3", "--t", "1",
                  "--method", "series", "--kmax", "8"])
    assert res.exit_code == 0
    assert walks == [1.0]
    problems = tmp_path / "series.json"
    problems.write_text(json.dumps({"cases": [
        {"id": f"s{i}", "kind": "graph-glue", "input": "line3", "t": t,
         "method": "series", "kmax": 8} for i, t in enumerate((0.25, 4.0))]}))
    walks.clear()
    res = invoke(["verify", "--input", str(problems)])
    assert res.exit_code == 0
    assert walks == [0.25, 4.0]


def test_graph_references_take_one_eigendecomposition(tmp_path, monkeypatch):
    # the reference is Q diag(e^{-wt}) Q^T from one eigh, and the assembled
    # gluing its values at t from two; no case builds a KernelMatrix
    calls = Counter()
    eigh, build = symlin.eigh, KernelMatrix.__init__

    def spy_eigh(a):
        calls["eigh"] += 1
        return eigh(a)

    def spy_build(self, *args, **kwargs):
        calls["KernelMatrix"] += 1
        build(self, *args, **kwargs)

    monkeypatch.setattr(symlin, "eigh", spy_eigh)
    monkeypatch.setattr(KernelMatrix, "__init__", spy_build)
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        "interface": ["b", "d"], "side1": ["a"], "side2": ["c"]}))
    problems = tmp_path / "problems.json"
    for case, want in [
            ({"kind": "graph-glue", "method": "series", "kmax": 8},
             {"eigh": 1}),
            ({"kind": "graph-pathsum", "u": "a", "v": "c"}, {"eigh": 1}),
            ({"kind": "graph-glue"}, {"eigh": 3}),
            # per draw, two for the gluing and one for the references, each
            # at all three times
            ({"kind": "random-graph-glue", "count": 2, "nmax": 6},
             {"eigh": 6})]:
        problems.write_text(json.dumps({"cases": [
            {"id": "c", "input": str(square), "t": 0.7, **case}]}))
        calls.clear()
        res = invoke(["verify", "--input", str(problems)])
        assert res.exit_code == 0
        assert calls == want


def test_graph_pathsum_report_shape():
    res = invoke(["graph", "pathsum", "--input", "line3", "--u", "1",
                  "--v", "3", "--t", "0.7", "--eps", "1e-9"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    for key in ("u", "v", "t", "value", "cutoff", "tail_bound"):
        assert key in r
    assert r["residual"] <= r["tail_bound"]
    assert r["cutoff"] > 0


def test_graph_cut_dirichlet_line_green_entries():
    res = invoke(["graph", "cut", "--input", "line_dirichlet", "--m2", "1"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    by_case = {r["case"]: r for r in reports}
    assert by_case["schur-gap"]["value"] < 1e-12
    greens = [r for r in reports if r["case"].startswith("green[")]
    assert len(greens) == 25
    assert all(r["residual"] < 1e-12 for r in greens)
    # closed form at the center of the path 0..6 with m2 = 1
    th = math.acosh(1.5)
    center = math.sinh(3 * th) ** 2 / (math.sinh(th) * math.sinh(6 * th))
    assert by_case["green[3,3]"]["value"] == pytest.approx(center, abs=1e-13)


def test_graph_cut_tiny_mass_keeps_the_closed_form_finite():
    # cosh(theta) = 1 + m2/2 rounds to 1 here, so theta must not come from
    # acosh; the Schur gap must hold too, although the full Green's matrix
    # has a condition number of about 1/m2
    res = invoke(["graph", "cut", "--input", "line_dirichlet",
                  "--m2", "1e-17"])
    reports = json_lines(res.stdout)
    assert len(reports) == 26
    greens = [r for r in reports if r["case"].startswith("green[")]
    assert len(greens) == 25
    assert all(r["status"] == "pass" for r in reports)
    by_case = {r["case"]: r for r in reports}
    assert by_case["schur-gap"]["value"] < 1e-12
    assert res.exit_code == 0


def test_graph_cut_unresolved_block_is_a_numerical_error(tmp_path):
    # the triangle p-q-r has no interface vertex, so L_aa + m2 I has the
    # eigenvalue m2 there, which rounds to 0 at this mass
    graph = tmp_path / "line_and_triangle.json"
    graph.write_text(json.dumps({
        "vertices": ["1", "2", "3", "p", "q", "r"],
        "edges": [["1", "2"], ["2", "3"], ["p", "q"], ["q", "r"],
                  ["r", "p"]]}))
    res = invoke(["graph", "cut", "--input", str(graph), "--interface", "2",
                  "--m2", "1e-17"])
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"].startswith("FloatingPointError: ")


def test_graph_cut_explicit_interface_skips_closed_form():
    res = invoke(["graph", "cut", "--input", "line_dirichlet",
                  "--interface", "3", "--m2", "0.5"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    assert [r["case"] for r in reports] == ["schur-gap"]


# ---------------------------------------------------------------------------
# continuum subcommands
# ---------------------------------------------------------------------------


def test_interval_glue_formula_I():
    res = invoke(["interval", "glue", "--L1", "1", "--L2", "2", "--x", "0.5",
                  "--y", "0.7", "--t", "0.4"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["residual"] < 1e-12
    assert r["value"] == pytest.approx(0.18054064726888203, abs=1e-12)


def test_interval_glue_formula_II_residual_below_tail_bound():
    res = invoke(["interval", "glue", "--L1", "1", "--L2", "1", "--x", "0.4",
                  "--y", "0.6", "--t", "0.7", "--formula", "II",
                  "--nmax", "6"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["bound"] > 0.0
    assert r["residual"] <= max(r["inputs"]["tol"], r["bound"])
    assert r["status"] == "pass"


def test_interval_glue_formula_II_reference_does_not_cancel():
    # the difference of two kernel values cancelled to 1.1e-15 here, far
    # above the route's bound of 1.6e-41; the direct image sum does not
    res = invoke(["interval", "glue", "--L1", "1.078", "--L2", "1.974",
                  "--x", "1.421", "--y", "1.633", "--t", "0.022",
                  "--formula", "II", "--nmax", "6", "--tol", "1e-30"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["residual"] <= r["bound"]
    assert r["status"] == "pass"


def test_interval_glue_formula_II_near_the_junction_is_within_its_bound():
    # x + y is 0.088 against 2 L2 = 5.6: a reference that formed x + y as
    # (x + y - 2 L2) + 2 L2 lost it to rounding and missed by 4.5e-15,
    # passing only through tol; the route is off by 1.5e-18 in 50 digits
    res = invoke(["interval", "glue", "--L1", "7.748908902871454",
                  "--L2", "2.8213163033739366", "--x", "0.047089546858612316",
                  "--y", "0.04107829463208869", "--t", "0.00038250662773810836",
                  "--formula", "II", "--nmax", "2"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert 0.0 < r["bound"] < 1e-15
    assert r["residual"] <= r["bound"]
    assert r["status"] == "pass"


@pytest.mark.parametrize("args,message", [
    ("interval glue --L1 0.05 --L2 20 --x 1 --y 2 --t 100 --formula II",
     "TruncationError: echo series at order 6: bound inf"),
    ("circle cut --L 0.2 --cuts 0,0.1 --x 0.03 --y 0.07 --t 10 --kmax 6",
     "TruncationError: circle cut at order 6: its truncation tail")])
def test_a_tail_past_the_float_range_exits_three(args, message):
    # the least Laplace tail is past e^709: an infinite tail, reported as a
    # typed error rather than an OverflowError or a pass
    res = invoke(args.split())
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"].startswith(message)


@pytest.mark.parametrize("args,message", [
    # bounds 3.2e56 and 7.2 against the circle kernel 0.5, which bounds the
    # arc kernel a priori
    ("circle cut --L 2 --cuts 0,1 --x 0.3 --y 0.7 --t 100 --kmax 4",
     "TruncationError: circle cut at order 4: bound 3.18128e+56 is not below "
     "the a-priori bound 0.5"),
    ("circle cut --L 2 --cuts 0,1 --x 0.3 --y 0.7 --t 3 --kmax 8",
     "TruncationError: circle cut at order 8: bound 7.20295 is not below "
     "the a-priori bound 0.5"),
    # values about 1e-17 against 1/3, and a bound of 1.0000000000061 on
    # entries that lie in [0, 1]
    ("graph glue --input line3 --t 50 --method series --kmax 2",
     "TruncationError: series at order 2: bound 1.00000000000611 is not "
     "below the a-priori bound 1"),
    # theta t = 140000 passes the 65536 Taylor orders the walk keeps
    ("graph glue --input line3 --t 70000 --method series --kmax 3",
     "TruncationError: series at order 3: bound 1.00000000450431 is not "
     "below the a-priori bound 1")])
def test_a_bound_at_or_above_the_a_priori_bound_exits_three(args, message):
    t0 = time.perf_counter()
    res = invoke(args.split())
    assert time.perf_counter() - t0 < 5.0
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"].startswith(message)


@pytest.mark.parametrize("args,oracle", [
    ("interval glue --L1 1 --L2 2 --x 0.5 --y 0.7 --t 0.4", "glue_direct"),
    ("interval glue --L1 1 --L2 2 --x 0.5 --y 0.7 --t 0.4 --formula II",
     "glue_direct"),
    ("circle cut --L 2 --cuts 0,1 --x 0.3 --y 0.7 --t 0.4", "k_interval")])
def test_interval_and_cut_references_are_evaluated_once(monkeypatch, args,
                                                         oracle):
    calls = Counter()
    for name in ("glue_direct", "k_interval"):
        def spy(*a, _f=getattr(heatglue.heat1d, name), _name=name):
            calls[_name] += 1
            return _f(*a)
        monkeypatch.setattr(heatglue.heat1d, name, spy)
    res = invoke(args.split())
    assert res.exit_code == 0
    assert calls == {oracle: 1}


@pytest.mark.parametrize("args", ["--L1 0.1 --L2 0.1 --x 0.03 --y 0.04 --t 10",
                                  "--L1 1 --L2 1 --x 0.5 --y 0.5 --t 100"])
def test_interval_glue_formula_II_exits_three_on_a_vacuous_bound(args):
    # the echo tail at order 6 is not below g_|x-y|(t), which bounds the
    # correction a priori: an error, not a pass
    res = invoke(["interval", "glue", *args.split(), "--formula", "II",
                  "--nmax", "6"])
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"].startswith("TruncationError: echo series at order 6")


def test_ray_glue_closed_form():
    res = invoke(["ray", "glue", "--x", "0.8", "--y", "1.1", "--t", "0.6"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["residual"] < 1e-12
    assert r["value"] == pytest.approx(0.08092228913086097, abs=1e-12)


def test_circle_cut_reference_point():
    res = invoke(["circle", "cut", "--L", "2", "--cuts", "0,1", "--x", "0.3",
                  "--y", "0.7", "--t", "0.4", "--kmax", "4"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["residual"] < 1e-5
    assert r["residual"] <= r["bound"] < 1e-5
    assert r["status"] == "pass"


def test_cylinder_check_default_battery():
    res = invoke(["cylinder", "check", "--L1", "1", "--L2", "2",
                  "--t", "0.5"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["value"] < 1e-9


def test_dn_cylinder_gaps_certified():
    res = invoke(["dn", "cylinder", "--L", "2", "--m2", "1", "--kmax", "5"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    assert len(reports) == 6
    assert [r["case"] for r in reports] == sorted(r["case"] for r in reports)
    for r in reports:
        assert r["value"] >= r["reference"]
        assert r["residual"] <= r["bound"]


# ---------------------------------------------------------------------------
# formats, determinism, exit codes
# ---------------------------------------------------------------------------


def test_csv_format_columns():
    res = invoke(["interval", "glue", "--L1", "1", "--L2", "2", "--x", "0.5",
                  "--y", "0.7", "--t", "0.4", "--format", "csv"])
    assert res.exit_code == 0
    header, row = res.stdout.splitlines()
    assert header == "case,geometry,params,x,y,t,value,bound,reference,residual,status"
    cells = row.split(",")
    assert cells[0] == "interval-glue"
    assert cells[1] == "interval"
    assert float(cells[3]) == 0.5
    assert float(cells[5]) == 0.4
    assert cells[-1] == "pass"


def test_reports_byte_identical_across_runs():
    args = ["verify", "--input", "intervals", "--seed", "3"]
    assert invoke(args).stdout == invoke(args).stdout
    args = ["graph", "glue", "--input", "line3", "--t", "1"]
    assert invoke(args).stdout == invoke(args).stdout


def test_verify_empty_problem_set_exits_zero():
    res = invoke(["verify", "--suite", "all", "--seed", "7",
                  "--tol", "1e-8"])
    assert res.exit_code == 0
    assert res.stdout == ""


def test_verify_bundled_problem_set_passes():
    res = invoke(["verify", "--input", "intervals", "--seed", "0"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    assert len(reports) == 6
    assert all(r["status"] == "pass" for r in reports)


def test_verify_suite_filter():
    res = invoke(["verify", "--input", "intervals", "--suite", "ray"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    assert [r["case"] for r in reports] == ["ray-glue-a"]


def test_verify_random_graph_cases_deterministic_per_seed(tmp_path):
    problems = {"cases": [
        {"id": "rand", "kind": "random-graph-glue", "count": 2,
         "nmax": 8, "tol": 1e-9},
    ]}
    path = tmp_path / "problems.json"
    path.write_text(json.dumps(problems))
    a = invoke(["verify", "--input", str(path), "--seed", "11"])
    b = invoke(["verify", "--input", str(path), "--seed", "11"])
    c = invoke(["verify", "--input", str(path), "--seed", "12"])
    assert a.exit_code == 0
    assert a.stdout == b.stdout
    assert a.stdout != c.stdout
    for r in json_lines(a.stdout):
        assert r["residual"] < 1e-9


def test_exit_one_on_tolerance_failure():
    # formula I reports no bound, so its rounding residual (8.7e-19 here)
    # fails this tol
    res = invoke(["interval", "glue", "--L1", "1.078", "--L2", "1.974",
                  "--x", "1.421", "--y", "1.633", "--t", "0.5",
                  "--tol", "1e-30"])
    assert res.exit_code == 1
    (r,) = json_lines(res.stdout)
    assert r["status"] == "fail"


def test_exit_two_on_missing_input():
    res = invoke(["graph", "glue", "--input", "nosuchfile", "--t", "1"])
    assert res.exit_code == 2


def test_exit_two_on_bad_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [')
    res = invoke(["graph", "glue", "--input", str(bad), "--t", "1"])
    assert res.exit_code == 2


def test_exit_two_on_domain_violation():
    res = invoke(["interval", "glue", "--L1", "1", "--L2", "2", "--x", "5",
                  "--y", "0.5", "--t", "1"])
    assert res.exit_code == 2


def test_exit_three_on_numerical_failure():
    res = invoke(["graph", "pathsum", "--input", "line3", "--u", "1",
                  "--v", "3", "--t", "50", "--eps", "1e-300"])
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["value"] is None


@pytest.mark.parametrize("error", [ConvergenceError, ConfluentOverflowError])
def test_exit_three_on_eigensolver_and_confluent_failures(error, tmp_path,
                                                          monkeypatch):
    def fail(d, t):
        raise error("injected")

    monkeypatch.setattr(heatglue.cli, "glue_I_values", fail)
    res = invoke(["graph", "glue", "--input", "line3", "--t", "1"])
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"] == f"{error.__name__}: injected"
    problems = tmp_path / "random.json"
    problems.write_text(json.dumps({"cases": [
        {"id": "rand", "kind": "random-graph-glue", "count": 2, "nmax": 6}]}))
    res = invoke(["verify", "--input", str(problems)])
    assert res.exit_code == 3
    assert [r["status"] for r in json_lines(res.stdout)] == ["error"] * 2


def test_cuts_option_rejects_malformed_values():
    res = invoke(["circle", "cut", "--L", "2", "--cuts", "0",
                  "--x", "0.3", "--y", "0.7", "--t", "0.4"])
    assert res.exit_code == 2
    res = invoke(["circle", "cut", "--L", "2", "--cuts", "0,a",
                  "--x", "0.3", "--y", "0.7", "--t", "0.4"])
    assert res.exit_code == 2


# ---------------------------------------------------------------------------
# report encoding
# ---------------------------------------------------------------------------

FIXED_KEYS = ["case", "geometry", "inputs", "value", "reference", "residual",
              "bound", "status"]
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    return [shlex.split(line)[1:] for line in README.read_text().splitlines()
            if line.startswith("heatglue ")]


def every_kind_set(tmp_path):
    """A verify set with one case of every kind, an error report, a failing
    case, and vertex labels and case ids that JSON must escape."""
    labels = ['q"', "b\\", "c\x07", "dé\U0001d53e"]
    edges = [[labels[0], labels[1]], [labels[1], labels[2]],
             [labels[2], labels[3]]]
    (tmp_path / "odd.json").write_text(json.dumps(
        {"vertices": labels, "edges": edges, "interface": [labels[1]]}))
    odd, pid = str(tmp_path / "odd.json"), 'p"\\\x02é'
    cases = [
        {"id": pid + "a", "kind": "graph-glue", "input": odd, "t": 0.7},
        {"id": pid + "b", "kind": "graph-glue", "input": odd, "t": 0.7,
         "method": "series", "kmax": 8},
        {"id": "ps", "kind": "graph-pathsum", "input": odd, "u": labels[0],
         "v": labels[3], "t": 0.5},
        {"id": "ps-err", "kind": "graph-pathsum", "input": "line3", "u": "1",
         "v": "3", "t": 50, "eps": 1e-300},
        {"id": "cut", "kind": "graph-cut", "input": "line_dirichlet", "m2": 1.0},
        {"id": "rand", "kind": "random-graph-glue", "count": 2, "nmax": 6},
        # a given reference 1e-6 off the value: a real tolerance failure
        {"id": "ig-fail", "kind": "interval-glue", "L1": 1, "L2": 1, "x": 0.5,
         "y": 0.5, "t": 0.5, "tol": 1e-30,
         "reference": 0.13842211448158903 + 1e-6},
        {"id": "ig2", "kind": "interval-glue", "L1": 1, "L2": 2, "x": 0.5,
         "y": 0.7, "t": 0.4, "formula": "II"},
        {"id": "ii", "kind": "interval-interface", "L1": 1, "L2": 2, "t": 0.5},
        {"id": "ray", "kind": "ray-glue", "x": 0.8, "y": 1.1, "t": 0.6},
        {"id": "circ", "kind": "circle-cut", "L": 2, "cuts": [0, 1], "x": 0.3,
         "y": 0.7, "t": 0.4},
        {"id": "cyl", "kind": "cylinder-check", "L1": 1, "L2": 2, "t": 0.5},
        {"id": "dn", "kind": "dn-cylinder", "L": 2, "m2": 1, "kmax": 3},
    ]
    assert {c["kind"] for c in cases} == set(heatglue.cli._SUITE_OF_KIND)
    path = tmp_path / "every_kind.json"
    path.write_text(json.dumps({"cases": cases}))
    return ["verify", "--input", str(path), "--seed", "5"]


def test_every_report_line_is_canonical_json(tmp_path):
    commands = readme_commands()
    assert len(commands) >= 10
    commands.append(every_kind_set(tmp_path))
    statuses = set()
    for args in commands:
        res = invoke(args)
        lines = res.stdout.splitlines()
        for line in lines:
            obj = json.loads(line)
            assert json.dumps(obj) == line
            assert list(obj)[:8] == FIXED_KEYS
            statuses.add(obj["status"])
        csv_out = invoke(args + ["--format", "csv"])
        assert csv_out.exit_code == res.exit_code
        rows = list(csv.reader(io.StringIO(csv_out.stdout)))
        assert rows[0] == list(heatglue.cli._CSV_COLUMNS)
        assert [r[0] for r in rows[1:]] == [json.loads(x)["case"] for x in lines]
        rewritten = io.StringIO()
        csv.writer(rewritten, lineterminator="\n").writerows(rows)
        assert rewritten.getvalue() == csv_out.stdout
    assert statuses == {"pass", "fail", "error"}
    assert res.exit_code == 3


@pytest.mark.parametrize("args", [
    ["graph", "glue", "--input", "line3", "--t", "1"],
    ["graph", "cut", "--input", "line_dirichlet", "--m2", "1"],
    ["dn", "cylinder", "--L", "2", "--m2", "1", "--kmax", "5"],
])
def test_csv_and_json_render_the_same_columns(args):
    lines = json_lines(invoke(args).stdout)
    header, *rows = csv.reader(io.StringIO(
        invoke(args + ["--format", "csv"]).stdout))
    assert len(rows) == len(lines) > 1
    for row, r in zip(rows, lines):
        cells = dict(zip(header, row))
        assert cells["case"] == r["case"]
        for key in ("value", "bound", "reference", "residual"):
            assert cells[key] == repr(r[key])
        assert cells["status"] == r["status"]


def old_json_lines(rep):
    """The lines of ``rep`` built one entry at a time, as one report object
    per entry passed to json.dumps."""
    points = itertools.product(*(a.values for a in rep.axes))
    names = itertools.product(*(a.labels for a in rep.axes))
    bounds = (itertools.repeat(float(rep.bound)) if np.ndim(rep.bound) == 0
              else rep.bound.tolist())
    out = []
    for i, (point, name, bound) in enumerate(zip(points, names, bounds)):
        case = rep.case + (f"[{','.join(name)}]" if rep.axes else "")
        inputs = dict(rep.inputs, **dict(zip([a.key for a in rep.axes], point)))
        if rep.value is None:
            value = reference = residual = None
            status = "error"
        else:
            value, reference = rep.value.tolist()[i], rep.reference.tolist()[i]
            residual = abs(value - reference)
            tol = float(inputs.get("tol", 0.0))
            status = "pass" if residual <= max(tol, bound) else "fail"
        obj = {"case": case, "geometry": rep.geometry, "inputs": inputs,
               "value": value, "reference": reference, "residual": residual,
               "bound": bound, "status": status}
        obj.update(rep.extra)
        out.append((case, json.dumps(obj)))
    return out


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])
json_scalar = st.none() | st.booleans() | st.integers() | any_float | st.text()
json_value = json_scalar | st.lists(json_scalar, max_size=3)


@st.composite
def column_reports(draw):
    keys = st.text(max_size=4).filter(lambda k: k != "tol")
    inputs = draw(st.dictionaries(keys, json_value, max_size=4))
    if draw(st.booleans()):
        inputs["tol"] = draw(any_float)
    axis_keys = draw(st.lists(keys.filter(lambda k: k not in inputs),
                              max_size=2, unique=True))
    axes = []
    for key in axis_keys:
        n = draw(st.integers(0, 3))
        axes.append(Axis(key, draw(st.lists(json_scalar, min_size=n, max_size=n)),
                         draw(st.lists(st.text(max_size=3), min_size=n,
                                       max_size=n))))
    size = math.prod(len(a.values) for a in axes)
    extra = draw(st.dictionaries(st.text(max_size=6).filter(
        lambda k: k not in FIXED_KEYS), json_value, max_size=3))
    case, geometry = draw(st.text()), draw(st.text(max_size=6))
    if draw(st.booleans()):
        return Reports.error(case, geometry, inputs, FloatingPointError(
            draw(st.text())))
    floats = st.lists(any_float, min_size=size, max_size=size)
    value = draw(floats)
    reference = value if draw(st.booleans()) else draw(floats)
    bound = draw(any_float | floats.map(np.array))
    return Reports(case, geometry, inputs, np.array(value),
                   np.array(reference), bound, tuple(axes), extra)


@settings(max_examples=200, deadline=None)
@given(column_reports())
def test_column_encoder_writes_what_json_dumps_writes(rep):
    assert rep.json_lines() == old_json_lines(rep)


@pytest.mark.parametrize("key", FIXED_KEYS)
def test_an_extra_key_never_shadows_a_fixed_key(key):
    with pytest.raises(ValueError, match="shadowed"):
        Reports("c", "graph", {"tol": 0.0}, 1.0, 1.0, extra={key: 0})
    with pytest.raises(ValueError, match="shadowed"):
        Reports("c", "graph", {"x": 0}, [1.0], [1.0],
                axes=(Axis("x", [1], ["1"]),))
