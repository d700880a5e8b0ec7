"""End-to-end checks of the command line front end through CliRunner."""

import json
import math

import pytest
from click.testing import CliRunner

import heatglue.cli
from heatglue.cli import main
from heatglue.expmix import ConfluentOverflowError
from heatglue.graph_heat import SeriesKernel
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
    # formula I reports no bound, so its rounding residual fails this tol
    res = invoke(["interval", "glue", "--L1", "1", "--L2", "1", "--x", "0.5",
                  "--y", "0.5", "--t", "0.5", "--tol", "1e-30"])
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
    def fail(d):
        raise error("injected")

    monkeypatch.setattr(heatglue.cli, "glue_I", fail)
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
