"""End-to-end checks of the command line front end, run in this process
with stdout and stderr captured."""

import ast
import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import time
import warnings
from collections import Counter
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatglue.cli
from conftest import empty_spectra, fresh_python
from heatglue import errors, graph_heat, symlin
from heatglue.cli import Axis, InputError, Reports, main
from heatglue.graph_heat import KernelMatrix


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(args):
    """``heatglue ARGS``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


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


@pytest.mark.parametrize("t", ["1e4", "1e8", "1e12", "1e100", "1e300",
                               "1.7e308"])
def test_graph_glue_line3_passes_at_large_t(t):
    # the zero rate is exact, so the constant mode does not decay, and no
    # product t * t or rate * t overflows into a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = invoke(["graph", "glue", "--input", "line3", "--t", t])
    assert (res.exit_code, res.stderr) == (0, "")
    assert {r["status"] for r in json_lines(res.stdout)} == {"pass"}


@pytest.mark.parametrize("args,message", [
    (["glue", "--input", "line3", "--method", "series", "--kmax", "40"],
     "TruncationError: series at order 40: bound 1 is not below the "
     "a-priori bound 1"),
    (["pathsum", "--input", "line3", "--u", "1", "--v", "3", "--eps", "1e-9"],
     "TruncationError: path sum at length 0: bound 1 is not below the "
     "a-priori bound 1")], ids=["series", "pathsum"])
def test_a_walk_where_theta_t_overflows_names_a_bound_of_one(args, message):
    # where theta t overflows the walk keeps no Taylor order, so every
    # order, and all the mass, is left out: the refusal names 1, not NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = invoke(["graph", *args, "--t", "1.7e308"])
    assert (res.exit_code, res.stderr) == (3, "")
    (report,) = json_lines(res.stdout)
    assert (report["status"], report["message"]) == ("error", message)


@pytest.mark.parametrize("method", ["assembled", "series"])
@pytest.mark.parametrize("references", [True, False],
                         ids=["line3", "no-references"])
def test_a_graph_gluing_at_t_zero_is_unusable_input(tmp_path, method,
                                                    references):
    # a time is refused by one rule, whatever the method and whether the
    # input carries references: t = 0 is not a positive time
    plain = tmp_path / "line3_plain.json"
    plain.write_text(json.dumps({
        "vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
        "interface": ["2"]}))
    res = invoke(["graph", "glue", "--input",
                  "line3" if references else str(plain), "--t", "0",
                  "--method", method])
    assert res == (2, "", "Error: t must be positive and finite\n")


def test_a_rate_off_the_null_space_below_zero_is_a_failed_eigensolve(
        monkeypatch):
    # a Laplacian has no negative eigenvalue, so one is the solver's fault:
    # an error report and exit 3, not unusable input
    eigh = symlin.eigh

    def shifted(a, keep=None):
        w, q = eigh(a, keep)
        return w - 2.0, q

    monkeypatch.setattr(symlin, "eigh", shifted)
    # the cache of spectra starts empty (conftest), so the shifted solve
    # is reached
    res = invoke(["graph", "glue", "--input", "line3", "--t", "1"])
    assert res.exit_code == 3
    (report,) = json_lines(res.stdout)
    assert report["status"] == "error"
    assert report["message"].startswith(
        "ConvergenceError: Laplacian eigenvalue -1.0 off the null space")


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
    walk = graph_heat.uniformized_walk

    def spy(g, start, layers, t, **split):
        walks.append(t)
        return walk(g, start, layers, t, **split)

    monkeypatch.setattr(graph_heat, "uniformized_walk", spy)
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
    # gluing its values at t from two, one of them the reference's; no case
    # builds a KernelMatrix, and a case on a document already solved
    # solves nothing
    calls = Counter()
    eigh, build = symlin.eigh, KernelMatrix.__init__

    def spy_eigh(a, keep=None):
        calls["eigh"] += 1
        return eigh(a, keep)

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
    for case, cold in [
            ({"kind": "graph-glue", "t": 0.7, "method": "series", "kmax": 8},
             1),
            ({"kind": "graph-pathsum", "u": "a", "v": "c", "t": 0.7,
              "eps": 1e-9}, 1),
            # L and its block off the interface; the reference reads the
            # spectrum of L that the gluing took
            ({"kind": "graph-glue", "t": 0.7}, 2),
            # the block off the interface and L, and no third solve
            ({"kind": "graph-cut", "interface": ["b"], "m2": 0.5}, 2)]:
        problems.write_text(json.dumps({"cases": [
            {"id": "c", "input": str(square), **case}]}))
        empty_spectra(monkeypatch)
        for want in (cold, 0):
            calls.clear()
            res = invoke(["verify", "--input", str(problems)])
            assert res.exit_code == 0
            assert (calls["eigh"], calls["KernelMatrix"]) == (want, 0), case


def test_a_verify_set_solves_each_distinct_matrix_once(tmp_path, monkeypatch):
    # line3 is split at its middle in vertex order, so the gluings at three
    # times, the path sum's reference and the cut at the interface read two
    # matrices: L and its block off the interface, each solved once
    solved = []
    eigh = symlin.eigh

    def spy(a, keep=None):
        m = a.entries if keep is None else a.entries[np.ix_(keep, keep)]
        solved.append(m.tobytes())
        return eigh(a, keep)

    monkeypatch.setattr(symlin, "eigh", spy)
    res = verify_cases(tmp_path, [
        *({"id": f"g{t}", "kind": "graph-glue", "input": "line3", "t": t}
          for t in (0.25, 1, 4)),
        {"id": "p", "kind": "graph-pathsum", "input": "line3", "u": "1",
         "v": "3", "t": 0.7, "eps": 1e-9},
        {"id": "c", "kind": "graph-cut", "input": "line3", "interface": ["2"],
         "m2": 1}])
    assert res.exit_code == 0
    assert len(solved) == len(set(solved)) == 2


def test_warm_spectra_print_what_a_fresh_interpreter_prints():
    # the README's graph lines, each run twice in this process (the second
    # time on kept spectra), print the bytes of a fresh interpreter's run
    lines = [args for args in readme_commands() if args[0] == "graph"]
    assert len(lines) == 4
    for args in lines:
        fresh = fresh_python("from heatglue.cli import main; main()", *args,
                             capture_output=True, text=True)
        assert fresh.returncode == 0, fresh.stderr
        assert invoke(args) == invoke(args) == (0, fresh.stdout, ""), args


def test_a_graph_gluing_checks_every_graph_it_builds(tmp_path, monkeypatch):
    # every graph is built through Graph's checks, each once: the graph
    # loaded, the rest off the interface whose components are the sides
    # of a decomposition without sides, and the glued graph's vertex order
    checks = []
    check = graph_heat.Graph.__post_init__

    def spy(self):
        checks.append(self.vertices)
        check(self)

    monkeypatch.setattr(graph_heat.Graph, "__post_init__", spy)
    square = tmp_path / "square.json"
    square.write_text(json.dumps({
        "vertices": ["a", "b", "c", "d"],
        "edges": [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
        "interface": ["b", "d"]}))
    for name, built in [("line3", [("1", "2", "3")] * 2),
                        (str(square), [("a", "b", "c", "d"), ("a", "c"),
                                       ("a", "b", "d", "c")])]:
        for method in ("assembled", "series"):
            checks.clear()
            k_max = 8 if method == "series" else None
            (rep,) = heatglue.cli.run_graph_glue(name, 0.7, method, k_max,
                                                 1e-8)
            assert checks == built
            assert set(rep.status) == {"pass"}


def test_reordered_graphs_are_the_graphs_checked_anew():
    g = graph_heat.graph_from_dict({
        "vertices": ["a", "b", "c", "d", "e"],
        "edges": [["e", "a"], ["b", "a"], ["c", "d"], ["d", "b"], ["c", "e"]]})
    for order in (("e", "d", "c", "b", "a"), ("c", "a", "e", "b", "d")):
        assert g.with_vertex_order(order) == graph_heat.Graph(order, g.edges)
    for labels in (("d", "a", "b"), ("e", "c"), ("b",)):
        edges = tuple(e for e in g.edges if set(e) <= set(labels))
        assert g.induced(labels) == graph_heat.Graph(labels, edges)
    for labels, message in [(("a", "a"), "duplicate vertex labels"),
                            (("a", "z"), "vertex 'z' not in graph")]:
        with pytest.raises(ValueError, match=message):
            g.induced(labels)
    with pytest.raises(ValueError, match="permutation"):
        g.with_vertex_order(("a", "a", "b", "c", "d"))


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


def test_graph_cut_block_off_the_interface_resolves_a_tiny_mass(tmp_path):
    # the triangle p-q-r has no interface vertex, so L_aa + m2 I has the
    # eigenvalue m2 there, below the rounding level of L_aa; its rate in
    # the spectrum of L_aa is exactly 0, so both routes carry 1/m2
    graph = tmp_path / "line_and_triangle.json"
    graph.write_text(json.dumps({
        "vertices": ["1", "2", "3", "p", "q", "r"],
        "edges": [["1", "2"], ["2", "3"], ["p", "q"], ["q", "r"],
                  ["r", "p"]]}))
    res = invoke(["graph", "cut", "--input", str(graph), "--interface", "2",
                  "--m2", "1e-17"])
    assert (res.exit_code, res.stderr) == (0, "")
    (r,) = json_lines(res.stdout)
    assert r["status"] == "pass"


def test_graph_cut_needs_a_nonempty_interface():
    # no --interface and no boundary in the input leave nothing to cut, and
    # an empty --interface is refused by the rule a Decomposition applies
    res = invoke(["graph", "cut", "--input", "line3", "--m2", "1"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == ("Error: line3: no --interface given and no "
                          "boundary in the input\n")
    res = invoke(["graph", "cut", "--input", "line3", "--interface", ",",
                  "--m2", "1"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "Error: interface must be nonempty\n"


GRAPH_AB = {"vertices": ["a", "b"], "edges": [["a", "b"]]}


@pytest.mark.parametrize("doc, message", [
    ([GRAPH_AB], "expected a JSON object"),
    ({**GRAPH_AB, "boundary": 5}, "boundary must be a list, got 5"),
    ({**GRAPH_AB, "boundary": "ab"}, "boundary must be a list, got 'ab'"),
    ({**GRAPH_AB, "boundary": None}, "boundary must be a list, got None"),
    ({**GRAPH_AB, "boundary": [[1]]},
     "a vertex label is a string or a number, got [1] in boundary"),
    ({**GRAPH_AB, "boundary": [True]},
     "a vertex label is a string or a number, got True in boundary"),
    ({**GRAPH_AB, "boundary": [None]},
     "a vertex label is a string or a number, got None in boundary"),
], ids=["list-input", "boundary-5", "boundary-text", "boundary-null",
        "boundary-item-list", "boundary-item-true", "boundary-item-null"])
def test_graph_cut_reads_the_boundary_of_its_input_strictly(
        tmp_path, monkeypatch, doc, message):
    # with no --interface the boundary is the interface; it is read as a
    # decomposition's interface is, so a letter of a text is no vertex and
    # an item that is no string or number no label
    monkeypatch.chdir(tmp_path)
    pathlib.Path("g.json").write_text(json.dumps(doc))
    res = invoke(["graph", "cut", "--input", "g.json", "--m2", "1"])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: g.json: {message}\n")
    pathlib.Path("cases.json").write_text(json.dumps(
        [{"kind": "graph-cut", "id": "c", "input": "g.json", "m2": 1}]))
    res = invoke(["verify", "--input", "cases.json"])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: case c: g.json: {message}\n")
    if isinstance(doc, dict):  # an --interface does not make it usable
        res = invoke(["graph", "cut", "--input", "g.json", "--interface", "a",
                      "--m2", "1"])
        assert (res.exit_code, res.stderr) == (2, f"Error: g.json: {message}\n")


def test_graph_cut_takes_a_boundary_list_item_by_item(tmp_path, monkeypatch):
    # references that are no JSON object name no closed form, as in a
    # graph gluing
    monkeypatch.chdir(tmp_path)
    pathlib.Path("g.json").write_text(json.dumps(
        {**GRAPH_AB, "boundary": ["a"], "references": ["green_sinh"]}))
    res = invoke(["graph", "cut", "--input", "g.json", "--m2", "1"])
    assert (res.exit_code, res.stderr) == (0, "")
    (r,) = json_lines(res.stdout)
    assert (r["case"], r["inputs"]["interface"]) == ("schur-gap", "a")


LINE3 = {"vertices": ["1", "2", "3"], "edges": [["1", "2"], ["2", "3"]],
         "interface": ["2"]}
GLUE, PATHSUM = "graph glue --t 1", "graph pathsum --u 1 --v 3 --t 1 --eps 1e-9"
ENTRY = "references.entries['1,1']"
TERM = "{'coef': number, 'power': integer, 'rate': number}"
CUT = "graph cut --m2 1"
PATH_ABC = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
            "boundary": ["a", "c"], "references": {"green_sinh": True}}


def with_entry(mix, key="1,1"):
    """LINE3 with one reference entry, ``mix`` under ``key``."""
    return {**LINE3, "references": {"entries": {key: mix}}}



@pytest.mark.parametrize("command,doc,message", [
    (GLUE, {"vertices": 5, "interface": ["2"]},
     "vertices must be a list, got 5"),
    (GLUE, {**LINE3, "edges": 7}, "edges must be a list, got 7"),
    (GLUE, {**LINE3, "interface": 2}, "interface must be a list, got 2"),
    (GLUE, {"vertices": [["a"]], "interface": ["2"]},
     "a vertex label is a string or a number, got ['a'] in vertices"),
    (PATHSUM, {"vertices": 5}, "vertices must be a list, got 5"),
    (GLUE, {**LINE3, "references": {"entries": "1,1"}},
     "references.entries must be an object, got '1,1'"),
    (GLUE, {**LINE3, "edges": [["1", "2"], "23"]},
     "an edge is a list of two labels, got '23'"),
    (GLUE, {**LINE3, "edges": [["1", "2"], ["2", True]]},
     "a vertex label is a string or a number, got True in edges"),
    (GLUE, {**LINE3, "edges": [["1", "2", "3"]]},
     "an edge is a list of two labels, got ['1', '2', '3']"),
    (GLUE, {**LINE3, "side1": "13"}, "side1 must be a list, got '13'"),
    (GLUE, {**LINE3, "interface": [None]},
     "a vertex label is a string or a number, got None in interface"),
    ("graph cut --interface 1 --m2 1", {"vertices": {"1": 1}},
     "vertices must be a list, got {'1': 1}"),
    (GLUE, with_entry({"atom": 0, "terms": 5}),
     f"terms of {ENTRY} must be a list, got 5"),
    (GLUE, with_entry({"atom": 0, "terms": [{"coef": 1, "power": 0}]}),
     f"a term of {ENTRY} is {TERM}, got {{'coef': 1, 'power': 0}}"),
    (GLUE, with_entry({"atom": 0, "terms": [
        {"coef": True, "power": 0, "rate": 1}]}),
     f"a term of {ENTRY} is {TERM}, got "
     "{'coef': True, 'power': 0, 'rate': 1}"),
    (GLUE, with_entry({"atom": 0, "terms": [
        {"coef": 1, "power": 1.5, "rate": 1}]}),
     f"a term of {ENTRY} is {TERM}, got {{'coef': 1, 'power': 1.5, 'rate': 1}}"),
    (GLUE, with_entry({"atom": 0, "terms": [5]}),
     f"a term of {ENTRY} is {TERM}, got 5"),
    (GLUE, with_entry({"terms": []}),
     f"{ENTRY} must be {{'atom': number, 'terms': [...]}}, got {{'terms': []}}"),
    (GLUE, with_entry(5, "9,9"),
     "references.entries['9,9'] must be {'atom': number, 'terms': [...]}, "
     "got 5"),
    (GLUE, with_entry({"atom": 0, "terms": [
        {"coef": 10**400, "power": 0, "rate": 1}]}),
     f"{ENTRY} has an integer term coef past the float range"),
    (GLUE, with_entry({"atom": 0, "terms": [
        {"coef": 1, "power": 0, "rate": 10**400}]}),
     f"{ENTRY} has an integer term rate past the float range"),
    (GLUE, with_entry({"atom": 10**400, "terms": []}),
     f"{ENTRY} has an integer atom past the float range"),
    (GLUE, 3, "g.json: expected a JSON object"),
    (PATHSUM, {"edges": []}, 'expected {"vertices": [...], "edges": [...]}'),
    (GLUE, {**LINE3, "interface": []}, "interface must be nonempty"),
    (GLUE, {**LINE3, "interface": ["2", "2"]}, "duplicate interface labels"),
    (GLUE, {"vertices": ["1", "2"], "edges": [["1", "2"]]},
     'decomposition JSON needs an "interface" list'),
    (CUT, PATH_ABC, "green_sinh reference needs integer vertex labels"),
    (CUT, {**PATH_ABC, "vertices": ["0", "1", "5"],
           "edges": [["0", "1"], ["1", "5"]], "boundary": ["0", "5"]},
     "green_sinh reference needs labels 0..N"),
], ids=["vertices-5", "edges-7", "interface-2", "vertex-a-list", "pathsum-5",
        "entries-text", "edge-text", "edge-end-true", "edge-of-three",
        "side1-text", "interface-null", "cut-vertices-object", "terms-5",
        "term-no-rate", "term-coef-true", "term-power-fraction", "term-5",
        "entry-no-atom", "entry-of-no-pair", "coef-past-floats",
        "rate-past-floats", "atom-past-floats", "document-3",
        "graph-no-vertices", "interface-empty", "interface-repeated",
        "decomposition-no-interface", "green-sinh-text-labels",
        "green-sinh-labels-not-0-to-N"])
def test_a_malformed_graph_document_is_unusable_input(tmp_path, monkeypatch,
                                                      command, doc, message):
    # the shapes of a graph document are checked once, where it is read,
    # and the mixtures of its references before any value is computed
    monkeypatch.chdir(tmp_path)
    pathlib.Path("g.json").write_text(json.dumps(doc))
    words = command.split()
    res = invoke([*words[:2], "--input", "g.json", *words[2:]])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: {message}\n")


@pytest.mark.parametrize("doc,message", [
    ({"cases": 3}, "p.json: expected a cases list"),
    ({"tests": []}, "p.json: expected a cases list"),
    ([{"kind": "ray-glue", "x": 1, "y": 1}], "case case000: missing field 't'"),
], ids=["cases-3", "no-cases", "case-without-t"])
def test_every_rejection_of_a_problem_set_is_reached(tmp_path, monkeypatch,
                                                     doc, message):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("p.json").write_text(json.dumps(doc))
    res = invoke(["verify", "--input", "p.json"])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: {message}\n")


def test_a_cut_that_kills_every_vertex_has_gap_zero():
    # nothing is left off the interface: the killed Green's matrix is
    # empty, and so is its gap
    res = invoke("graph cut --input line3 --interface 1,2,3 --m2 1".split())
    assert (res.exit_code, res.stderr) == (0, "")
    (r,) = json_lines(res.stdout)
    assert (r["case"], r["value"], r["residual"], r["status"]) == (
        "schur-gap", 0.0, 0.0, "pass")


def test_numeric_vertex_labels_are_read_as_text(tmp_path, monkeypatch):
    # a label is a JSON string or number, read as text where the document
    # is read: the command line names vertex 0 as "0", and a graph labelled
    # by numbers reports what the same graph labelled by text reports
    outputs = []
    for labels in ([0, 1, 2], ["0", "1", "2"]):
        (work := tmp_path / str(len(outputs))).mkdir()
        monkeypatch.chdir(work)
        doc = {"vertices": labels, "edges": [labels[:2], labels[1:]]}
        pathlib.Path("g.json").write_text(json.dumps(doc))
        pathlib.Path("d.json").write_text(json.dumps(
            {**doc, "interface": [labels[1]]}))
        results = [invoke(args.split()) for args in (
            "graph cut --input g.json --interface 0 --m2 1",
            "graph pathsum --input g.json --u 0 --v 2 --t 1 --eps 1e-9",
            "graph glue --input d.json --t 1")]
        assert [(r.exit_code, r.stderr) for r in results] == [(0, "")] * 3
        outputs.append([r.stdout for r in results])
    assert outputs[0] == outputs[1]


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
    # arc kernel a priori; every refusal prints its bound to 15 digits
    ("circle cut --L 2 --cuts 0,1 --x 0.3 --y 0.7 --t 100 --kmax 4",
     "TruncationError: circle cut at order 4: bound 3.18128034579881e+56 is "
     "not below the a-priori bound 0.5"),
    ("circle cut --L 2 --cuts 0,1 --x 0.3 --y 0.7 --t 3 --kmax 8",
     "TruncationError: circle cut at order 8: bound 7.20294742859463 is not "
     "below the a-priori bound 0.5"),
    # values about 1e-17 against 1/3, and a bound of 1.0000000000061 on
    # entries that lie in [0, 1]
    ("graph glue --input line3 --t 50 --method series --kmax 2",
     "TruncationError: series at order 2: bound 1.00000000000611 is not "
     "below the a-priori bound 1"),
    # theta t = 140000 passes the 65536 Taylor orders the walk keeps
    ("graph glue --input line3 --t 70000 --method series --kmax 3",
     "TruncationError: series at order 3: bound 1.00000000450431 is not "
     "below the a-priori bound 1"),
    # the walk's Taylor orders at theta t = 2e16 leave a row-sum deficit of
    # 54 on an entry that lies in [0, 1], with value 0 against 0.12
    ("graph pathsum --input line3 --u 1 --v 3 --t 1e16 --eps 1e-9",
     "TruncationError: path sum at length 0: bound 54.2907051906239 is not "
     "below the a-priori bound 1")])
def test_a_bound_at_or_above_the_a_priori_bound_exits_three(args, message):
    t0 = time.perf_counter()
    res = invoke(args.split())
    assert time.perf_counter() - t0 < 5.0
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"] == message


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


def test_ray_glue_refuses_an_infinite_distance():
    # refused before the image sum, which would overflow to a NaN bound
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = invoke("ray glue --x inf --y 1 --t 1".split())
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == "Error: x must be positive and finite\n"


@pytest.mark.parametrize("args", ["--x 1e300 --y 1e300 --t 1",
                                  "--x 1 --y 1 --t 1e-320",
                                  "--x 30 --y 30 --t 1"])
def test_a_ray_image_past_the_float_range_is_zero(args):
    # (x + y)^2 past the float range, or d^2/4t past it at a subnormal t:
    # the Gaussian is 0 and so is its rounding part, as where it underflows
    res = invoke(f"ray glue {args}".split())
    assert (res.exit_code, res.stderr) == (0, "")
    (r,) = json_lines(res.stdout)
    assert (r["status"], r["value"], r["reference"], r["bound"]) == (
        "pass", 0.0, 0.0, 0.0)


@pytest.mark.parametrize("args", [
    "--L1 1e12 --L2 0.7 --x 0.5 --y 0.3 --t 1",
    "--L1 1e12 --L2 0.7 --x 0.5 --y 0.3 --t 1 --formula II",
    "--L1 1e300 --L2 1 --x 0.5 --y 0.5 --t 1"])
def test_interval_glue_passes_when_L1_far_exceeds_L2(args):
    # route I forms its junction images 2 L2 + 2nS from 2 L2, so the
    # nearest is exact however long the first piece is; it lost 2 L2 to
    # rounding at the scale of 2 L1 and failed (residual 2.2e-6, and 0.0
    # against 0.0623); route II is within its bound
    res = invoke(f"interval glue {args}".split())
    assert (res.exit_code, res.stderr) == (0, "")
    (r,) = json_lines(res.stdout)
    assert r["status"] == "pass"
    assert r["residual"] <= max(r["bound"], 1e-12 * r["reference"])


def test_circle_cut_reference_point():
    res = invoke(["circle", "cut", "--L", "2", "--cuts", "0,1", "--x", "0.3",
                  "--y", "0.7", "--t", "0.4", "--kmax", "4"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["residual"] < 1e-5
    assert r["residual"] <= r["bound"] < 1e-5
    assert r["status"] == "pass"


def test_a_circle_cut_at_a_deep_order_answers_at_once():
    # the interface series stops at the first order past the reach, and the
    # images it drops are bounded in closed form: at kmax 100000 a fresh
    # process took 8 s while the cut composed every order, and the bound on
    # the dropped images alone takes 0.7 s when it forms every order
    t0 = time.perf_counter()
    res = invoke("circle cut --L 2 --cuts 0,1 --x 1.3 --y 1.7 --t 0.4 "
                 "--kmax 100000".split())
    assert time.perf_counter() - t0 < 0.5
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["residual"] <= r["bound"] < 1e-13


def test_circle_cut_bound_is_relative_to_a_small_arc_kernel():
    # the rounding part has no floor at 1: against an arc kernel of 3.2e-7
    # the bound is 1.9e-20, where the floor made it 2.7e-13
    res = invoke("circle cut --L 2 --cuts 0,1 --x 0.1 --y 0.9 --t 0.01 "
                 "--kmax 2".split())
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["status"] == "pass"
    assert r["residual"] <= r["bound"] < 1e-18


def test_a_circle_cut_with_a_zero_certificate_passes():
    # the arc kernel, the cut and its bound all underflow to 0: a zero
    # bound certifies the value exactly, and errors.below_prior, the one
    # a-priori rule, takes it for the cut as for route II
    res = invoke("circle cut --L 10 --cuts 0,5 --x 2 --y 3 --t 1e-4 "
                 "--kmax 4".split())
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert (r["value"], r["reference"], r["bound"], r["status"]) == \
        (0.0, 0.0, 0.0, "pass")


def test_an_interface_past_the_term_budget_exits_three(tmp_path):
    # the mode sum at t = 1e-13 would keep about 2.1e7 modes
    path = tmp_path / "interface.json"
    path.write_text(json.dumps({"cases": [
        {"id": "ii", "kind": "interval-interface", "L1": 1, "L2": 2,
         "t": 1e-13}]}))
    res = invoke(["verify", "--input", str(path)])
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"].startswith("TruncationError: interval mode sum: "
                                   "up to 2.13529e+07 terms")


def test_cylinder_check_default_battery():
    res = invoke(["cylinder", "check", "--L1", "1", "--L2", "2",
                  "--t", "0.5"])
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["value"] < 1e-9


def test_a_cylinder_check_past_the_term_budget_exits_three():
    # the joint mode grid at t = 1e-6 would hold 1.5e8 terms
    t0 = time.perf_counter()
    res = invoke("cylinder check --L1 1 --L2 2 --t 1e-6".split())
    assert time.perf_counter() - t0 < 1.0
    assert res.exit_code == 3
    (r,) = json_lines(res.stdout)
    assert r["status"] == "error"
    assert r["message"].startswith("TruncationError: cylinder joint mode sum")


@pytest.mark.parametrize("key,value,message", [
    *(("circleL", v, "circle_L must be positive and finite")
      for v in ("0", "-3", "inf", "nan")),
    ("kmax", "-1", "k_max must be nonnegative")])
def test_dn_cylinder_refuses_a_bad_circumference_or_order(tmp_path, key, value,
                                                         message):
    # refused as unusable input before any slice eigenvalue is formed, on
    # the command line and in a verify case alike
    flags = {"circleL": "--circle-L", "kmax": "--kmax"}
    argv = dict({"--L": "2", "--m2": "1", "--kmax": "3"}, **{flags[key]: value})
    res = invoke(["dn", "cylinder", *itertools.chain(*argv.items())])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"Error: {message}\n"
    res = verify_case(tmp_path, dict(VALID["dn-cylinder"], **{
        key: int(value) if key == "kmax" else float(value)}))
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"Error: case dn: {message}\n"


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


def test_reports_byte_identical_across_runs():
    args = ["verify", "--input", "intervals"]
    assert invoke(args).stdout == invoke(args).stdout
    args = ["graph", "glue", "--input", "line3", "--t", "1"]
    assert invoke(args).stdout == invoke(args).stdout


def test_verify_empty_problem_set_exits_zero(tmp_path):
    (tmp_path / "empty.json").write_text("[]")
    res = invoke(["verify", "--input", str(tmp_path / "empty.json")])
    assert (res.exit_code, res.stdout) == (0, "")
    assert res.stderr == "0 cases: 0 pass, 0 fail, 0 error\n"
    # no problem set is implied: verify without --input is unusable input
    res = invoke(["verify", "--tol", "1e-8"])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.endswith(
        "\nError: the following arguments are required: --input\n")


def test_verify_bundled_problem_set_passes():
    res = invoke(["verify", "--input", "intervals"])
    assert res.exit_code == 0
    reports = json_lines(res.stdout)
    assert len(reports) == 6
    assert all(r["status"] == "pass" for r in reports)


def test_exit_one_on_tolerance_failure(tmp_path):
    # a frozen reference 1e-3 off the value fails the default tol whatever
    # the bits of the value
    res = verify_case(tmp_path, {
        "id": "off", "kind": "interval-glue", "L1": 1, "L2": 1, "x": 0.5,
        "y": 0.5, "t": 0.5, "reference": 0.13842211448158903 + 1e-3})
    assert res.exit_code == 1
    (r,) = json_lines(res.stdout)
    assert r["status"] == "fail"
    assert r["residual"] == pytest.approx(1e-3, rel=1e-9)


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


def test_a_report_never_carries_a_non_finite_number(monkeypatch):
    # a NaN bound would fall back to tol and pass, an infinite value would
    # fail: either is a numerical failure of the route, one error report
    glue_rays = heatglue.cli.heat1d.glue_rays
    monkeypatch.setattr(heatglue.cli.heat1d, "glue_rays",
                        lambda x, y, t: (glue_rays(x, y, t)[0], math.nan))
    monkeypatch.setattr(heatglue.cli.graph_heat, "glue_I_values",
                        lambda d, t: np.full((3, 3), math.inf))
    for args in ("ray glue --x 0.8 --y 1.1 --t 0.6",
                 "graph glue --input line3 --t 1"):
        res = invoke(args.split())
        assert res.exit_code == 3
        (r,) = json_lines(res.stdout)
        assert r["status"] == "error"
        assert r["message"] == ("FloatingPointError: a value, reference, "
                                "residual or bound is not finite")


#: Every typed numerical failure of the package.
FAILURES = [getattr(errors, name) for name in errors.__all__
            if isinstance(getattr(errors, name), type)]


@pytest.mark.parametrize("error", FAILURES)
def test_exit_three_on_eigensolver_and_confluent_failures(error, tmp_path,
                                                          monkeypatch):
    # each failure of heatglue.errors, raised in a graph runner or in a 1d
    # runner, is one report with status "error" and exit 3
    def fail(*args):
        raise error("injected")

    monkeypatch.setattr(heatglue.cli.graph_heat, "glue_I_values", fail)
    monkeypatch.setattr(heatglue.cli.heat1d, "glue_intervals_I", fail)
    for args in ("graph glue --input line3 --t 1",
                 "interval glue --L1 1 --L2 2 --x 0.5 --y 0.7 --t 0.4"):
        res = invoke(args.split())
        assert res.exit_code == 3
        (r,) = json_lines(res.stdout)
        assert r["status"] == "error"
        assert r["message"] == f"{error.__name__}: injected"
    problems = tmp_path / "glue.json"
    problems.write_text(json.dumps({"cases": [
        {"id": f"g{i}", "kind": "graph-glue", "input": "line3", "t": 1.0}
        for i in range(2)]}))
    res = invoke(["verify", "--input", str(problems)])
    assert res.exit_code == 3
    assert [r["status"] for r in json_lines(res.stdout)] == ["error"] * 2


def test_cuts_option_rejects_malformed_values():
    two = "exactly two cut points are required to cut the circle into two arcs"
    for cuts, message in (("0", f"{two}, got 1"), ("0,1,1.5", f"{two}, got 3"),
                          ("0,a", "bad --cuts value: '0,a'")):
        res = invoke(["circle", "cut", "--L", "2", "--cuts", cuts,
                      "--x", "0.3", "--y", "0.7", "--t", "0.4"])
        assert (res.exit_code, res.stderr) == (2, f"Error: {message}\n")


#: A valid case of every kind, each field given.
VALID_CASES = [
    {"id": "gg", "kind": "graph-glue", "input": "line3", "t": 1.0,
     "method": "series", "kmax": 12, "tol": 1e-8},
    {"id": "ps", "kind": "graph-pathsum", "input": "line3", "u": "1", "v": "3",
     "t": 0.7, "eps": 1e-9, "tol": 1e-8},
    {"id": "gc", "kind": "graph-cut", "input": "line_dirichlet",
     "interface": ["0", "6"], "m2": 1.0, "tol": 1e-10},
    {"id": "ig", "kind": "interval-glue", "L1": 1.0, "L2": 2.0, "x": 0.5,
     "y": 0.7, "t": 0.4, "formula": "II", "nmax": 6, "reference": None,
     "tol": 1e-8},
    {"id": "ii", "kind": "interval-interface", "L1": 1.0, "L2": 2.0, "t": 0.5,
     "reference": None, "tol": 1e-8},
    {"id": "rl", "kind": "ray-glue", "x": 0.8, "y": 1.1, "t": 0.6,
     "reference": None, "tol": 1e-8},
    {"id": "cc", "kind": "circle-cut", "L": 2.0, "cuts": [0, 1], "x": 0.3,
     "y": 0.7, "t": 0.4, "kmax": 4, "tol": 1e-5},
    {"id": "cy", "kind": "cylinder-check", "L1": 1.0, "L2": 2.0,
     "circleL": 6.0, "t": 0.5, "tol": 1e-9},
    {"id": "dn", "kind": "dn-cylinder", "L": 2.0, "m2": 1.0, "kmax": 3,
     "circleL": 6.0, "tol": 1e-12},
]
VALID = {c["kind"]: c for c in VALID_CASES}


def verify_case(directory, case):
    path = directory / "case.json"
    path.write_text(json.dumps([case]))
    return invoke(["verify", "--input", str(path)])


def test_every_valid_case_passes(tmp_path):
    assert set(VALID) == set(heatglue.cli._KINDS)
    for case in VALID_CASES:
        res = verify_case(tmp_path, case)
        assert res.exit_code == 0, case
        assert {r["status"] for r in json_lines(res.stdout)} == {"pass"}


@pytest.mark.parametrize("args,case,message", [
    ("graph glue --input line3 --t 1 --kmax 80",
     dict(VALID["graph-glue"], method="assembled"),
     "kmax applies to the series method only"),
    ("interval glue --L1 1 --L2 2 --x 0.5 --y 0.7 --t 0.4 --nmax 3",
     dict(VALID["interval-glue"], formula="I"),
     "nmax applies to formula II only")], ids=["kmax", "nmax"])
def test_an_order_that_its_route_never_reads_is_unusable_input(
        tmp_path, args, case, message):
    # the assembled gluing and route I read no truncation order, so one
    # given to them is refused, not echoed nor ignored
    res = invoke(args.split())
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: {message}\n")
    res = verify_case(tmp_path, case)
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: case {case['id']}: {message}\n")


def test_the_route_that_reads_an_order_applies_its_default():
    for args, key, default in [
            ("graph glue --input line3 --t 1 --method series", "kmax", 12),
            ("interval glue --L1 1 --L2 2 --x 0.5 --y 0.7 --t 0.4 "
             "--formula II", "nmax", 6)]:
        res = invoke(args.split())
        assert res.exit_code == 0
        assert {r["inputs"][key] for r in json_lines(res.stdout)} == {default}
        given = invoke(f"{args} --{key} {default}".split())
        assert given.stdout == res.stdout
        # the other route echoes no order
        other = invoke(args.rsplit(" ", 2)[0].split())
        assert other.exit_code == 0
        assert all(key not in r["inputs"] for r in json_lines(other.stdout))


@pytest.mark.parametrize("kind,field,value,message", [
    ("interval-glue", "t", "abc",
     "case ig: could not convert string to float: 'abc'"),
    ("graph-glue", "kmax", "x",
     "case gg: invalid literal for int() with base 10: 'x'"),
    pytest.param("circle-cut", "cuts", [0], "case cc: exactly two cut points "
                 "are required to cut the circle into two arcs, got 1",
                 id="circle-cut-cuts-one-point"),
    pytest.param("circle-cut", "cuts", 5, "case cc: cuts must be a list, got 5",
                 id="circle-cut-cuts-5-not-a-list"),
    # a text field reads a number as the command line reads its text
    pytest.param("graph-glue", "input", 5,
                 "case gg: no such file or bundled fixture: 5",
                 id="graph-glue-input-5-read-as-text"),
    ("ray-glue", "tol", "x", "case rl: could not convert string to float: 'x'"),
    # a runner's domain error names the case
    pytest.param("graph-pathsum", "u", "z", "case ps: vertex 'z' not in graph",
                 id="graph-pathsum-u-z-not-a-vertex"),
    pytest.param("circle-cut", "cuts", [], "case cc: exactly two cut points "
                 "are required to cut the circle into two arcs, got 0",
                 id="circle-cut-cuts-empty-list"),
    ("graph-glue", "input", "nosuch",
     "case gg: no such file or bundled fixture: nosuch"),
    # the choices of --method and --formula
    ("graph-glue", "method", "abc",
     "case gg: method must be one of assembled, series, got 'abc'"),
    ("graph-glue", "method", None,
     "case gg: method must be one of assembled, series, got None"),
    ("graph-glue", "method", {},
     "case gg: method must be one of assembled, series, got {}"),
    ("interval-glue", "formula", True,
     "case ig: formula must be one of I, II, got True"),
    # a number read as strictly as on the command line: an integer field
    # takes no fraction and no boolean, a float field no boolean
    ("graph-glue", "kmax", 2.5, "case gg: kmax must be an integer, got 2.5"),
    pytest.param("dn-cylinder", "kmax", True,
                 "case dn: kmax must be an integer, got True",
                 id="dn-cylinder-kmax-True-not-an-integer"),
    ("ray-glue", "t", True, "case rl: t must be a number, got True"),
    # a negative order, an infinite distance
    ("dn-cylinder", "kmax", -1, "case dn: k_max must be nonnegative"),
    ("ray-glue", "x", math.inf, "case rl: x must be positive and finite"),
    # a frozen reference that is not finite
    ("ray-glue", "reference", math.inf, "case rl: reference must be finite"),
    ("ray-glue", "reference", math.nan, "case rl: reference must be finite"),
    # a list field takes a JSON list only, not a text read letter by letter
    ("graph-cut", "interface", "06",
     "case gc: interface must be a list, got '06'"),
    # a frozen reference is a JSON number, not a boolean, a text or a list
    pytest.param("ray-glue", "reference", True,
                 "case rl: reference must be a number, got True",
                 id="ray-glue-reference-True-not-a-number"),
    pytest.param("ray-glue", "reference", "0.25",
                 "case rl: reference must be a number, got '0.25'",
                 id="ray-glue-reference-text-not-a-number"),
    pytest.param("ray-glue", "reference", [1],
                 "case rl: reference must be a number, got [1]",
                 id="ray-glue-reference-list-not-a-number"),
])
def test_a_malformed_case_is_unusable_input(tmp_path, kind, field, value,
                                            message):
    res = verify_case(tmp_path, dict(VALID[kind], **{field: value}))
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"Error: {message}\n"


def verify_cases(directory, cases):
    path = directory / "cases.json"
    path.write_text(json.dumps(cases))
    return invoke(["verify", "--input", str(path)])


#: A first case that fails as unusable input once it runs: an id refused
#: with another message is refused before any case runs.
UNREADABLE = dict(VALID["graph-glue"], id="first", input="nosuch")


@pytest.mark.parametrize("ids,message", [
    pytest.param([None], "case 1: id must be a string or a number, got None",
                 id="null"),
    pytest.param([True], "case 1: id must be a string or a number, got True",
                 id="boolean"),
    pytest.param([["a"]], "case 1: id must be a string or a number, "
                 "got ['a']", id="list"),
    pytest.param([7, "7"], "case 2: id '7' is already the id of case 1",
                 id="number-and-its-text"),
    pytest.param(["first"], "case 1: id 'first' is already the id of case 0",
                 id="repeated-text"),
])
def test_a_case_id_that_is_not_a_label_or_not_its_own_is_refused(
        tmp_path, ids, message):
    cases = [UNREADABLE, *(dict(VALID["ray-glue"], id=i) for i in ids)]
    res = verify_cases(tmp_path, cases)
    assert (res.exit_code, res.stdout, res.stderr) == (2, "",
                                                       f"Error: {message}\n")


def test_a_default_case_id_is_an_id_of_its_problem_set(tmp_path):
    # case 1 without an id is case001, the id that case 0 gives itself
    cases = [dict(VALID["ray-glue"], id="case001"),
             {k: v for k, v in VALID["ray-glue"].items() if k != "id"}]
    res = verify_cases(tmp_path, cases)
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "Error: case 1: id 'case001' is already the id of case 0\n")


def test_a_numeric_case_id_is_read_as_text(tmp_path):
    cases = [dict(VALID["ray-glue"], id=7), dict(VALID["ray-glue"], id=1.5),
             {k: v for k, v in VALID["ray-glue"].items() if k != "id"}]
    res = verify_cases(tmp_path, cases)
    assert res.exit_code == 0
    assert [r["case"] for r in json_lines(res.stdout)] == ["1.5", "7",
                                                           "case002"]


@pytest.mark.parametrize("kind,field,value", [
    ("graph-glue", "kamx", 40), ("interval-glue", "n_max", 6),
    ("circle-cut", "reference", 0.25), ("ray-glue", "circleL", 6.0)])
def test_a_field_its_kind_does_not_take_is_unusable_input(tmp_path, kind,
                                                          field, value):
    # a case is read as its command line is: a field that is no flag of its
    # command, nor an alias of one, nor case-only, is refused, not ignored
    case = VALID[kind]
    res = verify_case(tmp_path, dict(case, **{field: value}))
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", f"Error: case {case['id']}: unknown field '{field}'\n")


@pytest.mark.parametrize("args,case,message", [
    ("dn cylinder --L 2 --m2 inf --kmax 1",
     dict(VALID["dn-cylinder"], L=2.0, m2=math.inf, kmax=1),
     "m2 must be positive and finite"),
    ("graph cut --input line_dirichlet --m2 inf",
     dict(VALID["graph-cut"], m2=math.inf), "m2 must be positive and finite"),
    ("graph pathsum --input line3 --u 1 --v 3 --t 0.7 --eps inf",
     dict(VALID["graph-pathsum"], eps=math.inf),
     "eps must be positive and finite"),
    ("graph glue --input line3 --t 1 --method series --kmax -1",
     dict(VALID["graph-glue"], kmax=-1), "k_max must be nonnegative"),
    ("graph cut --input line_dirichlet --interface 0,z --m2 1",
     dict(VALID["graph-cut"], interface=["0", "z"]),
     "vertex 'z' not in graph")],
    ids=["infinite-mass", "infinite-cut-mass", "infinite-accuracy",
         "negative-order", "unknown-vertex"])
def test_each_input_rule_refuses_on_the_command_line_and_in_verify(
        tmp_path, args, case, message):
    # one rule per kind of input: errors.positive, errors.nonnegative and
    # Graph.indices; a RuntimeWarning on the way is an error under pytest
    res = invoke(args.split())
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"Error: {message}\n"
    res = verify_case(tmp_path, case)
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"Error: case {case['id']}: {message}\n"


@pytest.fixture(scope="module")
def case_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cases")


@settings(max_examples=120, deadline=None)
@given(case=st.sampled_from(VALID_CASES), data=st.data(),
       value=st.sampled_from([None, "abc", [], [0], {}, True]))
def test_a_case_with_a_field_of_the_wrong_shape_exits_cleanly(case_dir, case,
                                                              data, value):
    # no traceback: every outcome is one of the documented exit codes
    field = data.draw(st.sampled_from(sorted(case)))
    res = verify_case(case_dir, dict(case, **{field: value}))
    assert res.exit_code in (0, 1, 2, 3)
    statuses = [r["status"] for r in json_lines(res.stdout)]
    if res.exit_code == 2:
        assert (res.stdout, res.stderr.count("\n")) == ("", 1)
        assert res.stderr.startswith("Error: ")
    else:
        assert statuses
        assert res.exit_code != 1 or "fail" in statuses
        assert res.exit_code != 3 or "error" in statuses


# ---------------------------------------------------------------------------
# the parser
# ---------------------------------------------------------------------------


def test_unusable_input_reaches_a_caller_outside_standalone_mode():
    for args, message in [(["verify", "--input", "nosuch"],
                           "no such file or bundled fixture: nosuch"),
                          (["graph", "glue", "--t", "1"],
                           "required: --input")]:
        with pytest.raises(InputError, match=message):
            main.main(args, prog_name="heatglue", standalone_mode=False)
        res = invoke(args)
        assert res.exit_code == 2
        assert res.stderr.splitlines()[-1].startswith("Error: ")


@pytest.mark.parametrize("args,error", [
    ("graph glue --inp line3 --t 1", "Error: the following arguments are "
                                     "required: --input"),
    ("graph glue --input line3 --t 1 --met series",
     "Error: unrecognized arguments: --met series"),
    ("verify --input=intervals --see 3", "Error: unrecognized arguments: "
                                         "--see 3")])
def test_an_abbreviated_flag_is_unusable_input(args, error):
    res = invoke(args.split())
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.splitlines()[-1] == error


def test_a_value_may_start_with_a_minus_sign():
    res = invoke("interval glue --L1 1 --L2 2 --x -1e-3 --y 0.5 --t 1".split())
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == "Error: x and y must lie in [0, L2]"
    res = invoke("graph pathsum --input line3 --u -1 --v 3 --t 1 "
                 "--eps 1e-9".split())
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == "Error: vertex '-1' not in graph"
    res = invoke("circle cut --L 2 --cuts -0.5,1 --x 0.3 --y 0.7 --t 0.4".split())
    assert res.exit_code == 0
    (r,) = json_lines(res.stdout)
    assert r["inputs"]["cuts"] == "-0.5,1.0"
    # a flag as the last token has no value
    res = invoke("ray glue --x 1 --y 1 --t".split())
    assert res.exit_code == 2
    assert res.stderr.splitlines()[-1] == ("Error: argument --t: expected one "
                                           "argument")


GRAPH_GLUE_USAGE = """\
usage: heatglue graph glue [-h] --input TEXT --t FLOAT
                           [--method {assembled,series}] [--kmax INTEGER]
                           [--tol FLOAT]
"""


@pytest.mark.parametrize("args,error", [
    ("--method x", "argument --method: invalid choice: 'x' (choose from "
                   "'assembled', 'series')"),
    ("--method=", "argument --method: invalid choice: '' (choose from "
                  "'assembled', 'series')"),
    ("--kmax 1.5", "argument --kmax: invalid int value: '1.5'"),
    ("--t=x", "argument --t: invalid float value: 'x'")],
    ids=["choice", "empty-choice", "integer", "number"])
def test_a_value_outside_its_type_or_choices_is_unusable_input(args, error):
    # argparse writes every rejection, with the usage of the command
    res = invoke(f"graph glue --input line3 --t 1 {args}".split())
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr == f"{GRAPH_GLUE_USAGE}Error: {error}\n"


#: Texts that each type reads, and texts that it refuses.
TEXTS = {
    float: st.one_of(st.floats().map(repr), st.sampled_from(
        ["1", "-2", "-1e-3", "-0.0", " 0.5 ", "inf", "-inf", "nan"])),
    int: st.one_of(st.integers(-20, 20).map(str),
                   st.sampled_from(["+3", " 7", "-0"])),
    str: st.text(alphabet="ab1-=, ", max_size=5).filter(lambda s: s != "--"),
}
BAD_TEXTS = {float: ["", "x", "1,2"], int: ["", "1.5", "x"]}


def option_text(o, good):
    """A text that option o reads (good) or refuses; only an option with
    choices or of a number type refuses any."""
    if o.choices:
        return st.sampled_from(o.choices if good else ["", "x"])
    if not o.many:
        return TEXTS[o.type] if good else st.sampled_from(BAD_TEXTS[o.type])
    if good:
        items = TEXTS[o.type].filter(lambda s: "," not in s)
        return st.lists(items, max_size=3).map(",".join)
    return st.just("0,x")


@st.composite
def command_lines(draw):
    """(a command line, its defect or None): each option given once or
    twice, every required one at least once, in any order and in either
    form, and maybe one defect: a required option left out, a value of
    the wrong type or choice, a value "--", an unknown flag or word,
    help, or a flag without a value at the end."""
    command = draw(st.sampled_from(heatglue.cli._COMMANDS))
    required = [o for o in command.options
                if o.default is heatglue.cli._REQUIRED]
    given = [(o, draw(option_text(o, True))) for o in command.options
             for _ in range(draw(st.integers(int(o in required), 2)))]
    defect = draw(st.sampled_from([None, None, "left out", "bad value",
                                   "dashes", "unknown", "help", "no value"]))
    if defect == "left out":
        dropped = draw(st.sampled_from(required))
        given = [(o, text) for o, text in given if o is not dropped]
    if defect == "bad value":
        # half of them on an option with choices, where a command has one
        choosing = [o for o in command.options if o.choices]
        refusing = [o for o in command.options if o.choices or o.type is not str]
        o = draw(st.sampled_from(choosing if choosing and draw(st.booleans())
                                 else refusing))
        given.append((o, draw(option_text(o, False))))
    if defect == "dashes":
        given.append((draw(st.sampled_from(command.options)), "--"))
    tokens = []
    for o, text in draw(st.permutations(given)):
        tokens += draw(st.sampled_from([[o.flag, text], [f"{o.flag}={text}"]]))
    others = sorted(heatglue.cli._FLAGS - {o.flag for o in command.options})
    stray = {"unknown": [["--bogus", "1"], ["--bogus=1"], ["x"], ["--"],
                         ["-t", "1"], *([flag, "1"] for flag in others)],
             "help": [["-h"], ["--help"]]}
    if defect in stray:
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = draw(st.sampled_from(stray[defect]))
    if defect == "no value":
        tokens.append(draw(st.sampled_from(command.options)).flag)
    return [*command.name.split(), *tokens], defect


def answers(argv):
    """What the reader and the argparse parser of ``cli`` make of argv:
    each the runner and arguments it reads, "refused" for unusable input,
    or None where the reader declines or "help" where the parser prints
    help."""
    try:
        read = heatglue.cli._read_line(argv)
    except InputError:
        read = "refused"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            options, extra = heatglue.cli._build("heatglue").parse_known_args(
                heatglue.cli._attach_values(argv))
    except InputError:
        return read, "refused"
    except SystemExit as stop:
        assert stop.code == 0
        return read, "help"
    if extra:
        return read, "refused"
    options = vars(options)
    words = options.pop("command").prog.removeprefix("heatglue ")
    return read, (RUNNERS[words], options)


@settings(max_examples=300, deadline=None)
@given(line=command_lines())
def test_a_command_line_is_read_as_the_parser_reads_it(line):
    # the reader gives a reading exactly where the parser gives one, and
    # the same one; where it declines, the parser rejects the line or
    # prints help; it reads every line of the generator without a defect,
    # and a value "--" in either form is unusable input to both
    argv, defect = line
    read, parsed = answers(argv)
    if isinstance(read, tuple):
        assert isinstance(parsed, tuple), argv
        assert read[0] is parsed[0]
        # repr keeps a NaN equal to itself and -0.0 apart from 0.0
        assert repr(sorted(read[1].items())) == \
            repr(sorted(parsed[1].items())), argv
    elif read is None:
        assert parsed in ("refused", "help"), argv
    else:
        assert read == parsed == "refused", argv
    assert isinstance(read, tuple) == (defect is None), argv
    if defect == "dashes":
        assert read == "refused", argv


@pytest.mark.parametrize("args,flag", [
    ("verify --input --", "--input"),
    ("ray glue --x -- --y 1 --t 1", "--x"),
    ("ray glue --x=-- --y 1 --t 1", "--x")])
def test_a_value_of_two_dashes_is_unusable_input(args, flag):
    # argparse would drop the "--" and hand the runner an empty list
    assert invoke(args.split()) == (2, "", f"Error: bad {flag} value: '--'\n")


#: The words of every command
COMMANDS = [c.name for c in heatglue.cli._COMMANDS]
#: The runner of every command, by its words
RUNNERS = {c.name: c.run for c in heatglue.cli._COMMANDS}


@pytest.mark.parametrize("words", [
    "", *sorted({w.split()[0] for w in COMMANDS if " " in w}), *COMMANDS])
def test_help_exits_zero_on_every_command(words):
    res = invoke([*words.split(), "--help"])
    assert (res.exit_code, res.stderr) == (0, "")
    assert res.stdout.startswith(f"usage: heatglue {words}".rstrip() + " [-h]")
    for command in heatglue.cli._COMMANDS:
        if command.name == words:
            assert all(o.flag in res.stdout for o in command.options)


def test_the_program_name_names_usage_and_help():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main.main(["ray", "glue", "--help"], prog_name="hg")
    assert stop.value.code == 0
    assert out.getvalue().startswith("usage: hg ray glue [-h]")
    with pytest.raises(InputError) as error:
        main.main(["ray", "glue"], prog_name="hg", standalone_mode=False)
    assert error.value.usage.startswith("usage: hg ray glue [-h]")
    assert invoke(["ray", "glue", "--help"]).stdout.startswith(
        "usage: heatglue ray glue")


def test_the_command_line_imports_no_click():
    done = fresh_python("import sys, heatglue.cli; "
                        "print('click' in sys.modules)",
                        capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"


def test_a_closed_stdout_exits_one_quietly():
    read, write = os.pipe()
    os.close(read)
    try:
        done = fresh_python("from heatglue.cli import main; main()",
                            *"ray glue --x 0.8 --y 1.1 --t 0.6".split(),
                            stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"")


@pytest.mark.parametrize("formula", ["I", "II"])
def test_an_interval_glue_past_the_budget_is_an_error_report(tmp_path,
                                                             formula):
    # at L2 = 0.01 and t = 1e10 the flux pair holds 2.8e8 images: it is
    # refused before any array is formed, so under a 1.5 GB address-space
    # limit a case with a given reference, which skips glue_direct, is one
    # error report, not a MemoryError traceback
    case = {"id": f"ig-{formula}", "kind": "interval-glue",
            "formula": formula, "L1": 1.0, "L2": 0.01, "x": 0.005,
            "y": 0.005, "t": 1e10, "reference": 0.0, "tol": 1e-8,
            **({"nmax": 6} if formula == "II" else {})}
    path = tmp_path / "cases.json"
    path.write_text(json.dumps({"cases": [case]}))
    done = fresh_python("from heatglue.cli import main; main()", "verify",
                        "--input", str(path), limit_kb=1500000,
                        capture_output=True, text=True)
    assert done.returncode == 3, done.stderr
    (report,) = json_lines(done.stdout)
    assert (report["case"], report["status"]) == (case["id"], "error")
    assert report["message"].startswith("TruncationError: flux pair: ")
    assert "Traceback" not in done.stderr


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
         "v": labels[3], "t": 0.5, "eps": 1e-9},
        {"id": "ps-err", "kind": "graph-pathsum", "input": "line3", "u": "1",
         "v": "3", "t": 50, "eps": 1e-300},
        {"id": "cut", "kind": "graph-cut", "input": "line_dirichlet", "m2": 1.0},
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
    assert {c["kind"] for c in cases} == set(heatglue.cli._KINDS)
    path = tmp_path / "every_kind.json"
    path.write_text(json.dumps({"cases": cases}))
    return ["verify", "--input", str(path)]


def test_each_readme_command_line_is_a_verify_case(tmp_path):
    # a case of kind "graph-glue" is the command "graph glue": its fields
    # are the flags without "--", read as the command reads them, and with
    # the command's tol it prints the command's lines but for the case id
    commands = [args for args in readme_commands() if args[0] != "verify"]
    assert len(commands) >= 9
    for args in commands:
        words, _, flags = " ".join(args).partition(" --")
        flags = ("--" + flags).split()
        entry = next(c for c in heatglue.cli._COMMANDS if c.name == words)
        options = {o.flag: o for o in entry.options}
        case = {"id": "c", "kind": words.replace(" ", "-"),
                "tol": options["--tol"].default}
        for flag, text in zip(flags[::2], flags[1::2]):
            o = options[flag]
            case[flag[2:]] = [o.type(s) for s in text.split(",")] if o.many \
                else o.type(text)
        command, verified = invoke(args), verify_case(tmp_path, case)
        assert verified.exit_code == command.exit_code, args
        ids = r'^\{"case": "[^"]*"'
        assert [re.sub(ids, "", line) for line in verified.stdout.splitlines()
                ] == [re.sub(ids, "", line)
                      for line in command.stdout.splitlines()], args


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
    assert statuses == {"pass", "fail", "error"}
    assert res.exit_code == 3


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
            value = np.ravel(rep.value).tolist()[i]
            reference = np.ravel(rep.reference).tolist()[i]
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
    if size == 1 and draw(st.booleans()):  # a one-value report, as floats
        return Reports(case, geometry, inputs, value[0], reference[0],
                       draw(any_float), tuple(axes), extra)
    bound = draw(any_float | floats.map(np.array))
    return Reports(case, geometry, inputs, np.array(value),
                   np.array(reference), bound, tuple(axes), extra)


@settings(max_examples=200, deadline=None)
@given(column_reports())
def test_column_encoder_writes_what_json_dumps_writes(rep):
    assert rep.json_lines() == old_json_lines(rep)


ONE_VALUE_REPORTS = {
    "minus-zero": (-0.0, 0.0, 0.0, 0.0),
    "subnormal": (5e-324, 0.0, 0.0, 0.0),
    "residual-equal-to-tol": (0.75, 0.5, 0.0, 0.25),
    "residual-above-tol": (0.75, 0.5, 0.0, math.nextafter(0.25, 0.0)),
    "residual-equal-to-bound": (1.0, 0.5, 0.5, 0.125),
    "residual-above-bound": (1.0, 0.5, math.nextafter(0.5, 0.0), 0.125),
    "nan-bound": (1.0, 1.0, math.nan, 0.0),
    "tenth": (0.1, 0.2, 1e-300, 1e-8),
}


@pytest.mark.parametrize("value, reference, bound, tol",
                         ONE_VALUE_REPORTS.values(), ids=ONE_VALUE_REPORTS)
def test_a_one_value_report_is_the_report_of_its_arrays(value, reference,
                                                        bound, tol):
    # floats keep floats: the same line as json.dumps writes and the same
    # status as the array path gives
    rep = Reports("c", "ray", {"tol": tol}, value, reference, bound)
    arrays = Reports("c", "ray", {"tol": tol}, np.array([value]),
                     np.array([reference]), np.array([bound]))
    assert type(rep.residual) is float and rep.residual == abs(value - reference)
    assert isinstance(arrays.residual, np.ndarray)
    assert rep.status == arrays.status
    assert rep.json_lines() == arrays.json_lines() == old_json_lines(rep)


def test_a_numpy_float_report_takes_the_array_path():
    # a numpy.float64 is a float, but its repr is np.float64(0.1)
    rep = Reports("c", "ray", {"tol": 1.0}, np.float64(0.1), 0.2, 0.0)
    assert isinstance(rep.value, np.ndarray)
    assert isinstance(rep.residual, np.ndarray)
    ((_, line),) = rep.json_lines()
    assert json.loads(line)["value"] == 0.1 and '"value": 0.1,' in line
    assert rep.json_lines() == Reports("c", "ray", {"tol": 1.0}, 0.1, 0.2,
                                       0.0).json_lines()


def test_a_one_value_residual_that_overflows_is_an_error(capsys):
    # 1e308 - (-1e308) overflows to inf in Python floats, with no exception
    def run():
        return [Reports("c", "ray", {"tol": 1e-8}, 1e308, -1e308, 0.0)]
    (rep,) = heatglue.cli._guarded("c", "ray", {"tol": 1e-8}, run)
    assert rep.value is None and rep.status == ["error"]
    with pytest.raises(SystemExit) as stop:
        heatglue.cli._finish([rep])
    assert stop.value.code == 3
    (line,) = json_lines(capsys.readouterr().out)
    assert (line["status"], line["message"]) == ("error", (
        "FloatingPointError: a value, reference, residual or bound is not "
        "finite"))


@pytest.mark.parametrize("key", FIXED_KEYS)
def test_an_extra_key_never_shadows_a_fixed_key(key):
    with pytest.raises(ValueError, match="shadowed"):
        Reports("c", "graph", {"tol": 0.0}, 1.0, 1.0, extra={key: 0})
    with pytest.raises(ValueError, match="shadowed"):
        Reports("c", "graph", {"x": 0}, [1.0], [1.0],
                axes=(Axis("x", [1], ["1"]),))


# ---------------------------------------------------------------------------
# the column encoder on both sides of its size rule
# ---------------------------------------------------------------------------


#: The encoder of the four float columns, as the package defines it.
json_floats = heatglue.cli._json_floats


def columns_encoding_every_float(rep):
    """Reports._columns as it was: one call of the encoder on every float
    of the four columns, a scalar bound encoded once."""
    n = len(rep.status)
    columns = [c.tolist() if isinstance(c, np.ndarray) else [c]
               for c in (rep.value, rep.reference, rep.residual, rep.bound)]
    cells = json_floats(sum(columns, []))
    out, i = [], 0
    for c in columns:
        out.append(cells[i:i + len(c)] if len(c) == n else cells[i:i + 1] * n)
        i += len(c)
    return out


def nan_with_payload(payload: int, sign: int = 0) -> float:
    return float(np.array([sign << 63 | 0x7FF8 << 48 | payload],
                          dtype=np.uint64).view(float)[0])


SPECIAL_FLOATS = [0.0, -0.0, math.nan, nan_with_payload(5),
                  nan_with_payload(0, 1), math.inf, -math.inf, 5e-324,
                  1e-16, 0.1, 1.0 / 3.0]


def encoder_reports(size: int, rng):
    """Reports of ``size`` entries whose columns repeat values and hold
    every special float, with a scalar and with an array bound."""
    labels = [f"v{i}" for i in range(size)]
    axes = (Axis("x", labels, labels),)
    pool = np.array(SPECIAL_FLOATS + rng.random(3).tolist())
    value = rng.choice(pool, size)
    inputs = {"tol": 1e-10}
    yield Reports("same", "graph", inputs, value, value, 0.0, axes)
    yield Reports("near", "graph", inputs, value, value + 1e-17, 1e-300, axes)
    yield Reports("array", "graph", inputs, value, rng.choice(pool, size),
                  rng.choice(pool, size), axes)
    yield Reports("0-d-bound", "graph", inputs, value, value[::-1],
                  np.array(-0.0), axes)


@pytest.mark.parametrize("size", [1, 4, heatglue.cli._DISTINCT_MIN - 1,
                                  heatglue.cli._DISTINCT_MIN,
                                  heatglue.cli._DISTINCT_MIN + 1, 81, 144])
def test_column_encoder_matches_encoding_every_float(size, monkeypatch):
    rng = np.random.default_rng(size)
    for rep in encoder_reports(size, rng):
        calls = []

        def spy(values):
            calls.append(len(values))
            return json_floats(values)

        monkeypatch.setattr(heatglue.cli, "_json_floats", spy)
        assert rep._columns() == columns_encoding_every_float(rep)
        floats = np.concatenate([np.ravel(c) for c in (
            rep.value, rep.reference, rep.residual, rep.bound)])
        distinct = np.unique(floats.view(np.int64)).size
        every = 3 * size + np.size(rep.bound)
        assert calls == [distinct if size >= heatglue.cli._DISTINCT_MIN
                         else every]
        monkeypatch.undo()
        lines = rep.json_lines()
        assert lines == old_json_lines(rep)
        monkeypatch.setattr(heatglue.cli, "_DISTINCT_MIN", 10**9)
        assert rep.json_lines() == lines
        monkeypatch.undo()


def test_column_encoder_of_an_error_report():
    rep = Reports.error("c", "graph", {"tol": 0.0}, FloatingPointError("x"))
    assert rep._columns() == columns_encoding_every_float(rep)
    assert rep.json_lines() == old_json_lines(rep)


def test_column_encoder_keeps_zero_signs_and_nans_apart():
    values = np.array([0.0, -0.0, math.nan, nan_with_payload(9), math.inf,
                       -math.inf] * 5)
    labels = [str(i) for i in range(values.size)]
    rep = Reports("c", "graph", {}, values, -values, np.zeros(values.size),
                  (Axis("k", labels, labels),))
    assert values.size >= heatglue.cli._DISTINCT_MIN
    value, reference, _, bound = rep._columns()
    assert value[:6] == ["0.0", "-0.0", "NaN", "NaN", "Infinity", "-Infinity"]
    assert reference[:6] == ["-0.0", "0.0", "NaN", "NaN", "-Infinity",
                             "Infinity"]
    assert set(bound) == {"0.0"}


# ---------------------------------------------------------------------------
# input loading: every outcome of verify --input
# ---------------------------------------------------------------------------


def load_outcome(name):
    res = invoke(["verify", "--input", name])
    return res.exit_code, res.stderr.strip().splitlines()[-1]


def test_input_outcomes_of_files_and_fixtures(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("set.json").write_text('{"cases": []}')
    pathlib.Path("adir").mkdir()
    # an existing file wins over a fixture of the same name
    pathlib.Path("intervals").write_text("[]")
    assert load_outcome("set.json") == (0, "0 cases: 0 pass, 0 fail, 0 error")
    assert load_outcome("./adir/../set.json")[0] == 0
    assert load_outcome("intervals") == (0, "0 cases: 0 pass, 0 fail, 0 error")
    assert load_outcome("intervals.json") == (0, "6 cases: 6 pass, 0 fail, 0 error")
    assert load_outcome("nosuch") == (
        2, "Error: no such file or bundled fixture: nosuch")
    # a name under a file is not there, as Path.exists() reads it
    assert load_outcome("set.json/x") == (
        2, "Error: no such file or bundled fixture: set.json/x")
    assert load_outcome("adir") == (
        2, "Error: cannot read adir: [Errno 21] Is a directory: 'adir'")
    # Path("") is the working directory
    assert load_outcome("") == (
        2, "Error: cannot read : [Errno 21] Is a directory: '.'")
    # a path is read as pathlib spells it: a trailing "/" is dropped
    assert load_outcome("set.json/") == (0, "0 cases: 0 pass, 0 fail, 0 error")
    assert load_outcome("./adir/.") == (
        2, "Error: cannot read ./adir/.: [Errno 21] Is a directory: 'adir'")
    # the file is read as UTF-8, so a byte order mark is no JSON
    pathlib.Path("bom.json").write_bytes(b'\xef\xbb\xbf{"cases": []}')
    assert load_outcome("bom.json") == (
        2, "Error: invalid JSON in bom.json: Unexpected UTF-8 BOM (decode using "
           "utf-8-sig): line 1 column 1 (char 0)")
    # "\r\n" and a lone "\r" count as one newline in a parse error's position
    pathlib.Path("crlf.json").write_bytes(b'{\r\n "cases":\r [\r\n 1,,\r\n]}')
    assert load_outcome("crlf.json") == (
        2, "Error: invalid JSON in crlf.json: Expecting value: line 4 column 4 "
           "(char 18)")
    # a case's graph file that is not UTF-8 is named in the message
    pathlib.Path("latin.json").write_bytes(b'{"vertices": ["a"], "edges": []}\xff')
    pathlib.Path("case.json").write_text(
        '[{"id": "gg", "kind": "graph-glue", "input": "latin.json", "t": 1.0}]')
    assert load_outcome("case.json") == (
        2, "Error: case gg: cannot read latin.json: 'utf-8' codec can't decode "
           "byte 0xff in position 32: invalid start byte")


def test_input_outcome_of_an_unreadable_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("locked.json").write_text('{"cases": []}')

    def deny(path, *args, **kwargs):
        if path == "locked.json":
            raise PermissionError(13, "Permission denied", path)
        return open(path, *args, **kwargs)

    monkeypatch.setattr(heatglue.cli, "open", deny, raising=False)
    assert load_outcome("locked.json") == (
        2, "Error: cannot read locked.json: [Errno 13] Permission denied: "
           "'locked.json'")


@pytest.mark.parametrize("command", [["verify"], ["graph", "glue", "--t", "1"]])
def test_input_outcome_of_a_file_that_is_not_utf8(tmp_path, monkeypatch,
                                                  command):
    monkeypatch.chdir(tmp_path)
    pathlib.Path("latin.json").write_bytes(b'{"cases": []}\xff')
    res = invoke([*command, "--input", "latin.json"])
    assert (res.exit_code, res.stderr) == (
        2, "Error: cannot read latin.json: 'utf-8' codec can't decode byte "
           "0xff in position 13: invalid start byte\n")


@pytest.mark.parametrize("command", [["verify"], ["graph", "glue", "--t", "1"]])
def test_input_outcome_of_a_path_with_a_nul_byte(command):
    # open() refuses the name with ValueError, not OSError; no shell can
    # pass the byte, so this is the one way to reach it
    res = invoke([*command, "--input", "a\x00b"])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "Error: cannot read a\x00b: embedded null byte\n")


# ---------------------------------------------------------------------------
# what the command line does not take
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("args", [
    "ray glue --x 0.8 --y 1.1 --t 0.6 --format csv",
    "verify --input intervals --seed 7",
    "verify --input intervals --suite ray",
])
def test_a_report_format_or_seed_option_is_unusable_input(args):
    # reports are JSON lines only, no case is randomized, and a problem set
    # runs whole: each flag is an argument no command takes, reported with
    # the command's usage
    res = invoke(args.split())
    words, flag = args.split(" --")[0], " ".join(args.split()[-2:])
    assert (res.exit_code, res.stdout) == (2, "")
    assert res.stderr.startswith(f"usage: heatglue {words} [-h] ")
    assert res.stderr.endswith(f"\nError: unrecognized arguments: {flag}\n")


def test_an_option_no_command_takes_gets_the_usage_of_the_command():
    res = invoke("ray glue --x 0.8 --y 1.1 --t 0.6 --nope 3".split())
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "usage: heatglue ray glue [-h] --x FLOAT --y FLOAT --t FLOAT "
               "[--tol FLOAT]\nError: unrecognized arguments: --nope 3\n")
    with pytest.raises(InputError) as error:
        main.main(["ray", "glue", "--x", "1", "--y", "1", "--t", "1", "-q"],
                  prog_name="hg", standalone_mode=False)
    assert error.value.usage.startswith("usage: hg ray glue [-h]")
    assert str(error.value) == "unrecognized arguments: -q"


def test_a_random_graph_case_is_an_unknown_kind(tmp_path):
    path = tmp_path / "random.json"
    path.write_text(json.dumps([{"kind": "random-graph-glue", "count": 1}]))
    res = invoke(["verify", "--input", str(path)])
    assert (res.exit_code, res.stdout, res.stderr) == (
        2, "", "Error: case 0: unknown kind 'random-graph-glue'\n")


def test_every_command_is_demonstrated_in_the_readme():
    lines = [" ".join(args) + " " for args in readme_commands()]
    for command in heatglue.cli._COMMANDS:
        assert any(line.startswith(command.name + " ") for line in lines), \
            command.name


def test_the_readme_library_example_runs_as_written():
    # the block runs statement by statement, as in an interpreter, and an
    # expression whose comment starts with a number evaluates to exactly
    # that number
    text = README.read_text().split("## Library example", 1)[1]
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    lines, namespace, shown = block.splitlines(), {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md",
                                 "eval"), namespace)
            comment = lines[node.end_lineno - 1].partition("#")[2].split()
            if comment and re.fullmatch(r"-?\d[\d.e+-]*", comment[0]):
                shown.append((repr(value), comment[0]))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    assert shown == [("0.15769145747558952", "0.15769145747558952")]
    # and each other claim of its comments: the extension's atom is the
    # identity on the interface rows and nothing elsewhere, and the 1d
    # check holds (its assert ran above)
    d, atom = namespace["d"], namespace["atom"]
    on = np.isin(d.ordered_graph.vertices, d.interface)
    assert np.array_equal(atom[on], np.eye(len(d.interface)))
    assert not atom[~on].any()
    assert namespace["residual"] <= namespace["bound"]


def test_every_readme_command_line_passes():
    # each example of the README exits 0 with every report a pass, and
    # prints nothing to stderr but verify's tally of its cases
    commands = readme_commands()
    assert len(commands) >= 11
    for args in commands:
        res = invoke(args)
        lines = json_lines(res.stdout)
        assert res.exit_code == 0, args
        assert {r["status"] for r in lines} <= {"pass"}, args
        tally = (f"{len(lines)} cases: {len(lines)} pass, 0 fail, 0 error\n"
                 if args[0] == "verify" else "")
        assert res.stderr == tally, args
