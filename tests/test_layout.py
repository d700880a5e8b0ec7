"""Module boundaries of the package: no private name crosses a module, no
module-level import goes unused, in the package or in its tests, no
function of the package accepts a parameter it never reads, each route
returns what it computes once, a command runs only the route modules its
cases call, and no function of the package is left that no command and no
gate runs."""

import ast
import contextlib
import inspect
import io
import json
import math
import pathlib
import re
import sys

import pytest

import heatglue
from heatglue import graph_heat, heat1d

SRC = pathlib.Path(heatglue.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent


def modules(dirs=(SRC,)):
    for path in sorted(p for d in dirs for p in d.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), filename=str(path))


def private_imports():
    for stem, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                module = f"heatglue.{module}".rstrip(".")
            if not module.startswith("heatglue.") or module == f"heatglue.{stem}":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield stem, module, alias.name


def exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports():
    for stem, tree in modules((SRC, TESTS)):
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for name in sorted(bound - used - exported(tree)):
            yield stem, name


def unused_parameters():
    for stem, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for b in body for n in ast.walk(b)
                    if isinstance(n, ast.Name)}
            for name in params:
                if name not in read and name not in ("self", "cls"):
                    yield stem, getattr(node, "name", "<lambda>"), name


def test_no_private_name_is_imported_across_modules():
    assert set(private_imports()) == set()


def test_no_unused_imports():
    assert list(unused_imports()) == []


def test_no_parameter_is_accepted_and_ignored():
    assert list(unused_parameters()) == []


def defined_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target)
                            if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0]
                        for a in node.names)


def test_every_exported_name_is_defined_in_its_module():
    # a deleted function or class does not linger in an export list
    for stem, tree in modules():
        assert exported(tree) - set(defined_names(tree)) == set(), stem


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield f"heatglue.{module}".rstrip(".") if node.level else module


def named(tree):
    """Every name a module reads, defines, imports or takes as an
    attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            yield n.name
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            yield from (a.asname or a.name for a in n.names)


def called(tree):
    """The names of every function or method a module calls."""
    return {getattr(n.func, "attr", getattr(n.func, "id", None))
            for n in ast.walk(tree) if isinstance(n, ast.Call)}


def test_the_1d_kernels_use_no_quadrature():
    # route II and the rays are exact image-sum compositions, and no route
    # of the package convolves numerically: quadsim keeps only the name the
    # benchmark tracer hooks, and only cli names it, to register it lazily
    # (no module imports it)
    trees = dict(modules())
    stub = trees["quadsim"]
    assert exported(stub) == {"TimeFactor"}
    assert set(defined_names(stub)) - {"annotations", "__all__"} == {
        "TimeFactor"}
    assert [stem for stem, tree in trees.items()
            if "quadsim" in set(named(tree)) | {
                n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)}
            ] == ["cli"]
    assert [stem for stem, tree in trees.items()
            if "heatglue.quadsim" in set(imported_modules(tree))] == []
    for stem, tree in trees.items():
        assert not set(named(tree)) & {"conv_n", "adaptive",
                                       "inverse_pow_gaussian"}, stem
    assert not set(named(trees["heat1d"])) & {"quadsim", "TimeFactor"}


TRACED_VERIFY = """
import contextlib, importlib.util, io, json, sys
sys.dont_write_bytecode = True
import heatglue.cli
spec = importlib.util.spec_from_file_location("tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
rec = tracer.Recorder()
tracer.instrument(rec, {n: m for n, m in sys.modules.items()
                        if n.startswith("heatglue.")})
main = rec.wrap(heatglue.cli.main, "cli.main")
out = io.StringIO()
with contextlib.redirect_stdout(out):
    try:
        main(["verify", "--input", sys.argv[2]],
             standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
reports = len(out.getvalue().splitlines())
calls = {name: count for name, (count, _, _) in rec.totals().items()}
print(json.dumps([code, tracer.layer_metrics(rec, reports), calls]))
"""


def test_the_benchmark_tracer_still_installs():
    # perfbench/tracer.py reads modules["heatglue.quadsim"] and hooks its
    # TimeFactor; a traced run fails with KeyError if the stub goes first
    from conftest import fresh_python

    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    done = fresh_python(TRACED_VERIFY, str(tracer), "intervals",
                        capture_output=True, text=True, check=True)
    code, metrics, _ = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert metrics["quadsim.conv_n.calls"] == 0
    assert metrics["cli.reports"] > 0


def test_a_traced_series_case_records_its_walk_under_graph_heat(tmp_path):
    # the series walk is a function that cli reads from graph_heat, so the
    # tracer's module proxy wraps it, and its time is graph_heat's, not
    # cli's: one span per series case, none for an assembled gluing
    from conftest import fresh_python

    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    cases = tmp_path / "cases.json"
    cases.write_text(json.dumps(
        [{"kind": "graph-glue", "input": "line3", "t": t, "method": "series",
          "kmax": 40} for t in (0.5, 1.0, 2.0)]
        + [{"kind": "graph-glue", "input": "line3", "t": 1.0}]))
    done = fresh_python(TRACED_VERIFY, str(tracer), str(cases),
                        capture_output=True, text=True, check=True)
    code, metrics, calls = json.loads(done.stdout.splitlines()[-1])
    assert code == 0 and metrics["cli.reports"] == 4 * 9
    assert calls["graph_heat.glue_II_values"] == 3
    assert calls["graph_heat.glue_I_values"] == 1


def test_the_cli_builds_no_coefficient_tensor():
    # every graph report needs values at one t, which the assembled gluing
    # and the references give from eigendecompositions: the command line
    # neither imports nor names the coefficient-tensor routes
    assert not set(named(dict(modules())["cli"])) & {
        "glue_I", "KernelMatrix", "heat_kernel", "evaluate_basis"}


def exported_signatures():
    """(module, name, parameters) of every exported function and of every
    public method of an exported class."""
    for stem, tree in modules():
        names = exported(tree)
        for node in tree.body:
            if getattr(node, "name", None) not in names:
                continue
            defs = [node] if isinstance(node, ast.FunctionDef) else [
                f for f in getattr(node, "body", ())
                if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
            for f in defs:
                a = f.args
                yield stem, f.name, {p.arg for p in
                                     a.posonlyargs + a.args + a.kwonlyargs}


def test_no_route_takes_the_reference_of_its_check():
    # a route returns its value and bound; the caller that chose the
    # reference takes the residual
    assert [(stem, name) for stem, name, params in exported_signatures()
            if "reference" in params] == []


def test_a_circle_cut_request_evaluates_the_circle_kernel_once(monkeypatch,
                                                              tmp_path):
    # the cut evaluates the circle's images itself, so the kernel is taken
    # once, for the a-priori check of the command line
    calls = []
    k_circle = heat1d.k_circle

    def counted(*args):
        calls.append(args)
        return k_circle(*args)

    monkeypatch.setattr(heat1d, "k_circle", counted)
    path = tmp_path / "cut.json"
    path.write_text('[{"kind": "circle-cut", "L": 2.0, "cuts": [0, 1], '
                    '"x": 0.3, "y": 0.7, "t": 0.4, "kmax": 4}]')
    from heatglue import cli

    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()), \
            pytest.raises(SystemExit) as exit_:
        cli.main(["verify", "--input", str(path)])
    assert exit_.value.code == 0
    assert len(calls) == 1


def test_one_rounding_rule_and_one_a_priori_rule():
    # an image sum is evaluated only at one time, with its rounding bound;
    # the cut does not take the circle kernel, and only errors.below_prior
    # raises on a vacuous certificate: heat1d's route II, the graph series,
    # the path sum and the circle cut all call it, and none has a rule of
    # its own
    trees = dict(modules())
    assert [stem for stem, tree in trees.items()
            if "below_prior" in {getattr(n, "name", None) for n in tree.body}
            ] == ["errors"]
    for stem in ("heat1d", "graph_heat", "path_sum", "cli"):
        assert "below_prior" in called(trees[stem]), stem
    image_sum = next(n for n in trees["heat1d"].body
                     if getattr(n, "name", None) == "_ImageSum")
    assert "__call__" not in {f.name for f in image_sum.body
                              if isinstance(f, ast.FunctionDef)}
    cut = next(n for n in trees["heat1d"].body
               if getattr(n, "name", None) == "cut_circle_to_arc")
    assert "k_circle" not in {n.id for n in ast.walk(cut)
                              if isinstance(n, ast.Name)}
    for stem in ("cli", "graph_heat"):
        assert [n for n in ast.walk(trees[stem]) if isinstance(n, ast.Call)
                and "TruncationError" in (getattr(n.func, "attr", None),
                                          getattr(n.func, "id", None))] == []


def test_one_rule_per_kind_of_input():
    # errors decides which lengths, times, masses and counts the package
    # refuses (positive, nonnegative), as it decides which certificates it
    # refuses, and Graph.indices which vertex labels: no module keeps a
    # copy of a rule or writes its message, and every module that takes a
    # length, time or mass calls errors.positive
    trees = dict(modules())
    functions = {stem: {n.name for n in ast.walk(tree)
                        if isinstance(n, ast.FunctionDef)}
                 for stem, tree in trees.items()}
    for rule, home, message in [("positive", "errors", "positive and finite"),
                                ("nonnegative", "errors", None),
                                ("indices", "graph_heat", "not in graph")]:
        assert [stem for stem in trees if rule in functions[stem]] == [home]
        assert message is None or {
            stem for stem, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and message in str(n.value)
        } == {home}
    assert [stem for stem in trees if {"_positive", "_check_t", "_check_times"}
            & functions[stem]] == []
    for stem in ("heat1d", "graph_heat", "path_sum", "expmix", "cli"):
        assert "positive" in called(trees[stem]), stem


def test_one_junction_kernel_and_one_rate_clamp():
    # the junction kernel is the glued interval's kernel at the junction,
    # with no image or mode sum of its own, and no clamp of single rates
    # is defined: Laplacian rates come from graph_heat._spectrum
    trees = dict(modules())
    junction = next(n for n in trees["heat1d"].body
                    if getattr(n, "name", None) == "interface_two_intervals")
    assert "k_interval" in {getattr(n.func, "id", None)
                            for n in ast.walk(junction)
                            if isinstance(n, ast.Call)}
    assert {"_images", "_modes"} & set(named(junction)) == set()
    assert "_safe_rate" not in set(defined_names(trees["graph_heat"]))


def test_the_direct_difference_is_one_image_or_two_mode_sums():
    # glue_direct keeps no sum, array or cut of its own: below S^2/pi it is
    # one _images call, from there on _modes at S minus _modes at L2, and
    # it names no numpy and none of the cut's parts; its domain check is
    # _check_depths, the one that route I and route II call too
    trees = dict(modules())
    direct = next(n for n in trees["heat1d"].body
                  if getattr(n, "name", None) == "glue_direct")
    calls = [getattr(n.func, "attr", getattr(n.func, "id", None))
             for n in ast.walk(direct) if isinstance(n, ast.Call)]
    assert sorted(set(calls) - {"positive", "_check_depths"}) == [
        "_images", "_modes", "sin"]
    assert (calls.count("_images"), calls.count("_modes")) == (1, 1)
    assert {"np", "_lattice", "_reach", "_check_terms", "round", "fsum",
            "exp"} & set(named(direct)) == set()
    branches = [n for n in ast.walk(direct) if isinstance(n, ast.If)]
    assert len(branches) == 1  # the crossover


def test_one_interface_series_for_both_1d_formula_II_routes():
    # the second gluing formula's series over interface crossings is summed
    # once in 1d: only _interface_series composes image sums in a loop over
    # orders, and route II and the circle cut each call it once; the depth
    # check of the interval gluings is one helper with its one message
    tree = dict(modules())["heat1d"]
    functions = {n.name: n for n in tree.body
                 if isinstance(n, ast.FunctionDef)}
    looping = {name for name, f in functions.items()
               for loop in ast.walk(f) if isinstance(loop, (ast.For, ast.While))
               if "_compose_sum" in called(loop)}
    assert looping == {"_interface_series"}
    for route in ("glue_intervals_II", "cut_circle_to_arc"):
        calls = [n for n in ast.walk(functions[route])
                 if isinstance(n, ast.Call)
                 and getattr(n.func, "id", None) == "_interface_series"]
        assert len(calls) == 1, route
    assert [name for name, f in functions.items() for n in ast.walk(f)
            if isinstance(n, ast.Constant)
            and "must lie in [0, L2]" in str(n.value)] == ["_check_depths"]


def test_every_graph_rate_comes_from_one_spectrum():
    # graph_heat eigendecomposes a matrix in _spectrum only, with its null
    # space exact; no other function reads eigenpairs, so no route clamps
    # a rate or floors an eigenvalue of its own, and schur_cut takes both
    # of its Green's matrices from it
    tree = dict(modules())["graph_heat"]
    functions = {n.name: n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef)}

    def calls(name, callee):
        return [n for n in ast.walk(functions[name]) if isinstance(n, ast.Call)
                and callee in (getattr(n.func, "attr", None),
                               getattr(n.func, "id", None))]

    assert [name for name, f in functions.items()
            if {c for c in called(f) if c and c.startswith("eig")}
            ] == ["_spectrum"]
    assert [name for name, f in functions.items() for n in ast.walk(f)
            if isinstance(n, ast.Assign) and isinstance(n.targets[0], ast.Tuple)
            and "eigh" in called(n.value)] == ["_spectrum"]
    for name, count in [("heat_kernel", 1), ("heat_values", 1),
                        ("relative_heat_kernel", 1), ("interface_kernel", 1),
                        ("_glue_I_spectra", 2), ("schur_cut", 2)]:
        assert len(calls(name, "_spectrum")) == count, name
    assert not {"_safe_rates", "spectral_apply", "_component_labels"} & set(
        named(tree))


def complement_sources(tree):
    """(function, source) of each ``setdiff1d``, each ``n1 + ny`` and each
    comprehension that filters a graph's vertices or its indices
    ``range(g.n)``, by the innermost class or function that holds it."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}".lstrip(".")
        if (isinstance(node, ast.comprehension) and node.ifs
                and re.search(r"\.vertices\b|range\(\w+\.n\)",
                              ast.unparse(node.iter))
                or getattr(node, "attr", None) == "setdiff1d"
                or isinstance(node, ast.BinOp) and {
                    getattr(node.left, "id", None),
                    getattr(node.right, "id", None)} == {"n1", "ny"}):
            yield where, ast.unparse(node)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    return list(visit(tree, ""))


def test_graph_split_is_the_one_complement_of_a_vertex_set():
    # every graph route takes an interface's or a killed set's complement
    # from Graph.split, and a decomposition's index sets from its own split,
    # so graph_heat, path_sum and cli hold no other complement; the one-step
    # kernel is read off the spectra of formula I, with no relative kernel
    trees = dict(modules())
    assert [(stem, where) for stem in ("graph_heat", "path_sum", "cli")
            for where, _ in complement_sources(trees[stem])] == [
        ("graph_heat", "Graph.split")]
    functions = {n.name: n for n in ast.walk(trees["graph_heat"])
                 if isinstance(n, ast.FunctionDef)}
    step = called(functions["one_step_interface_kernel"])
    assert "_glue_I_spectra" in step
    assert not {"relative_heat_kernel", "einsum"} & step


def test_one_checked_eigensolve_per_spectrum():
    # symlin is the exactly symmetric matrix and one checked LAPACK solve,
    # which returns its two arrays as they are: no wrapper type of the
    # result and no second path; graph_heat validates a Laplacian once, in
    # Graph.laplacian, and _spectrum hands out its spectrum on one path
    trees = dict(modules())
    symlin = trees["symlin"]
    assert [n.name for n in symlin.body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef))] == [
        "SymMatrix", "eigh"]
    assert exported(symlin) == {"SymMatrix", "eigh"}
    (sym,) = [n for n in symlin.body if getattr(n, "name", None) == "SymMatrix"]
    assert [f.name for f in sym.body if isinstance(f, ast.FunctionDef)] == [
        "__post_init__"]

    def returns(tree, name):
        (f,) = [n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == name]
        return [n.value for n in ast.walk(f) if isinstance(n, ast.Return)]

    (pair,) = returns(symlin, "eigh")
    assert isinstance(pair, ast.Tuple) and len(pair.elts) == 2
    graph_heat_tree = trees["graph_heat"]
    assert len(returns(graph_heat_tree, "_spectrum")) == 1
    assert [n.name for n in ast.walk(graph_heat_tree)
            if isinstance(n, ast.FunctionDef)
            and "SymMatrix" in called(n)] == ["laplacian"]


#: The caps that bound the one cache of the package, graph_heat._spectra.
CAPS = {"_SPECTRA_KEPT", "_SPECTRA_FLOATS"}
#: The methods by which a dict, list or set grows.
GROWS = {"setdefault", "update", "append", "add", "extend", "insert",
         "__setitem__"}


def containers(tree):
    """The module-level names bound to a dict, list or set, by display,
    comprehension or call."""
    kinds = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
             ast.SetComp)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and (
                isinstance(node.value, kinds)
                or isinstance(node.value, ast.Call) and getattr(
                    node.value.func, "id", getattr(node.value.func, "attr",
                                                   None))
                in {"dict", "list", "set", "OrderedDict", "defaultdict"}):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def unbounded_caches(tree):
    """Where a module keeps values with no bound: functools' cache, an
    lru_cache of maxsize None, and each store that grows a module-level
    dict, list or set in a function that does not read both CAPS.  A
    function that puts back the key it popped does not grow its cache."""
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom) and n.module == "functools":
            yield from (f"imports {a.name}" for a in n.names
                        if a.name == "cache")
        elif isinstance(n, ast.Attribute) and n.attr == "cache" and getattr(
                n.value, "id", None) == "functools":
            yield "functools.cache"
        elif isinstance(n, ast.Call) and getattr(
                n.func, "id", getattr(n.func, "attr", None)) == "lru_cache":
            size = [*n.args[:1], *(k.value for k in n.keywords
                                   if k.arg == "maxsize")]
            if any(isinstance(v, ast.Constant) and v.value is None
                   for v in size):
                yield "lru_cache(maxsize=None)"
    names = set(containers(tree))
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        read = {n.id for n in ast.walk(f) if isinstance(n, ast.Name)}
        popped = {(n.func.value.id, ast.dump(n.args[0])) for n in ast.walk(f)
                  if isinstance(n, ast.Call) and n.args
                  and getattr(n.func, "attr", None) == "pop"
                  and getattr(n.func.value, "id", None) in names}
        for n in ast.walk(f):
            if (isinstance(n, ast.Subscript) and isinstance(n.ctx, ast.Store)
                    and getattr(n.value, "id", None) in names):
                name, grows = n.value.id, (
                    n.value.id, ast.dump(n.slice)) not in popped
            elif (isinstance(n, ast.Call) and getattr(n.func, "attr", None)
                  in GROWS and getattr(n.func.value, "id", None) in names):
                name, grows = n.func.value.id, True
            else:
                continue
            if grows and not CAPS <= read:
                yield f"{f.name} grows {name}"


def test_every_module_cache_is_bounded():
    # a cache with no bound is a defect: the package keeps values in one
    # module-level dict, _spectrum's, bounded by two module constants that
    # no function rebinds
    trees = dict(modules())
    assert [(stem, where) for stem, tree in trees.items()
            for where in unbounded_caches(tree)] == []
    assert [(stem, name) for stem, tree in trees.items()
            for name in containers(tree) if any(
                getattr(n.value, "id", None) == name for n in ast.walk(tree)
                if isinstance(n, ast.Subscript)
                and isinstance(n.ctx, ast.Store))] == [
        ("graph_heat", "_spectra")]
    assert all(isinstance(getattr(graph_heat, cap), int)
               and getattr(graph_heat, cap) > 0 for cap in CAPS)
    assert not CAPS & {name for n in ast.walk(trees["graph_heat"])
                       if isinstance(n, ast.Global) for name in n.names}


@pytest.mark.parametrize("source,found", [
    ("import functools\n@functools.cache\ndef f(x): return x",
     ["functools.cache"]),
    ("from functools import cache\n@cache\ndef f(x): return x",
     ["imports cache"]),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\n"
     "def f(x): return x", ["lru_cache(maxsize=None)"]),
    ("import functools\nf = functools.lru_cache(None)(abs)",
     ["lru_cache(maxsize=None)"]),
    ("from functools import lru_cache\n@lru_cache(64)\ndef f(x): return x",
     []),
    ("_seen = {}\ndef f(x):\n    _seen[x] = x", ["f grows _seen"]),
    ("_seen = set()\ndef f(x):\n    _seen.add(x)", ["f grows _seen"]),
    ("_seen = dict()\ndef f(x):\n    _SPECTRA_KEPT\n    _seen[x] = x",
     ["f grows _seen"]),
    ("_seen = {}\ndef f(x):\n    _seen[x] = _seen.pop(x, None)", []),
    ("_seen = {}\ndef f(x, y):\n    _seen[y] = _seen.pop(x, None)",
     ["f grows _seen"]),
    ("_seen = {}\ndef f(x):\n    if len(_seen) < _SPECTRA_KEPT "
     "and _SPECTRA_FLOATS:\n        _seen[x] = x", []),
])
def test_an_unbounded_cache_is_found(source, found):
    assert list(unbounded_caches(ast.parse(source))) == found


def test_the_walk_forms_its_own_steps():
    # theta, the split of theta I - L into the steps that keep a layer and
    # those that advance it, and the Taylor orders kept are the walk's own:
    # no caller forms a step from the valencies (Graph.laplacian forms L)
    # or counts Poisson orders, and the path sums name no step, advance or
    # theta; a graph is built only through its checks, never by
    # object.__new__
    trees = dict(modules())

    def functions_that(test):
        return sorted(f"{stem}.{f.name}" for stem, tree in trees.items()
                      for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                      and any(test(n) for n in ast.walk(f)))

    assert functions_that(lambda n: isinstance(n, ast.Attribute)
                          and n.attr == "valencies") == [
        "graph_heat.laplacian", "graph_heat.uniformized_walk"]
    assert [stem for stem, tree in trees.items()
            if "_poisson_order" in called(tree)] == ["graph_heat"]
    assert functions_that(lambda n: isinstance(n, ast.Call) and getattr(
        n.func, "id", None) == "_poisson_order") == [
        "graph_heat.uniformized_walk"]
    assert {name for name in named(trees["path_sum"])
            if {"step", "advance", "theta"} & set(name.strip("_").split("_"))
            } == set()
    for stem, tree in modules((SRC, TESTS)):
        assert "__new__" not in called(tree), stem


LOADED = """
import contextlib, io, json, sys, types
import heatglue.cli
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            heatglue.cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, sorted(
    name for name in ("expmix", "graph_heat", "heat1d", "path_sum", "symlin")
    if type(sys.modules.get("heatglue." + name)) is types.ModuleType)]))
"""


@pytest.mark.parametrize("argv,ran", [
    ("", []),
    ("--help", []),
    ("verify --input intervals", ["heat1d"]),
    ("graph glue --input line3 --t 1", ["expmix", "graph_heat", "symlin"])],
    ids=["import", "help", "verify-intervals", "graph-glue"])
def test_a_command_runs_only_the_route_modules_its_cases_call(argv, ran):
    # the route modules are registered lazily by cli and run on their first
    # attribute access, so an import or --help runs none, a 1d problem set
    # none of the graph family and a graph gluing nothing of the 1d family
    # or of the path sums; a module has run once its lazy class is gone
    from conftest import fresh_python

    done = fresh_python(LOADED, *argv.split(), capture_output=True,
                        text=True, check=True)
    assert json.loads(done.stdout) == [0, ran]


PARSERS = """
import argparse, contextlib, io, json, sys
built = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
import heatglue.cli
counts = [len(built)]
for argv in (sys.argv[1:], ["ray", "glue", "--x", "0.8"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            heatglue.cli.main(argv)
        except SystemExit:
            pass
    counts.append(len(built))
print(json.dumps(counts))
"""


@pytest.mark.parametrize("argv", [
    "ray glue --x 0.8 --y 1.1 --t 0.6", "verify --input=intervals --tol 1e-8",
    "graph glue --input line3 --t 1 --method series --t 2"])
def test_a_well_formed_line_builds_no_parser(argv):
    # the command table reads a well-formed line, and argparse is built only
    # for a line that the table declines (here one without --y and --t), to
    # write its rejection: none at import, none for the line, then a parser
    # per command and per group
    from conftest import fresh_python

    done = fresh_python(PARSERS, *argv.split(), capture_output=True,
                        text=True, check=True)
    at_import, after_line, after_rejected = json.loads(done.stdout)
    assert (at_import, after_line) == (0, 0)
    assert after_rejected > 0


def test_one_reader_applies_the_rules_of_an_option():
    # cli._read alone applies an option's type, choices, default and
    # required rule: the line reader calls it and names none of them, and
    # the argparse parser hands no reading to a runner
    tree = dict(modules())["cli"]
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    line = functions["_read_line"]
    assert "_read" in called(line)
    assert not {"choices", "default", "type", "_REQUIRED"} & set(named(line))
    (defaults,) = [n for n in ast.walk(functions["_build"])
                   if isinstance(n, ast.Call)
                   and getattr(n.func, "attr", "") == "set_defaults"]
    assert [k.arg for k in defaults.keywords] == ["command"]
    assert not [n for n in ast.walk(functions["_parse"])
                if isinstance(n, ast.Return)]


def test_values_and_bound_of_the_series_are_one_walk(monkeypatch):
    walks = []
    walk = graph_heat.uniformized_walk

    def counted(*args, **split):
        walks.append(args)
        return walk(*args, **split)

    monkeypatch.setattr(graph_heat, "uniformized_walk", counted)
    line = graph_heat.Graph(("1", "2", "3"), (("1", "2"), ("2", "3")))
    graph_heat.glue_II_values(graph_heat.Decomposition(line, ("2",)), 1.0, 8)
    assert len(walks) == 1


def test_each_command_calls_its_case_runner():
    # one path from a command line to its reports: the table names the
    # runner that verify calls too, the options fill its parameters, and
    # no wrapper sits between them
    from heatglue import cli

    for words, run, options in cli._COMMANDS:
        params = inspect.signature(run).parameters
        assert {o.dest for o in options} <= params.keys(), words
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
            cli.main([*words.split(), "--help"])
        assert run.__doc__ in " ".join(out.getvalue().split()), words
    tree = dict(modules())["cli"]
    assert [f.name for f in tree.body if isinstance(f, ast.FunctionDef)
            and f.name.endswith("_cmd")] == []


def defs(tree, prefix=""):
    """The qualified name of every def in tree, as its code object gives
    it: ``Class.method``, ``function.<locals>.inner``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name
            yield from defs(node, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from defs(node, f"{prefix}{node.name}.")
        else:
            yield from defs(node, prefix)


def test_every_library_function_is_reached():
    # what no command and no gate runs goes: every def of the package is
    # entered by the README command lines or by gates 01-12, except in cli,
    # whose error and output paths the CLI tests run, and in the quadsim
    # stub, which only the benchmark tracer reads; the constructors of the
    # typed failures run where a route fails, which no gate makes it do
    import test_acceptance
    from test_cli import invoke, readme_commands

    wanted = {(stem, name) for stem, tree in modules()
              if stem not in ("cli", "quadsim") for name in defs(tree)
              if not (stem == "errors" and name.endswith(".__init__"))}
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            module = frame.f_globals.get("__name__", "")
            if module.startswith("heatglue."):
                entered.add((module.removeprefix("heatglue."),
                             frame.f_code.co_qualname))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for args in readme_commands():
            invoke(args)
        with contextlib.redirect_stdout(io.StringIO()):
            for name, gate in vars(test_acceptance).items():
                if name.startswith("test_gate_"):
                    gate()
    finally:
        sys.setprofile(previous)
    assert sorted(wanted - entered) == []


def test_a_verify_case_is_read_from_the_table_alone():
    # a case's fields, defaults, types and choices are those of its kind's
    # options in cli._COMMANDS: the verify path writes no default of its
    # own and reads no field by name but the case-only ones
    from heatglue import cli

    tree = dict(modules())["cli"]
    names = set(defined_names(tree))
    assert not {"_SUITE_OF_KIND", "_choice", "_METHODS", "_FORMULAS"} & names
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name in ("run_verify", "_verify_case", "_read",
                                "_reference")]
    assert len(functions) == 4
    fields = {o.flag.removeprefix("--") for c in cli._KINDS.values()
              for o in c.options}
    read = set()
    for node in (n for f in functions for n in ast.walk(f)):
        assert not (isinstance(node, ast.Constant)
                    and type(node.value) in (int, float)), ast.unparse(node)
        if isinstance(node, ast.Call) and getattr(node.func, "attr", "") \
                == "get":
            assert not any(isinstance(a, ast.Constant) for a in node.args[1:])
            target, key = node.func.value, node.args[0]
        elif isinstance(node, ast.Subscript):
            target, key = node.value, node.slice
        else:
            continue
        if getattr(target, "id", "") in ("case", "fields") \
                and isinstance(key, ast.Constant):
            read.add(key.value)
    assert read == {"id", "kind", "reference"}
    assert set(cli._ALIASES.values()) <= fields


def case_row(kind, entry):
    """The README's row of a verify case kind, from its table entry."""
    from heatglue import cli

    def shown(default):
        if default is cli._REQUIRED:
            return ""
        if default is None:
            return " (optional)"
        if isinstance(default, str):
            return f" `{default}`"
        return " " + ("2π" if default == 2 * math.pi else str(default))

    fields = ", ".join(f"`{o.flag[2:]}`{shown(o.default)}"
                       for o in entry.options if o.dest != "tol")
    params = inspect.signature(entry.run).parameters
    notes = ["`reference`"] if "reference" in params else []
    notes += [f"`{alias}` for `{name}`" for alias, name in cli._ALIASES.items()
              if f"--{name}" in {o.flag for o in entry.options}]
    cells = [f"`{kind}`", f"`{entry.name}`", fields, "; ".join(notes)]
    return ("| " + " | ".join(cells)).rstrip() + " |"


def test_the_readme_case_table_is_the_command_table():
    # each kind's row names exactly the fields and defaults of its table
    # entry, and as notes only the case-only fields and the aliases
    from heatglue import cli

    readme = (SRC.parents[1] / "README.md").read_text().splitlines()
    assert [line for line in readme if line.startswith("| `")
            and line.split("`")[1] in cli._KINDS] == [
        case_row(kind, entry) for kind, entry in cli._KINDS.items()]
