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
        main(["verify", "--input", "intervals"],
             standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code
reports = len(out.getvalue().splitlines())
print(json.dumps([code, tracer.layer_metrics(rec, reports)]))
"""


def test_the_benchmark_tracer_still_installs():
    # perfbench/tracer.py reads modules["heatglue.quadsim"] and hooks its
    # TimeFactor; a traced run fails with KeyError if the stub goes first
    from conftest import fresh_python

    tracer = SRC.parents[1] / "perfbench" / "tracer.py"
    done = fresh_python(TRACED_VERIFY, str(tracer), capture_output=True,
                        text=True, check=True)
    code, metrics = json.loads(done.stdout.splitlines()[-1])
    assert code == 0
    assert metrics["quadsim.conv_n.calls"] == 0
    assert metrics["cli.reports"] > 0


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


def test_values_and_bound_of_the_series_are_one_walk(monkeypatch):
    walks = []
    walk = graph_heat.uniformized_walk

    def counted(*args, **split):
        walks.append(args)
        return walk(*args, **split)

    monkeypatch.setattr(graph_heat, "uniformized_walk", counted)
    line = graph_heat.Graph(("1", "2", "3"), (("1", "2"), ("2", "3")))
    kern = graph_heat.glue_II(graph_heat.Decomposition(line, ("2",)), 8)
    kern.evaluate_with_bound(1.0)
    assert len(walks) == 1
    assert not hasattr(kern, "bound")


def test_each_command_calls_its_case_runner():
    # one path from a command line to its reports: the table names the
    # runner that verify calls too, the options fill its parameters, and
    # no wrapper sits between them
    from heatglue import cli

    for words, _, run, options, command in cli._COMMANDS:
        params = inspect.signature(run).parameters
        assert {o.dest for o in options} <= params.keys(), words
        if not command:
            continue
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
    # a kind's suite is one of verify --suite
    (verify,) = [c for c in cli._COMMANDS if c.name == "verify"]
    assert set(verify.options[0].choices) == {
        "all", *(c.suite for c in cli._KINDS.values())}


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
    notes = [] if entry.parser else ["no command"]
    if "reference" in params:
        notes.append("`reference`")
    notes += [f"`{alias}` for `{name}`" for alias, name in cli._ALIASES.items()
              if f"--{name}" in {o.flag for o in entry.options}]
    cells = [f"`{kind}`", f"`{entry.name}`" if entry.parser else "none",
             fields, "; ".join(notes)]
    return ("| " + " | ".join(cells)).rstrip() + " |"


def test_the_readme_case_table_is_the_command_table():
    # each kind's row names exactly the fields and defaults of its table
    # entry, and as notes only the case-only fields and the aliases
    from heatglue import cli

    readme = (SRC.parents[1] / "README.md").read_text().splitlines()
    assert [line for line in readme if line.startswith("| `")
            and line.split("`")[1] in cli._KINDS] == [
        case_row(kind, entry) for kind, entry in cli._KINDS.items()]
