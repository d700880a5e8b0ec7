"""Module boundaries of the package: no private name crosses a module, no
module-level import goes unused, in the package or in its tests, and no
function of the package accepts a parameter it never reads."""

import ast
import pathlib

import heatglue

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


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield f"heatglue.{module}".rstrip(".") if node.level else module


def test_the_1d_kernels_use_no_quadrature():
    # route II and the rays are exact image-sum compositions: the 1d
    # module neither imports the quadrature module nor calls its levels
    tree = dict(modules())["heat1d"]
    assert "heatglue.quadsim" not in set(imported_modules(tree))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not names & {"quadsim", "conv_n", "inverse_pow_gaussian", "TimeFactor"}


def test_the_cli_builds_no_coefficient_tensor():
    # every graph report needs values at one t, which the assembled gluing
    # and the references give from eigendecompositions: the command line
    # neither imports nor names the coefficient-tensor routes
    tree = dict(modules())["cli"]
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.asname or a.name for n in ast.walk(tree)
              if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"glue_I", "KernelMatrix", "heat_kernel",
                        "evaluate_basis"}
