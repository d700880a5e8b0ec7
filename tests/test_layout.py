"""Module boundaries of the package: no private name crosses a module."""

import ast
import pathlib

import heatglue

SRC = pathlib.Path(heatglue.__file__).resolve().parent

# graph_heat's exact gluing convolves expmix tables directly.  Debt of
# ROADMAP item 2: these go once the table arithmetic has a public home.
ALLOWED = {
    ("graph_heat", "heatglue.expmix", "_table_add"),
    ("graph_heat", "heatglue.expmix", "_table_convolve"),
    ("graph_heat", "heatglue.expmix", "_table_from_mix"),
    ("graph_heat", "heatglue.expmix", "_table_to_mix"),
    ("graph_heat", "heatglue.expmix", "_universe_from_rates"),
}


def private_imports():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level:
                module = f"heatglue.{module}".rstrip(".")
            if not module.startswith("heatglue.") or module == f"heatglue.{path.stem}":
                continue
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield path.stem, module, alias.name


def test_no_private_name_is_imported_across_modules():
    found = set(private_imports())
    assert found - ALLOWED == set()


def test_allowed_private_imports_are_still_in_use():
    # an entry left here after its import is gone would let it come back
    assert ALLOWED <= set(private_imports())
