"""Module boundaries of the package, read from its source.

Each module reaches another through public names only, so a private helper
is known in the module that defines it and nowhere else.  The datum's local
table is the sharpest case: `heckediv._local` has one caller,
`heckediv.local_tables`, and every other reader goes through that.  In
`classifier`, a datum's eigenvalues are read through `heckediv.epsilon`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cuspidal"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_package_has_modules():
    assert {path.stem for path in MODULES} >= {"heckediv", "classlattice", "classifier", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    private = [
        f"{'.' * node.level}{node.module or ''}.{alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("cuspidal"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_the_local_table_has_one_caller():
    callers = [
        (path.stem, function.name)
        for path in MODULES
        for function in ast.walk(_tree(path))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_local"
    ]
    assert callers == [("heckediv", "local_tables")]


def test_classifier_reads_eigenvalues_through_epsilon():
    # Only `enumerate_data`, which creates the data, reads the (m, d_part)
    # encoding through `parts`; the helpers ask `heckediv.epsilon`.
    tree = _tree(SRC / "classifier.py")
    callers: dict[str, set[str]] = {"parts": set(), "epsilon": set()}
    for function in ast.walk(tree):
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in callers:
                    callers[node.func.id].add(function.name)
    assert callers == {
        "parts": {"enumerate_data"},
        "epsilon": {"normalize_datum", "_hypothesis_ok", "_new_candidate"},
    }
