"""Module boundaries of the package, read from its source.

Each module reaches another through public names only, so a private helper
is known in the module that defines it and nowhere else.  The datum's local
table is the sharpest case: `heckediv._local` has one caller,
`heckediv.local_tables`, and every other reader goes through that.  In
`classifier`, a datum's eigenvalues are read through `heckediv.epsilon`.
The README's map from the paper's objects to the code names live code.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cuspidal"
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


def test_no_function_imports_a_module_of_the_package():
    # Each module imports the package's modules it uses at its top.
    nested = [
        (path.stem, function.name)
        for path in MODULES
        for function in ast.walk(_tree(path))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if (
            isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("cuspidal"))
        )
        or (
            isinstance(node, ast.Import)
            and any(alias.name.startswith("cuspidal") for alias in node.names)
        )
    ]
    assert nested == []


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


def test_no_module_of_the_package_imports_fractions():
    # Every rational is an integer over a denominator: Lambda(N) and its
    # inverse, the series as 24 E, the residues over rad(N), and even
    # `class_order`'s degree message.
    imports = [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "fractions" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "fractions"
    ]
    assert imports == []


def test_the_readme_map_names_the_code():
    from cuspidal.cli import _ARGUMENTS

    # The Layout table's cells, one list per object row (past the header rows).
    section = (ROOT / "README.md").read_text().split("## Layout\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.strip("|").split(" | ") for line in section.splitlines() if line.startswith("|")][2:]
    assert len(rows) == 9 and all(len(row) == 4 for row in rows)
    names = [name for row in rows for name in re.findall(r"`(\w+)\.(\w+)`", " ".join(row[1:]))]
    assert len(names) > len(rows)
    for module, name in names:
        found = importlib.import_module(module if module == "reference" else f"cuspidal.{module}")
        assert hasattr(found, name), f"{module}.{name}"
    commands = {word for row in rows for word in re.findall(r"`(\w+)`", " ".join(row[2:]))}
    assert commands == set(_ARGUMENTS)


def test_every_top_level_definition_is_used_in_src():
    # Dead code: a top-level function or class that nothing in src/ names
    # as a name or an attribute.  Imports and `__all__` strings do not count.
    defined = {
        (path.stem, node.name)
        for path in MODULES
        for node in _tree(path).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    assert sorted((module, name) for module, name in defined if name not in used) == []
