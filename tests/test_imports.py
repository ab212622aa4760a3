"""Every name a ``gcdeform`` module imports is used in that module.

A removal that leaves its import behind fails here.  ``__init__.py`` imports
to re-export and ``__future__`` imports switch features, so both are skipped.
A name counts as used when the module reads it, in code or in an annotation,
string annotations included.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gcdeform"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used(tree: ast.AST) -> set[str]:
    """The names read in ``tree``, parsing string annotations as expressions."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for inner in ast.walk(annotation):
                if isinstance(inner, ast.Constant) and isinstance(inner.value, str):
                    names |= used(ast.parse(inner.value, mode="eval"))
    return names


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Optional, Sequence\ndef f(x: 'Sequence[int]'): pass\n")
    assert set(imported(tree)) - used(tree) == {"Optional"}


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    unused = {n: line for n, line in imported(tree).items() if n not in used(tree)}
    assert not unused, f"{name}: imported but unused (name: line) {unused}"
