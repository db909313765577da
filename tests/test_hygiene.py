"""Source hygiene: every module imports only names it uses, and states its
checks with explicit raises rather than ``assert``, which ``python -O``
strips.

Parsed with ``ast`` so the check needs nothing beyond the standard library.
``__init__.py`` is skipped by the import check because its imports are the
package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shrinkwrap"
SOURCES = sorted(SRC.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with the line binding each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_sees_unused_and_string_annotation_uses():
    source = (
        "from __future__ import annotations\n"
        "import itertools\n"
        "from typing import Optional, Sequence\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join('a')\n"
    )
    assert unused_imports(source) == ["Sequence (line 3)", "itertools (line 2)"]


def assert_statements(source: str) -> list[int]:
    """Lines of the ``assert`` statements in a module."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_detector_sees_nested_asserts_but_not_raises():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        assert x > 0, 'positive'\n"
        "    raise AssertionError('assert is a word here')\n"
        "assert f\n"
    )
    assert sorted(assert_statements(source)) == [3, 5]
