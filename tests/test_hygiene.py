"""Source hygiene: every module imports only names it uses, states its
checks with explicit raises rather than ``assert``, which ``python -O``
strips, raises ``AssertionError`` only where a ROADMAP item owns the check,
and leaves canonical form to the ``UPReal`` constructor; the
package's ``__all__`` lists exactly the names ``__init__.py`` imports;
every entry point that the benchmark's tracer names still exists; and the
naive oracles in ``tests/gen.py`` use no private name of the library, and
import from it only classes, exception types, constants and the pinned
index coders.

Parsed with ``ast`` so the check needs nothing beyond the standard library.
``__init__.py`` is skipped by the import and ``up_canonical`` checks
because its imports are the package's exports.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
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


def export_mismatches(source: str) -> list[str]:
    """Where ``__all__`` and the imported names disagree: names imported
    but not listed, listed but not imported, and listed more than once."""
    tree = ast.parse(source)
    (listed,) = (
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    imported = set(imported_names(tree))
    counts = Counter(listed)
    return sorted(
        [f"{name} not listed" for name in imported - counts.keys()]
        + [f"{name} not imported" for name in counts.keys() - imported]
        + [f"{name} listed {n} times" for name, n in counts.items() if n > 1]
    )


def test_all_lists_exactly_the_imports():
    assert export_mismatches((SRC / "__init__.py").read_text()) == []


def test_detector_sees_unlisted_unimported_and_repeated_exports():
    source = (
        "from __future__ import annotations\n"
        "from pkg.a import kept, unlisted\n"
        "import pkg.b as b\n"
        "__all__ = ['kept', 'b', 'gone', 'kept']\n"
    )
    assert export_mismatches(source) == [
        "gone not imported", "kept listed 2 times", "unlisted not listed"
    ]


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


def invariant_raises(source: str) -> list[tuple[str, int]]:
    """(enclosing function, line) of each ``raise AssertionError``: a
    check that no input should reach, outside every verdict and exit code."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


#: Each function allowed to raise AssertionError, with the ROADMAP item
#: that owns the check.  An invariant that its caller or its own
#: construction already settles is deleted rather than listed.
INVARIANT_OWNERS = {
    ("silver", "brute_obstruction"): "item 1: survivors counted, not derived",
}


def test_invariant_raises_have_owners():
    found = {
        (path.stem, where)
        for path in SOURCES
        for where, _ in invariant_raises(path.read_text())
    }
    assert found == set(INVARIANT_OWNERS)


def test_detector_sees_invariant_raises_by_function():
    source = (
        "class C:\n"
        "    def m(self):\n"
        "        raise AssertionError('in a method')\n"
        "def f(x):\n"
        "    def g():\n"
        "        raise AssertionError\n"
        "    if x:\n"
        "        raise ValueError('not an invariant')\n"
        "    raise\n"
        "raise AssertionError('at module level')\n"
    )
    assert invariant_raises(source) == [("C.m", 3), ("f.g", 6), ("", 10)]


def names_of(source: str, target: str) -> list[int]:
    """Lines that name ``target``: a read, an attribute, or an import."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == target:
            lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == target:
            lines.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(target in (alias.name, alias.asname) for alias in node.names):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name
)
def test_no_module_recanonicalises(path):
    # Every UPReal is canonical from construction on; up_canonical is the
    # identity and kept only as public API.
    assert names_of(path.read_text(), "up_canonical") == []


def test_detector_sees_imports_calls_and_attributes():
    source = (
        "from shrinkwrap.core import up_canonical as canon\n"
        "import shrinkwrap.core as core\n"
        "def f(x):\n"
        "    return core.up_canonical(x), up_canonical(x)\n"
        "up_canonical_note = 'up_canonical'\n"
    )
    assert sorted(names_of(source, "up_canonical")) == [1, 4, 4]


def private_library_names(source: str) -> list[str]:
    """Private names the source takes from the library: imported from a
    ``shrinkwrap`` module, or read as an attribute of a name that a
    ``shrinkwrap`` import binds."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shrinkwrap":
            for alias in node.names:
                bound.add(alias.asname or alias.name)
                if alias.name.startswith("_"):
                    found.append(f"{node.module}.{alias.name} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "shrinkwrap":
                    bound.add(alias.asname or "shrinkwrap")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"{ast.unparse(node)} (line {node.lineno})")
    return sorted(found)


def test_oracles_use_no_private_library_name():
    # The naive oracles stay independent of the library they check: a
    # private helper shared with the library would agree with it by
    # construction.
    assert private_library_names((Path(__file__).resolve().parent / "gen.py").read_text()) == []


def test_detector_sees_private_imports_and_attributes():
    source = (
        "import shrinkwrap.core\n"
        "import shrinkwrap.codec as cc\n"
        "from shrinkwrap import wrapper\n"
        "from shrinkwrap.wrapper import TreeFamily, _split\n"
        "from other import _private, module\n"
        "def f(x):\n"
        "    x._own, module._theirs, wrapper.__name__\n"
        "    return shrinkwrap.core._reduce, cc._dumps(x), TreeFamily._walk, wrapper._split\n"
    )
    assert private_library_names(source) == [
        "TreeFamily._walk (line 8)",
        "cc._dumps (line 8)",
        "shrinkwrap.core._reduce (line 8)",
        "shrinkwrap.wrapper._split (line 4)",
        "wrapper._split (line 8)",
    ]


#: The pinned index coders: the naive oracles share them with the library
#: because they are the coding itself, not a way of computing it.
PINNED_CODERS = frozenset({"growth", "pair_of", "shape_code"})


def library_helpers(source: str) -> list[str]:
    """What the source imports from the library besides classes, exception
    types, upper-case constants and the pinned coders: a function or other
    callable, or a whole ``shrinkwrap`` module, which gives every name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shrinkwrap":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name)
                if not (
                    isinstance(value, type)
                    or (alias.name.isupper() and not callable(value))
                    or alias.name in PINNED_CODERS
                ):
                    found.append(f"{node.module}.{alias.name} (line {node.lineno})")
        elif isinstance(node, ast.Import):
            found += [
                f"{alias.name} (line {node.lineno})"
                for alias in node.names
                if alias.name.split(".")[0] == "shrinkwrap"
            ]
    return sorted(found)


def test_oracles_import_only_classes_constants_and_coders():
    # A library function in an oracle would check the library against
    # itself; the data classes, constants and pinned coders are shared.
    assert library_helpers((Path(__file__).resolve().parent / "gen.py").read_text()) == []


def test_detector_sees_functions_modules_and_lowercase_values():
    source = (
        "import shrinkwrap.codec as cc\n"
        "from shrinkwrap import wrapper\n"
        "from shrinkwrap.core import ZERO, BIT_DIGITS, UPReal, growth, up_sorted, shape_code\n"
        "from shrinkwrap.codec import CodecError, KINDS, decode\n"
        "from shrinkwrap.sacks import MAX_HORIZON, stem_or_path\n"
        "from shrinkwrap.wrapper import TreeFamily, full_scope\n"
        "from other import helper\n"
    )
    assert library_helpers(source) == [
        "shrinkwrap.codec (line 1)",
        "shrinkwrap.codec.decode (line 4)",
        "shrinkwrap.core.up_sorted (line 3)",
        "shrinkwrap.sacks.stem_or_path (line 5)",
        "shrinkwrap.wrapper (line 2)",
        "shrinkwrap.wrapper.full_scope (line 6)",
    ]


def load_tracer():
    """``perfbench/tracer.py`` imported from its file, as the benchmark runs it."""
    path = SRC.parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_entry_points_exist():
    # The tracer indexes its counters by qualified name; renaming or removing
    # a traced function or constructor would otherwise fail only the traced
    # benchmark run, with a KeyError.
    tracer = load_tracer()
    targets = {qual for qual, *_ in tracer._targets()}
    named = {fn for fns in tracer.TIMED_GROUPS.values() for fn in fns}
    named |= set(tracer.CALL_COUNTS.values()) | set(tracer.HOOKS)
    assert sorted(named - targets) == []
    assert "sacks.HorizonPerfectTree.__post_init__" in targets
