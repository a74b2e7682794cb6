"""Source hygiene of the package: no imports inside functions, none unused,
no runtime ``assert``, no function or class that nothing names.

Each module of ``src/dmlat`` is parsed with ``ast``. An ``import`` inside a
function body hides a dependency from the top of the module; a module-level
imported name that nothing reads is dead code, in ``tests/`` as well.
``__future__`` imports and the re-exports of ``__init__.py`` are exempt. An
``assert`` vanishes under ``python -O``, so a check in the package must raise
instead. A module-level function or class whose name no file under ``src/``,
``tests/``, ``demos/`` or ``perfbench/`` reads is dead code too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import dmlat

MODULES = sorted(Path(dmlat.__file__).parent.glob("*.py"))
# The modules whose imports must all be read: the re-exports are exempt.
IMPORTERS = [p for p in MODULES + sorted(Path(__file__).parent.glob("*.py"))
             if p.name != "__init__.py"]
READERS = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                 for path in (Path(__file__).parents[1] / folder).rglob("*.py"))
IMPORTS = (ast.Import, ast.ImportFrom)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def function_local_imports(tree: ast.Module) -> list[str]:
    """``name:line`` of every import statement inside a function body."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, FUNCTIONS):
            found += [f"{func.name}:{node.lineno}"
                      for node in ast.walk(func) if isinstance(node, IMPORTS)]
    return found


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, IMPORTS):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in bound.items() if name not in read]


class _Reader(ast.NodeVisitor):
    """Collects the names a module reads as variables or attributes.

    A function's reads of its own parameters are not counted, so that a
    parameter does not stand in for a module-level definition of that name.
    """

    def __init__(self) -> None:
        self.read: set[str] = set()
        self.params: list[set[str]] = [set()]

    def visit_FunctionDef(self, node) -> None:
        args = {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}
        self.params.append(self.params[-1] | args)
        self.generic_visit(node)
        self.params.pop()

    visit_AsyncFunctionDef = visit_Lambda = visit_FunctionDef

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.params[-1]:
            self.read.add(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.read.add(node.attr)
        self.generic_visit(node)


def names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads as a variable or an attribute."""
    reader = _Reader()
    reader.visit(tree)
    return reader.read


def unnamed_definitions(tree: ast.Module, read: set[str]) -> list[str]:
    """Module-level functions and classes whose names are not in ``read``."""
    return [node.name for node in tree.body
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and node.name not in read]


def runtime_asserts(tree: ast.Module) -> list[int]:
    """Line numbers of every ``assert`` statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_local_imports(path):
    assert function_local_imports(_parse(path)) == []


@pytest.mark.parametrize("path", IMPORTERS, ids=[p.name for p in IMPORTERS])
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


def test_detectors_see_both_faults():
    tree = ast.parse("import os\nfrom x import y as z\n"
                     "def f():\n    import sys\n    return z\n")
    assert function_local_imports(tree) == ["f:4"]
    assert unused_imports(tree) == ["os:1"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_runtime_asserts(path):
    assert runtime_asserts(_parse(path)) == []


def test_assert_detector():
    tree = ast.parse("assert x\nclass C:\n    def f(self):\n        assert self\n")
    assert runtime_asserts(tree) == [1, 4]


def test_every_definition_is_named():
    read = set().union(*(names_read(_parse(path)) for path in READERS))
    assert [f"{path.name}:{name}" for path in MODULES
            for name in unnamed_definitions(_parse(path), read)] == []


def test_unnamed_definition_detector():
    # f is never read; D is only assigned; E is only imported; h is read
    # only as a parameter of k.
    module = ast.parse("def f():\n    return g()\ndef g(): ...\n"
                       "class C: ...\nclass D: ...\nD = 1\nclass E: ...\n"
                       "def h(): ...\ndef k(h):\n    return h\nk(1)\n")
    reader = ast.parse("from m import C, E\nimport m\nC()\nm.k\n")
    read = names_read(module) | names_read(reader)
    assert unnamed_definitions(module, read) == ["f", "D", "E", "h"]
