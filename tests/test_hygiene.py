"""Source hygiene of the package: no imports inside functions, none unused,
no runtime ``assert``, no function or class that nothing names.

Each module of ``src/dmlat`` is parsed with ``ast``. An ``import`` inside a
function body hides a dependency from the top of the module; a module-level
imported name that nothing reads is dead code, in ``tests/`` and ``demos/``
as well, ``__init__.py`` included. ``__future__`` imports are exempt. In a
fresh interpreter, ``import dmlat``, ``dmlat.record`` and ``dmlat.catalog``
and the catalog's derived parameters and cone angles load neither numpy nor
``dmlat.arithmetic`` nor ``dmlat.moves``. An ``assert`` vanishes under
``python -O``, so a check in the package must raise instead. A module-level
function or class whose name no file under ``src/``, ``tests/``, ``demos/``
or ``perfbench/`` reads is dead code too. Only ``sampling.fill_uniform``
calls a drawing method of a numpy ``Generator``, and only
``sampling.fill_sectors`` calls ``fill_uniform``, so that every sampled check
draws through the one proposal of ``dmlat.sampling``. Only
``polyhedron.in_arcs``, the one arc rule, and ``domain.vertices_D`` read an
argument with ``np.angle``, ``np.arctan2`` or ``math.atan2``.
Every field of a record class of the package, a ``dmlat.record.Record``
subclass, is read as an attribute somewhere under those four folders; a
field that nothing reads is dead data. The detector finds all 16 record
classes, and no module of the package imports ``dataclasses``.
Every parameter of a function in the package is read in its body, except
those of ``UNREAD``, each listed with the reason it is kept. A tolerance, a
float in (0, 1e-3), is written only in the table of module-level assignments
of ``arithmetic.py``; every other module reads it from there by name.
Every name that ``perfbench/`` or ``demos/`` imports from ``dmlat``, at the
top of a module or inside a function, exists, so that a rename in the
package fails here rather than when the benchmark runs.
A single-copy vertex name, ``t1`` to ``t14``, is written as a string only in
``polyhedron.VERTEX_LINES``, ``domain._VERT_D_TABLE`` and
``domain.boundary_null_vertices``; every other list of vertices, such as a
side's, is derived from their lines.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmlat

MODULES = sorted(Path(dmlat.__file__).parent.glob("*.py"))
# The modules whose imports must all be read.
IMPORTERS = (MODULES + sorted(Path(__file__).parent.glob("*.py"))
             + sorted((Path(__file__).parents[1] / "demos").glob("*.py")))
READERS = sorted(path for folder in ("src", "tests", "demos", "perfbench")
                 for path in (Path(__file__).parents[1] / folder).rglob("*.py"))
# The scripts outside the package that import it.
CLIENTS = sorted(path for folder in ("perfbench", "demos")
                 for path in (Path(__file__).parents[1] / folder).glob("*.py"))
IMPORTS = (ast.Import, ast.ImportFrom)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# A single-copy vertex name.
VERTEX_NAME = re.compile(r"t([1-9]|1[0-4])")
# The module-level definitions that may write one, per module.
VERTEX_TABLES = {"polyhedron.py": {"VERTEX_LINES"},
                 "domain.py": {"_VERT_D_TABLE", "boundary_null_vertices"}}
# The methods of a numpy Generator that draw numbers.
DRAWING = ({name for name in dir(np.random.Generator) if not name.startswith("_")}
           - {"bit_generator", "spawn"})


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


def attributes_loaded(tree: ast.Module) -> set[str]:
    """Every attribute name the module reads: ``x.name`` in a load, not a store."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def record_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """The record classes of the module: each class with a ``Record`` base or
    a ``@dataclass`` decorator, plain or called, by name or through a
    module."""
    def named(expr: ast.expr, name: str) -> bool:
        func = expr.func if isinstance(expr, ast.Call) else expr
        return name in (getattr(func, "id", None), getattr(func, "attr", None))

    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and (any(named(base, "Record") for base in node.bases)
                 or any(named(decorator, "dataclass") for decorator in node.decorator_list))]


def unread_fields(tree: ast.Module, read: set[str]) -> list[str]:
    """``Class.field`` of every field of a record class of the module whose
    name is not in ``read``."""
    return [f"{node.name}.{stmt.target.id}" for node in record_classes(tree)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in read]


def calls(tree: ast.Module, hit, allowed: frozenset[str]) -> list[str]:
    """``function:line`` of every call whose callee expression ``hit``
    accepts, outside the functions named in ``allowed``; module-level code
    is ``<module>``."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and where not in allowed
                    and hit(child.func)):
                found.append(f"{where}:{child.lineno}")
            visit(child, child.name if isinstance(child, (*FUNCTIONS, ast.ClassDef))
                  else where)
    visit(tree, "<module>")
    return found


def random_draws(tree: ast.Module, allowed: frozenset[str] = frozenset()) -> list[str]:
    """``function:line`` of every call of a drawing method (``DRAWING``)
    outside the functions named in ``allowed``. A call on ``np`` or
    ``numpy`` itself, such as ``np.power``, is a numpy function, not a draw.
    """
    return calls(tree, lambda func: (
        isinstance(func, ast.Attribute) and func.attr in DRAWING
        and not (isinstance(func.value, ast.Name)
                 and func.value.id in ("np", "numpy"))), allowed)


def fill_uniform_calls(tree: ast.Module, allowed: frozenset[str] = frozenset()) -> list[str]:
    """``function:line`` of every call of ``fill_uniform``, by name or as
    an attribute, outside the functions named in ``allowed``."""
    return calls(tree, lambda func: "fill_uniform" in (
        getattr(func, "id", None), getattr(func, "attr", None)), allowed)


def unread_parameters(tree: ast.Module) -> list[str]:
    """``function:parameter`` of every parameter, of a function or a lambda,
    that the function's body never reads; a read inside a nested function
    counts."""
    found = []
    for func in ast.walk(tree):
        if isinstance(func, (*FUNCTIONS, ast.Lambda)):
            args = func.args
            params = [a for a in (*args.posonlyargs, *args.args, args.vararg,
                                  *args.kwonlyargs, args.kwarg) if a is not None]
            body = func.body if isinstance(func.body, list) else [func.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [f"{getattr(func, 'name', '<lambda>')}:{a.arg}"
                      for a in params if a.arg not in read]
    return found


def small_floats(tree: ast.Module, table: bool = False) -> list[int]:
    """Line numbers of every float literal in (0, 1e-3), outside the
    module-level assignments when ``table``. A docstring is a string, so
    a number written in one is not a literal."""
    skip = {id(node) for stmt in tree.body if table and isinstance(stmt, ast.Assign)
            for node in ast.walk(stmt)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < node.value < 1e-3 and id(node) not in skip]


def runtime_asserts(tree: ast.Module) -> list[int]:
    """Line numbers of every ``assert`` statement."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_function_local_imports(path):
    assert function_local_imports(_parse(path)) == []


@pytest.mark.parametrize("path", IMPORTERS, ids=[p.name for p in IMPORTERS])
def test_no_unused_imports(path):
    assert unused_imports(_parse(path)) == []


def test_exact_core_imports_no_numpy():
    script = ("import sys\nimport dmlat\nimport dmlat.record\nimport dmlat.catalog\n"
              "from dmlat.catalog import catalog, cone_angles, derive_params\n"
              "for sig in catalog():\n    derive_params(sig), cone_angles(sig)\n"
              "print(sorted({'numpy', 'dmlat.arithmetic', 'dmlat.moves'} & set(sys.modules)))\n")
    path = os.pathsep.join([str(Path(dmlat.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_detectors_see_both_faults():
    tree = ast.parse("import os\nfrom x import y as z\n"
                     "def f():\n    import sys\n    return z\n")
    assert function_local_imports(tree) == ["f:4"]
    assert unused_imports(tree) == ["os:1"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_draws_only_in_fill_uniform(path):
    allowed = frozenset({"fill_uniform"} if path.name == "sampling.py" else ())
    assert random_draws(_parse(path), allowed) == []


def test_random_draw_detector():
    tree = ast.parse("import numpy as np\nrng = np.random.default_rng(0)\n"
                     "x = rng.normal() + np.random.uniform()\n"
                     "def fill(rng, buf):\n    rng.random(out=buf)\n"
                     "def f(g):\n    return np.power(g.integers(3), 2)\n")
    assert random_draws(tree, frozenset({"fill"})) == ["<module>:3", "<module>:3", "f:7"]
    assert random_draws(tree) == ["<module>:3", "<module>:3", "fill:5", "f:7"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_fill_uniform_only_in_fill_sectors(path):
    allowed = frozenset({"fill_sectors"} if path.name == "sampling.py" else ())
    assert fill_uniform_calls(_parse(path), allowed) == []


def test_fill_uniform_call_detector():
    # A reference that is not a call, as in mock's wraps=, is no call.
    tree = ast.parse("import dmlat.sampling as s\nfrom dmlat.sampling import fill_uniform\n"
                     "def fill_sectors(rng, buf):\n    return fill_uniform(rng, buf)\n"
                     "def box(rng, buf):\n    return s.fill_uniform(rng, buf)\n"
                     "f = fill_uniform\nfill_uniform(None, None)\n")
    assert fill_uniform_calls(tree, frozenset({"fill_sectors"})) == ["box:6", "<module>:8"]
    assert fill_uniform_calls(tree) == ["fill_sectors:4", "box:6", "<module>:8"]


# The functions that read an argument: the one arc rule, and the vertex table,
# which reports each vertex's argument.
ARGUMENT_READERS = {"polyhedron.py": frozenset({"in_arcs"}),
                    "domain.py": frozenset({"vertices_D"})}


def argument_calls(tree: ast.Module, allowed: frozenset[str] = frozenset()) -> list[str]:
    """``function:line`` of every call of ``np.angle``, ``np.arctan2`` or
    ``math.atan2``, through the module or by a bare ``atan2`` or
    ``arctan2``, outside the functions named in ``allowed``."""
    return calls(tree, lambda func: (
        (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
         and (func.value.id, func.attr) in {("np", "angle"), ("numpy", "angle"),
                                            ("np", "arctan2"), ("numpy", "arctan2"),
                                            ("math", "atan2")})
        or getattr(func, "id", None) in ("atan2", "arctan2")), allowed)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_arguments_read_only_by_the_arc_rule(path):
    assert argument_calls(_parse(path), ARGUMENT_READERS.get(path.name, frozenset())) == []


def test_argument_call_detector():
    # np.angle named but not called is no call; the method x.angle is not
    # numpy's.
    tree = ast.parse("import math\nimport numpy as np\nfrom math import atan2\n"
                     "def in_arcs(h):\n    return np.angle(h)\n"
                     "def rule(h, x):\n    return np.arctan2(h.imag, h.real), x.angle()\n"
                     "f = np.angle\ny = math.atan2(1, 0) + atan2(0, 1)\n")
    assert argument_calls(tree, frozenset({"in_arcs"})) == [
        "rule:7", "<module>:9", "<module>:9"]
    assert argument_calls(tree) == ["in_arcs:5", "rule:7", "<module>:9", "<module>:9"]


# The parameters that no body may read, each with the reason it is kept.
UNREAD = {
    "record.py": {
        "__setattr__:value": "the signature of object.__setattr__; a record refuses "
                             "every assignment",
    },
    "domain.py": {
        "glueing_check:seed": "the check is exact and draws nothing; "
                              "perfbench's glue_samelines operation passes it",
        "samelines_check:seed": "the check is exact and draws nothing; "
                                "perfbench's glue_samelines operation passes it",
    },
}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_parameter_is_read(path):
    assert unread_parameters(_parse(path)) == sorted(UNREAD.get(path.name, {}))


def test_unread_parameter_detector():
    # g only assigns x; z is read in a nested function, w in a lambda.
    tree = ast.parse("def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
                     "def g(x):\n    x = 1\n    return 0\n"
                     "class C:\n    def m(self, z, w):\n"
                     "        def inner():\n            return z\n"
                     "        return inner, lambda v: w\n")
    assert sorted(unread_parameters(tree)) == [
        "<lambda>:v", "f:args", "f:b", "f:c", "g:x", "m:self"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_tolerances_only_in_the_table(path):
    assert small_floats(_parse(path), table=path.name == "arithmetic.py") == []


def test_small_float_detector():
    tree = ast.parse('TOL = 1e-9\ndef f(x):\n    """Is x below 1e-7?"""\n'
                     "    if x < 1e-7:\n        return 0.5 * TOL\n")
    assert small_floats(tree) == [1, 4]
    assert small_floats(tree, table=True) == [4]


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


def test_every_record_field_is_read():
    read = set().union(*(attributes_loaded(_parse(path)) for path in READERS))
    assert [f"{path.name}:{field}" for path in MODULES
            for field in unread_fields(_parse(path), read)] == []


def test_the_sixteen_records_are_found():
    # The field rule covers every record class of the package, so that it
    # cannot pass on none.
    found = [node.name for path in MODULES for node in record_classes(_parse(path))]
    assert len(found) == 16, found


def test_no_module_imports_dataclasses():
    # The records derive from dmlat.record.Record, which compiles nothing
    # when its module is imported.
    assert [path.name for path in MODULES for node in ast.walk(_parse(path))
            if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"] == []


def test_unread_field_detector():
    # y is only stored, z only named as a variable; B is no record, C's
    # decorator is called through the module, and D derives from Record.
    module = ast.parse("from dataclasses import dataclass\nimport dataclasses\n"
                       "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int\n"
                       "    z: int = 0\nclass B:\n    w: int\n"
                       "@dataclasses.dataclass\nclass C:\n    v: int\n"
                       "class D(Record, eq=False):\n    u: int\n    x: int\n")
    reader = ast.parse("a.x\nb.y = 1\nz = 2\nprint(z)\n")
    assert unread_fields(module, attributes_loaded(reader)) == ["A.y", "A.z", "C.v", "D.u"]


def vertex_names(tree: ast.Module, allowed: frozenset[str] = frozenset()) -> list[str]:
    """``definition:line`` of every string literal that is a vertex name
    (``VERTEX_NAME``), outside the module-level functions, classes and
    assigned names in ``allowed``; other module-level code is ``<module>``."""
    found = []
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [
            getattr(stmt, "target", None)]
        names = [stmt.name] if isinstance(stmt, (*FUNCTIONS, ast.ClassDef)) else [
            t.id for t in targets if isinstance(t, ast.Name)]
        if allowed.intersection(names):
            continue
        found += [f"{(names or ['<module>'])[0]}:{node.lineno}" for node in ast.walk(stmt)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and VERTEX_NAME.fullmatch(node.value)]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_vertex_names_only_in_the_tables(path):
    allowed = frozenset(VERTEX_TABLES.get(path.name, ()))
    assert vertex_names(_parse(path), allowed) == []


def test_vertex_name_detector():
    # t15, t0 and t are no vertex names; a dict key, an annotated table,
    # a function, a class body and a bare module-level string are all seen.
    tree = ast.parse('T = {"t1": ("L_01", "t15")}\nU: dict = {"v1": "t14"}\n'
                     'def f():\n    return "t3", "t0", "t"\nclass C:\n    x = "t10"\n'
                     '"t2"\n')
    assert vertex_names(tree, frozenset({"T"})) == ["U:2", "f:4", "C:6", "<module>:7"]
    assert vertex_names(tree) == ["T:1", "U:2", "f:4", "C:6", "<module>:7"]


def package_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(module, name, line) of every import from ``dmlat`` anywhere in the
    module: ``from dmlat.m import f`` asks ``dmlat.m`` for ``f``, and
    ``import dmlat.m`` asks ``dmlat`` for ``m``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dmlat":
            found += [(node.module, alias.name, node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(*alias.name.rsplit(".", 1), node.lineno)
                      for alias in node.names if alias.name.startswith("dmlat.")]
    return found


def missing_package_names(tree: ast.Module) -> list[str]:
    """``module.name:line`` of every name that the module imports from
    ``dmlat`` and that is neither an attribute nor a submodule of its
    module; ``module:line`` when the module itself is missing."""
    missing = []
    for module, name, line in package_imports(tree):
        try:
            mod = importlib.import_module(module)
        except ModuleNotFoundError:
            missing.append(f"{module}:{line}")
            continue
        if not (hasattr(mod, name) or hasattr(mod, "__path__")
                and importlib.util.find_spec(f"{module}.{name}")):
            missing.append(f"{module}.{name}:{line}")
    return missing


@pytest.mark.parametrize("path", CLIENTS, ids=[p.name for p in CLIENTS])
def test_imported_package_names_exist(path):
    assert missing_package_names(_parse(path)) == []


def test_missing_package_name_detector(monkeypatch):
    # A misspelt name, a missing module and a missing submodule; the names
    # that exist, functions and submodules alike, pass.
    tree = ast.parse("import dmlat.cli\nfrom dmlat import catalog\n"
                     "def f():\n    from dmlat.verification import apply_degeneration\n"
                     "    from dmlat.verificaton import euler_characteristic\n"
                     "    import dmlat.tables\n")
    assert missing_package_names(tree) == [
        "dmlat.verification.apply_degeneration:4", "dmlat.verificaton:5",
        "dmlat.tables:6"]
    # Renaming a function the benchmark imports inside a function fails it.
    run = _parse(Path(__file__).parents[1] / "perfbench" / "run.py")
    assert missing_package_names(run) == []
    monkeypatch.delattr(importlib.import_module("dmlat.verification"),
                        "apply_degenerations")
    assert [entry.split(":")[0] for entry in missing_package_names(run)] == [
        "dmlat.verification.apply_degenerations"]
