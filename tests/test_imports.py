"""Every library and test module uses each name it imports; every library module
imports from each module once, imports no private name of another, keeps no
__all__ of its own and reads nothing from the process environment; only models
knows the environment's cells, and only syntax reads a context's definitions."""

import ast
from pathlib import Path

import pytest

from sconekit.models import Env

SRC = Path(__file__).resolve().parent.parent / "src" / "sconekit"
# __init__.py imports names only to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import in tree but never read, nor listed in __all__."""
    imported = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            imported += [alias.asname or alias.name for alias in stmt.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
            used |= {e.value for e in stmt.value.elts if isinstance(e, ast.Constant)}
    return sorted(name for name in imported if name not in used)


def _sources(stmt: ast.ImportFrom) -> set[str]:
    """The relative modules stmt imports from: .X for `from .X import ...` and for `from . import X`."""
    dots = "." * stmt.level
    if stmt.module is None:
        return {dots + alias.name for alias in stmt.names}
    return {dots + stmt.module}


def local_reimports(tree: ast.Module) -> list[str]:
    """Names a function imports from a relative module that the top level already imports from.

    A function-level import of a module the top level does not import (a lazy import) passes.
    """
    top = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level:
            top |= _sources(stmt)
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.ImportFrom) and stmt.level and _sources(stmt) & top:
                    found |= {alias.name for alias in stmt.names}
    return sorted(found)


def private_imports(tree: ast.Module) -> list[str]:
    """Underscore-prefixed names tree imports from a relative module."""
    found = []
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.level:
            found += [alias.name for alias in stmt.names if alias.name.startswith("_")]
    return sorted(found)


def environment_reads(tree: ast.Module) -> list[str]:
    """Uses of os.environ, os.getenv or os.putenv in tree, as attributes of os or imported from it."""
    names = {"environ", "getenv", "putenv"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in names:
                found.append(f"os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"os.{alias.name}" for alias in node.names if alias.name in names]
    return sorted(found)


def test_gate_sees_an_unused_import():
    tree = ast.parse("from .syntax import Bool, ScopeError\nimport os.path\n__all__ = ['Bool']\n")
    assert unused_imports(tree) == ["ScopeError", "os"]


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text())) == [], path.name


def test_gate_sees_a_function_level_reimport():
    tree = ast.parse(
        "from . import nbe\nfrom .syntax import Bool\n"
        "def f():\n    from .syntax import Var\n    def g():\n        from . import nbe\n"
        "def lazy():\n    from . import canonicity\n    from .models import STANDARD\n"
    )
    assert local_reimports(tree) == ["Var", "nbe"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_reimports_a_top_level_module(path):
    assert local_reimports(ast.parse(path.read_text())) == [], path.name


def test_gate_sees_a_private_import():
    tree = ast.parse("from .syntax import Bool, _map_vars\nfrom . import _helpers\nfrom os import _exit\n")
    assert private_imports(tree) == ["_helpers", "_map_vars"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name(path):
    assert private_imports(ast.parse(path.read_text())) == [], path.name


def test_gate_sees_an_environment_read():
    tree = ast.parse(
        "import os\nfrom os import getenv, path\n"
        "n = int(os.environ.get('N', 1))\nos.putenv('N', '2')\nos.path.join('a')\n"
    )
    assert environment_reads(tree) == ["os.environ", "os.getenv", "os.putenv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_reads_the_environment(path):
    assert environment_reads(ast.parse(path.read_text())) == [], path.name


def all_assignments(tree: ast.Module) -> list[int]:
    """The lines where tree assigns __all__, by =, annotated = or +=."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        if any(getattr(t, "id", None) == "__all__" for t in targets):
            found.append(node.lineno)
    return found


def test_gate_sees_an_all_assignment():
    tree = ast.parse("__all__ = ['a']\nall_ = []\n__all__: list = []\n__all__ += ['b']\nx.__all__ = []\n")
    assert all_assignments(tree) == [1, 3, 4]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_package_lists_its_public_names(path):
    """sconekit/__init__.py's __all__ is the one list of public names."""
    assert all_assignments(ast.parse(path.read_text())) == [], path.name


def env_cell_uses(tree: ast.Module) -> list[str]:
    """Where tree names models.Env, the environment cell class, or reads one of its fields."""
    fields = set(Env.__slots__)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == Env.__name__:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name == Env.__name__:
            found.append(f"import {node.name}")
        elif isinstance(node, ast.Attribute) and (node.attr == Env.__name__ or node.attr in fields):
            found.append(f".{node.attr}")
    return sorted(found)


def test_gate_sees_an_environment_cell():
    tree = ast.parse(
        "from .models import Env\nfrom . import models\n"
        "env = models.Env(v, e)\nx = env.tail.head if env.tail else Env\nn = len(env)\n"
    )
    assert env_cell_uses(tree) == [".Env", ".head", ".tail", ".tail", "Env", "import Env"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "models.py"], ids=lambda path: path.name)
def test_only_models_knows_the_environment_cells(path):
    """Other modules build environments with models.env_of and Env's methods, and read them by len and iteration."""
    assert env_cell_uses(ast.parse(path.read_text())) == [], path.name


def values_reads(tree: ast.Module) -> list[int]:
    """The lines where tree reads a values attribute other than to call it, as ctx.values but not d.values()."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "values" and id(node) not in called
    )


def test_gate_sees_a_definitions_read():
    tree = ast.parse("for k, v in d.values():\n    pass\nvs = ctx.values\nn = len(ctx.values[1:])\n")
    assert values_reads(tree) == [3, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "syntax.py"], ids=lambda path: path.name)
def test_only_syntax_reads_a_contexts_definitions(path):
    """Other modules read a context's definitions through Context.bindings and Context.unfold."""
    assert values_reads(ast.parse(path.read_text())) == [], path.name
