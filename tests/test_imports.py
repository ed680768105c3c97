"""Every library module uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sconekit"
# __init__.py imports names only to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


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


def test_gate_sees_an_unused_import():
    tree = ast.parse("from .syntax import Bool, ScopeError\nimport os.path\n__all__ = ['Bool']\n")
    assert unused_imports(tree) == ["ScopeError", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(ast.parse(path.read_text())) == [], path.name
