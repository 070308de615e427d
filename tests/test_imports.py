"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "tangles"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _imported(tree):
    """Each name an import binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{module}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert not unused
