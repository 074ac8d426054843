"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import lowpan

PACKAGE = Path(lowpan.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but never references, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in imported.items() if name not in used]


def test_unused_imports_finds_a_name_never_referenced():
    source = "from __future__ import annotations\nimport os.path\nfrom re import sub as s, match\nmatch(s)\n"
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("module", MODULES)
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
