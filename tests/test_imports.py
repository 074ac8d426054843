"""Every name a module of the package imports is used in that module, and
every function, method and class the package defines is named outside the
tests."""

import ast
from pathlib import Path

import pytest

import lowpan

PACKAGE = Path(lowpan.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ROOT = Path(__file__).parents[1]
USERS = [PACKAGE, ROOT / "demos", ROOT / "bench"]  # what may call the package, tests aside
EXEMPT = {"_make"}  # the namedtuple hook `CheckedTuple` overrides


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


def named(source: str) -> set[str]:
    """The names, attributes, import aliases and string constants in `source`."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unused_definitions(sources: dict[str, str], users: list[str]) -> list[str]:
    """The functions, methods and classes `sources` define that no text in
    `users` names, as `module:name (line)`; dunders and `EXEMPT` aside."""
    used = set().union(*(named(text) for text in users))
    unused = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name not in used and name not in EXEMPT and not (name.startswith("__") and name.endswith("__")):
                    unused.append(f"{module}:{name} (line {node.lineno})")
    return unused


def test_unused_definitions_finds_a_method_only_defined():
    source = "class A:\n    def __init__(self): self.f()\n    def f(self): pass\n    def g(self): pass\n"
    assert unused_definitions({"m.py": source}, [source, "A"]) == ["m.py:g (line 4)"]
    assert unused_definitions({"m.py": source}, [source, "x = 'g'"]) == ["m.py:A (line 1)"]


def test_every_definition_is_named_outside_the_tests():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = [
        path.read_text()
        for root in USERS
        for path in sorted(root.rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]
    assert unused_definitions(sources, users) == []
