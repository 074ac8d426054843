"""Every name a module of the package, a demo or a bench script imports is
used in that file and is not another module's `_`-prefixed name, and every
function, method and class the package defines is named outside the tests;
a method only by being read as an attribute."""

import ast
from pathlib import Path

import pytest

import lowpan

PACKAGE = Path(lowpan.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
ROOT = Path(__file__).parents[1]
USERS = [PACKAGE, ROOT / "demos", ROOT / "bench"]  # what may call the package, tests aside
SOURCES = {name: PACKAGE / name for name in MODULES} | {
    f"{root}/{path.name}": path for root in ("demos", "bench") for path in sorted((ROOT / root).glob("*.py"))
}
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


@pytest.mark.parametrize("module", SOURCES)
def test_module_has_no_unused_imports(module):
    assert unused_imports(SOURCES[module].read_text()) == []


def private_imports(source: str) -> list[str]:
    """The `_`-prefixed names `source` imports from another module, with their lines."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")
    ]


def test_private_imports_finds_an_underscored_name():
    source = "from __future__ import annotations\nimport _thread\nfrom .m import _a, b\nfrom .n import __doc__\n"
    assert private_imports(source) == ["_a (line 3)"]


@pytest.mark.parametrize("module", SOURCES)
def test_module_imports_no_private_name(module):
    assert private_imports(SOURCES[module].read_text()) == []


def frozen_dataclasses(source: str) -> list[str]:
    """The classes `source` decorates with `dataclass(frozen=True)`, with their lines."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if isinstance(decorator, ast.Call)
        and getattr(decorator.func, "id", getattr(decorator.func, "attr", None)) == "dataclass"
        and any(
            keyword.arg == "frozen" and getattr(keyword.value, "value", None) is True
            for keyword in decorator.keywords
        )
    ]


def test_frozen_dataclasses_finds_each_spelling():
    source = (
        "import dataclasses\nfrom dataclasses import dataclass\n"
        "@dataclass(frozen=True)\nclass A: pass\n"
        "@dataclasses.dataclass(eq=True, frozen=True)\nclass B: pass\n"
        "@dataclass\nclass C: pass\n"
        "@dataclass(frozen=False)\nclass D: pass\n"
        "@dataclass(eq=False)\nclass E: pass\n"
    )
    assert frozen_dataclasses(source) == ["A (line 4)", "B (line 6)"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_immutable_values_are_checked_tuples_not_frozen_dataclasses(module):
    # one idiom for an immutable value: a `frame.CheckedTuple`
    assert frozen_dataclasses((PACKAGE / module).read_text()) == []


def typed_named_tuples(source: str) -> list[str]:
    """The classes `source` bases on `typing.NamedTuple`, with their lines."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)
        for base in node.bases if getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
    ]


def test_typed_named_tuples_finds_each_spelling():
    source = (
        "import typing\nfrom typing import NamedTuple\nfrom collections import namedtuple\n"
        "class A(NamedTuple):\n    x: int\n"
        "class B(typing.NamedTuple):\n    x: int\n"
        "class C(namedtuple('C', 'x')): pass\n"
        "class D(tuple): pass\n"
    )
    assert typed_named_tuples(source) == ["A (line 4)", "B (line 6)"]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_immutable_values_are_not_typed_named_tuples(module):
    # a value is a `frame.CheckedTuple`; `netsim.TraceRecord`, a trace row, a plain `collections.namedtuple`
    assert typed_named_tuples((PACKAGE / module).read_text()) == []


def named(source: str) -> tuple[set[str], set[str]]:
    """The attributes `source` reads, and all its names: those attributes,
    names, import aliases and string constants."""
    read, names = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return read, names


def unused_definitions(sources: dict[str, str], users: list[str]) -> list[str]:
    """The functions, methods and classes `sources` define that no text in
    `users` names, as `module:name (line)`; dunders and `EXEMPT` aside.
    A method is named only where it is read as an attribute."""
    found = [named(text) for text in users]
    read = set().union(*(r for r, _ in found))
    used = set().union(*(n for _, n in found))
    unused = []
    for module, source in sources.items():
        tree = ast.parse(source)
        methods = {
            node for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name in EXEMPT or (name.startswith("__") and name.endswith("__")):
                    continue
                if name not in (read if node in methods else used):
                    unused.append(f"{module}:{name} (line {node.lineno})")
    return unused


def test_unused_definitions_finds_a_method_only_defined():
    source = "class A:\n    def __init__(self): self.f()\n    def f(self): pass\n    def g(self): pass\n"
    assert unused_definitions({"m.py": source}, [source, "A"]) == ["m.py:g (line 4)"]
    # a string names a function or class, but not a method
    assert unused_definitions({"m.py": source}, [source, "x = 'A'"]) == ["m.py:g (line 4)"]
    assert unused_definitions({"m.py": source}, [source, "A", "x = {'g': g}", "a.g = 1"]) == ["m.py:g (line 4)"]
    assert unused_definitions({"m.py": source}, [source, "A", "a.g()"]) == []


def test_every_definition_is_named_outside_the_tests():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    users = [
        path.read_text()
        for root in USERS
        for path in sorted(root.rglob("*.py"))
        if "tests" not in path.relative_to(root).parts
    ]
    assert unused_definitions(sources, users) == []
