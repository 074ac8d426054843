"""The closed set of drop reasons a world can trace.

A reason reaches `World._drop` in one of two ways: as a string literal in
`netsim.py`, or as `exc.reason` inside an `except` clause whose classes all
belong to one of `ERROR_FAMILIES`, each of which declares its `reason`.
`drop_reasons()` derives the set from those two sources and fails if
`netsim.py` hands `_drop` a reason any other way.  Shared by the README
guard (`test_netsim.py`) and the counter laws (`counter_laws.py`).
"""

import ast
from functools import cache
from pathlib import Path

from lowpan import netsim
from lowpan.frame import PayloadOverBudget
from lowpan.gateway import GatewayError
from lowpan.ipv6 import PacketError
from lowpan.reassembly import ReassemblyError

ERROR_FAMILIES = (GatewayError, PacketError, ReassemblyError, PayloadOverBudget)


def _family(cls: type) -> list[type]:
    """`cls` and all its subclasses."""
    return [cls, *(sub for child in cls.__subclasses__() for sub in _family(child))]


def _caught(handler: ast.ExceptHandler) -> list[type]:
    names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [getattr(netsim, name.id) for name in names]


def _reason_arguments(tree: ast.Module):
    """(reason argument, innermost `except` clause around it) for every
    mention of `_drop` in `tree`: a call `self._drop(node, reason, ...)` or
    a queued event `(self._drop, node, reason, ...)`."""
    handler_of = {}
    for handler in ast.walk(tree):  # breadth first, so an inner clause overwrites an outer one
        if isinstance(handler, ast.ExceptHandler):
            for inner in ast.walk(handler):
                handler_of[id(inner)] = handler
    heads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            heads[id(node.func)] = node.args
        elif isinstance(node, ast.Tuple) and node.elts:
            heads[id(node.elts[0])] = node.elts[1:]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_drop":
            args = heads.get(id(node))
            assert args is not None and len(args) >= 2, f"line {node.lineno}: `_drop` not called or queued with a reason"
            yield args[1], handler_of.get(id(args[1]))


@cache
def drop_reasons(source: str | None = None) -> frozenset[str]:
    """Every reason `World._drop` can be handed: the literals in `source`
    (by default `netsim.py`) and the `reason` each class of `ERROR_FAMILIES`
    declares.  Names in `except` clauses resolve in `netsim`."""
    tree = ast.parse(Path(netsim.__file__).read_text(encoding="utf-8") if source is None else source)
    literals = set()
    for arg, handler in _reason_arguments(tree):
        where = f"line {arg.lineno}: {ast.unparse(arg)}"
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            literals.add(arg.value)
            continue
        assert isinstance(arg, ast.Attribute) and arg.attr == "reason", f"{where} is neither a literal nor `<name>.reason`"
        assert handler is not None and isinstance(arg.value, ast.Name) and arg.value.id == handler.name, (
            f"{where} is not the exception its `except` clause binds"
        )
        for cls in _caught(handler):
            assert issubclass(cls, ERROR_FAMILIES), f"{where}: {cls.__name__} declares no reason"
    return frozenset(literals | {cls.reason for family in ERROR_FAMILIES for cls in _family(family)})
