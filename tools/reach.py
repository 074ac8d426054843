"""Line reach of a pytest run: the lines of `src/lowpan` that no test runs.

    PYTHONPATH=tools python -m pytest -p reach [pytest arguments]

A stdlib pytest plugin.  It traces every frame of a `src/lowpan` module
with `sys.settrace` and, after the run, prints each module's unreached
lines: those that hold code, by the `co_lines` of the module's code
objects, and never ran.  Lines that `ALLOWED` names, with the reason no
test can reach them, are listed apart from the unexpected ones.  The report
is a gate: a session whose tests all pass still exits 1 when a line is
unexpectedly unreached, or when an `ALLOWED` entry names more than one
place or has been reached or is gone.  It is meant for a run of the whole
suite; a run of part of it leaves lines unreached and fails.  Code run in
a subprocess is not seen.  The run is several times slower than without
the plugin.
"""

import ast
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lowpan"
# (module, enclosing function, source text) -> why no test reaches those lines.
# The text, stripped, is the opening line of a block, which names the lines
# of that block (its `else` and `except` branches included), or a statement
# directly in the function's body.  An entry must name one place.
ALLOWED = {
    ("netsim.py", "World._rx_lowpan", "if result.outcome is FragmentOutcome.DROPPED:"):
        "the world's deadline event removes a buffer before a late fragment finds it stale; "
        "`accept_fragment` keeps DROPPED for callers without one",
    ("cli.py", "<module>", 'if __name__ == "__main__":'): "only a run as a script reaches it",
}
# a module's path -> one flag per line number, set once the line runs; made
# before the run, so that recording a hit allocates nothing a test measuring
# its own allocations (tracemalloc) could count
_hits: dict[str, bytearray] = {
    str(path): bytearray(len(path.read_text(encoding="utf-8").splitlines()) + 1) for path in SRC.glob("*.py")
}


def _line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename][frame.f_lineno] = 1
    return _line


def _call(frame, event, arg):
    lines = _hits.get(frame.f_code.co_filename)
    if lines is None:
        return None
    lines[frame.f_lineno] = 1
    return _line


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _ranges(lines: list[int]) -> str:
    spans = []
    for line in lines:
        if spans and spans[-1][1] == line - 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _places(source: str) -> dict[int, tuple[str, str, int]]:
    """Each line of a statement -> the place `ALLOWED` names it by: the
    enclosing function (`<module>` outside any), the text of the innermost
    block around the line inside that function or else of the statement
    itself, and that text's line."""
    lines = source.splitlines()
    places = {}

    def visit(node, function, block):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            place = (function, lines[child.lineno - 1].strip(), child.lineno)
            for line in range(child.lineno, child.end_lineno + 1):
                places[line] = block or place
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if function == "<module>" else f"{function}.{child.name}", None)
            else:
                visit(child, function, place)

    visit(ast.parse(source), "<module>", None)
    return places


def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before any conftest or test module can import lowpan."""
    sys.settrace(_call)
    threading.settrace(_call)


# the report's lines, written at the session's end and printed in its summary
_report: list[str] = []


def pytest_sessionfinish(session):
    """Stop tracing and write the report; fail a session whose tests passed
    if a line is unexpectedly unreached or an `ALLOWED` entry is ambiguous,
    or has been reached or is gone."""
    sys.settrace(None)
    threading.settrace(None)
    write = _report.append
    allowed: dict[tuple[str, str, str], list[int]] = {}
    unexpected_total = 0
    for path, hit in sorted(_hits.items()):
        module, source = Path(path).name, Path(path).read_text(encoding="utf-8")
        missed = sorted(line for line in _code_lines(compile(source, path, "exec")) if line >= len(hit) or not hit[line])
        places = _places(source)
        named: dict[tuple[str, str, str], set[int]] = {}  # entry -> the lines of the places it names
        for function, text, first in places.values():
            if (module, function, text) in ALLOWED:
                named.setdefault((module, function, text), set()).add(first)
        unexpected = []
        for line in missed:
            key = (module, *places[line][:2]) if line in places else None
            if key in ALLOWED and len(named[key]) == 1:
                allowed.setdefault(key, []).append(line)
            else:
                unexpected.append(line)
        for key, firsts in named.items():
            if len(firsts) > 1:
                write(f"ambiguous allowlist entry {key}: names lines {_ranges(sorted(firsts))}")
        unexpected_total += len(unexpected)
        write(f"{module}: {len(unexpected)} unreached: {_ranges(unexpected) or '-'}")
    for (module, function, text), lines in allowed.items():
        write(f"allowlisted {module} {_ranges(lines)} ({function}): {ALLOWED[module, function, text]}")
    stale = ALLOWED.keys() - allowed.keys()  # an ambiguous entry is stale too: it allows no line
    for key in stale:
        write(f"allowlist entry reached or gone: {key}")
    write(f"unreached lines: {unexpected_total} unexpected, {sum(map(len, allowed.values()))} allowlisted")
    if unexpected_total or stale:
        write("line reach FAILED")
        if session.exitstatus == 0:  # pytest's OK; 1 is its TESTS_FAILED
            session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    terminalreporter.section("line reach of src/lowpan")
    for line in _report:
        terminalreporter.write_line(line)
