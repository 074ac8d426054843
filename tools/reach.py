"""Line reach of a pytest run: the lines of `src/lowpan` that no test runs.

    PYTHONPATH=tools python -m pytest -p reach [pytest arguments]

A stdlib pytest plugin.  It traces every frame of a `src/lowpan` module
with `sys.settrace` and, after the run, prints each module's unreached
lines: those that hold code, by the `co_lines` of the module's code
objects, and never ran.  Code run in a subprocess is not seen.  The run
is several times slower than without the plugin.
"""

import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lowpan"
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


def pytest_load_initial_conftests(early_config, parser, args):
    """Start tracing before any conftest or test module can import lowpan."""
    sys.settrace(_call)
    threading.settrace(_call)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    terminalreporter.section("line reach of src/lowpan")
    for path, hit in sorted(_hits.items()):
        code = compile(Path(path).read_text(encoding="utf-8"), path, "exec")
        missed = sorted(line for line in _code_lines(code) if line >= len(hit) or not hit[line])
        terminalreporter.write_line(f"{Path(path).name}: {len(missed)} unreached: {_ranges(missed) or '-'}")
