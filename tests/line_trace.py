"""List the lines of ``src/simulatency`` that no test runs.

Usage, from the repository root::

    python tests/line_trace.py               # the default test run (tests, bench/tests)
    python tests/line_trace.py tests/test_core.py -k order   # any pytest arguments

The tests run in this process, through ``pytest.main``, under a trace
function set with ``sys.settrace`` and ``threading.settrace`` that records
each line run in a module of the package.  When they finish, the script
prints, for each module, the executable lines that no test ran, as
``path: 12, 30-31``.  The executable lines of a module are the lines of its
code objects, and of the code objects nested in them, as ``co_lines()``
gives them.  It needs only the standard library and pytest, and it exits
with pytest's exit code.

Subprocess runs are not traced: a line that only a test's child process
runs (the CLI run as a program, ``main`` with no root handler) is listed as
not run.  Tracing makes the tests several times slower.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "simulatency"


def executable_lines(path: Path) -> set[int]:
    """The lines of ``path`` that some code object of it runs."""
    lines: set[int] = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def traced_run(args: list[str], modules: list[Path]) -> tuple[int, dict[Path, set[int]]]:
    """pytest's exit code for ``args``, and the lines run in each of ``modules``."""
    ran: dict[Path, set[int]] = {path: set() for path in modules}
    by_filename: dict[str, set[int] | None] = {}  # a code object's file name -> its lines run

    def lines_of(filename: str) -> set[int] | None:
        if filename not in by_filename:
            by_filename[filename] = ran.get(Path(os.path.realpath(filename)))
        return by_filename[filename]

    def trace(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def ranges(lines: list[int]) -> str:
    """Sorted ``lines`` written as ``3, 5-7``."""
    runs: list[list[int]] = []
    for line in lines:
        if runs and line == runs[-1][1] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv: list[str]) -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    os.chdir(ROOT)
    code, ran = traced_run(argv, modules)
    for path in modules:
        missed = sorted(executable_lines(path) - ran[path])
        if missed:
            print(f"{path.relative_to(ROOT)}: {ranges(missed)}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
