"""A pytest plugin that fails the run when a package line runs in no test.

Run as ``PYTHONPATH=src:tests python -m pytest -q -p linetrace`` on the
whole suite. It records each line of ``formation_forge``'s modules that
runs, through ``sys.settrace`` from the start of the test run, and at the
end prints each executable line that never ran as ``path:line: source``,
one a line, followed by their count; any such line makes the run exit 1.
A line is executable when a code object compiled from its module maps an
instruction to it, outside the body of an ``if __name__ == "__main__":``
block, which only a fresh interpreter runs. A line that only tests in a
fresh interpreter reach lists as unrun too, so it needs an in-process test
as well. The trace makes the suite 2 to 3 times slower. Only the main
thread is traced.
"""

import ast
import importlib.util
import os
import sys
from pathlib import Path

import pytest

# found on the path without importing the package, whose import is traced too
PACKAGE_DIR = Path(importlib.util.find_spec("formation_forge").origin).resolve().parent
_ran = set()
_files = {}  # each code filename seen: its real path if a package module's, else ""
UNRUN = pytest.StashKey[list]()  # the session's unrun lines, on its config


def _trace(frame, event, arg):
    """The global tracer: trace lines only in frames of the package's modules."""
    filename = _files.get(frame.f_code.co_filename)
    if filename is None:
        path = os.path.realpath(frame.f_code.co_filename)
        filename = _files[frame.f_code.co_filename] = (
            path if os.path.dirname(path) == str(PACKAGE_DIR) else ""
        )
    if not filename:
        return None

    def local(frame, event, arg):
        if event == "line":
            _ran.add((filename, frame.f_lineno))
        return local

    return local


def executable_lines(source, filename):
    """The line numbers that some code object compiled from ``source`` runs."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: the module's entry
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main_block_lines(source):
    """The line numbers of the bodies of ``source``'s ``if __name__ == "__main__":`` blocks."""
    return {
        line
        for node in ast.parse(source).body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for line in range(node.body[0].lineno, node.end_lineno + 1)
    }


def unrun_lines(ran):
    """``(path, line, source)`` for each executable package line not in ``ran``."""
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        filename = str(path)
        for line in sorted(executable_lines(source, filename) - main_block_lines(source)):
            if (filename, line) not in ran:
                found.append((path, line, text[line - 1].strip()))
    return found


def pytest_configure(config):
    sys.settrace(_trace)


def pytest_sessionfinish(session):
    sys.settrace(None)
    found = session.config.stash[UNRUN] = unrun_lines(_ran)
    if found and session.exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter):
    found = terminalreporter.config.stash[UNRUN]
    terminalreporter.write_sep("=", "formation_forge lines that no test ran in this process")
    for path, line, text in found:
        terminalreporter.write_line(f"{os.path.relpath(path)}:{line}: {text}")
    terminalreporter.write_line(f"{len(found)} lines")
