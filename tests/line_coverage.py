"""Statements of ``src/akhabit`` that the test suite never runs, from the standard library alone.

    PYTHONPATH=src python tests/line_coverage.py [extra pytest arguments]

Runs the suite (``tests`` and ``perfbench``) in this process through
``pytest.main`` under a ``sys.settrace`` line tracer that traces only the
package's own frames, then prints one ``path:line: source`` line per
statement that never ran, and their count.  Definitions, imports and
docstrings are left out: they run at import, before any test.  Code run
in a child process (the CLI through ``subprocess``) is not seen.  The
tracer is installed again at each test's setup and call, because
Hypothesis replaces the trace function while it explains a failure.

The name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "akhabit"
PREFIX = str(PACKAGE) + "/"

#: statements that run at import or compile to no code of their own
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal)
COMPOUND = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith, ast.Try, ast.Match)

ran: dict[str, set[int]] = {}


def _local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _tracer(frame, event, arg):
    """Trace the lines of the package's frames only; every other frame runs untraced."""
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    ran.setdefault(filename, set())
    return _local


class _Retrace:
    """Install the tracer again before each test's setup and call."""

    def pytest_runtest_setup(self, item):
        sys.settrace(_tracer)

    def pytest_runtest_call(self, item):
        sys.settrace(_tracer)


def _is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def statements(tree: ast.Module):
    """(first line, lines that count as running it) of every statement but definitions,
    imports and docstrings; a compound statement runs when its header or its body does."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED) or _is_docstring(node):
            continue
        if isinstance(node, COMPOUND):
            end = node.end_lineno
        else:
            end = node.end_lineno or node.lineno
        yield node.lineno, range(node.lineno, end + 1)


def never_run() -> list[tuple[Path, int]]:
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        seen = ran.get(str(path), set())
        for line, lines in statements(ast.parse(path.read_text())):
            if seen.isdisjoint(lines):
                missed.append((path, line))
    return sorted(set(missed))


def main(argv: list[str]) -> int:
    sys.settrace(_tracer)
    try:
        status = pytest.main(
            ["-q", "-p", "no:cacheprovider", f"--rootdir={ROOT}", str(ROOT / "tests"), str(ROOT / "perfbench"), *argv],
            plugins=[_Retrace()],
        )
    finally:
        sys.settrace(None)
    sources = {}
    missed = never_run()
    for path, line in missed:
        text = sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements of src/akhabit never ran (pytest exit status {int(status)})")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
