"""Statements of ``src/akhabit`` that the test suite never runs, and ``if`` tests that always
went one way, from the standard library alone.

    PYTHONPATH=src python tests/line_coverage.py [extra pytest arguments]

Runs the suite (``tests`` and ``perfbench``) in this process through
``pytest.main`` under a ``sys.settrace`` tracer that traces only the
package's own frames and records each line-to-line arc of a frame.  It
prints one ``path:line: source`` line per statement that never ran, and
their count.  Definitions, imports and docstrings are left out: they run
at import, before any test.  Then it prints one
``path:line: never true|never false: source`` line per ``if`` or
``elif`` whose test ran with one outcome only, and their count.  The
outcome is read from the arc that leaves the test's lines: into the
first statement of the body is true; into the ``else`` branch, or, with
no ``else``, anywhere else or out of the frame by a return, is false.  An
exception raised inside a test leaves no arc.  Code run in a child
process (the CLI through ``subprocess``) is not seen.  The tracer is
installed again at each test's setup and call, because Hypothesis
replaces the trace function while it explains a failure.

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

#: (from line, to line) pairs per file; 0 stands for entering a frame as a source
#: and for a return as a target, -1 for an exception as a source
arcs: dict[str, set[tuple[int, int]]] = {}


def _tracer(frame, event, arg):
    """Trace the arcs of the package's frames only; every other frame runs untraced."""
    filename = frame.f_code.co_filename
    if not filename.startswith(PREFIX):
        return None
    seen = arcs.setdefault(filename, set())
    last = 0

    def local(frame, event, arg):
        nonlocal last
        if event == "line":
            seen.add((last, frame.f_lineno))
            last = frame.f_lineno
        elif event == "exception":
            last = -1
        elif event == "return" and last > 0:
            seen.add((last, 0))
        return local

    return local


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


def entry_lines(node: ast.stmt) -> set[int]:
    """Lines on which running ``node`` can begin: a compound statement's header,
    and the entry lines of the first statement of its body."""
    body = getattr(node, "body", None)
    if isinstance(node, COMPOUND) and body:
        return set(range(node.lineno, body[0].lineno)) | entry_lines(body[0])
    return set(range(node.lineno, (node.end_lineno or node.lineno) + 1))


def outcomes(node: ast.If, seen: set[tuple[int, int]]) -> set[bool]:
    """The outcomes of ``node``'s test seen in the arcs ``seen``."""
    test = set(range(node.lineno, node.test.end_lineno + 1))
    true = entry_lines(node.body[0])
    false = entry_lines(node.orelse[0]) if node.orelse else None
    found = set()
    for src, dst in seen:
        if src not in test or dst in test:
            continue
        if dst in true:
            found.add(True)
        elif false is None or dst in false:
            found.add(False)
    return found


def never_run() -> list[tuple[Path, int]]:
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        ran = {dst for _, dst in arcs.get(str(path), ())}
        for line, lines in statements(ast.parse(path.read_text())):
            if ran.isdisjoint(lines):
                missed.append((path, line))
    return sorted(set(missed))


def one_way() -> list[tuple[Path, int, str]]:
    """(path, line, "never true" or "never false") of each if test that ran with one outcome."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        seen = arcs.get(str(path), set())
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.If) and len(went := outcomes(node, seen)) == 1:
                found.append((path, node.lineno, "never false" if True in went else "never true"))
    return sorted(found)


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

    def source(path: Path, line: int) -> str:
        return sources.setdefault(path, path.read_text().splitlines())[line - 1].strip()

    missed = never_run()
    for path, line in missed:
        print(f"{path.relative_to(ROOT)}:{line}: {source(path, line)}")
    print(f"{len(missed)} statements of src/akhabit never ran (pytest exit status {int(status)})")
    fixed = one_way()
    for path, line, verdict in fixed:
        print(f"{path.relative_to(ROOT)}:{line}: {verdict}: {source(path, line)}")
    print(f"{len(fixed)} if tests of src/akhabit went one way only")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
