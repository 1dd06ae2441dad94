"""List the statements of ``src/sipwigner`` that the test suite never runs.

Usage (from the repository root):

    python3 tools/line_coverage.py [PYTEST_ARGS ...]

The tests run in this process under ``sys.settrace`` and
``threading.settrace``, with pytest's default arguments
``-q --continue-on-collection-errors`` unless others are given.  Only frames
whose code lives in ``src/sipwigner`` are traced line by line.  Every AST
statement of those files that no line event reached is then printed as
``file:line  source``, followed by one summary line.  Docstrings, ``def``,
``class``, ``import``, ``global`` and ``nonlocal`` statements are skipped:
they run at import or not at all.  A simple statement counts as run when any
of its lines ran, a compound one when its header or the first line of its
body did.

The tool reports coverage, not test verdicts: it exits 0 whether the tests
pass or fail.  It needs no coverage package.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sipwigner"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)
DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def run_traced(pytest_args: list[str]) -> dict[str, set[int]]:
    """Run pytest with line tracing on the package; {filename: lines run}."""
    prefix = str(PACKAGE) + "/"
    hits: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        hits.setdefault(name, set()).add(frame.f_lineno)
        return local

    import pytest

    src = str(ROOT / "src")
    sys.path.insert(0, src)  # and for the tests' subprocesses too
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return hits


def _lines(node: ast.stmt) -> range:
    """The lines whose events show the statement ran: a compound statement's
    header and the first line of its body (``try:`` itself has no event),
    else all of the statement."""
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(node.lineno, body[0].lineno + 1)
    return range(node.lineno, node.end_lineno + 1)


def missed(path: Path, ran: set[int]) -> list[int]:
    """First lines of the statements in ``path`` that never ran."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and not isinstance(node, SKIPPED)
                  and id(node) not in docstrings and not ran.intersection(_lines(node)))


def main(argv: list[str]) -> int:
    hits = run_traced(argv or ["-q", "--continue-on-collection-errors"])
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in missed(path, hits.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}  {source[line - 1].strip()}")
            total += 1
    print(f"{total} statements in {PACKAGE.relative_to(ROOT)} never ran")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
