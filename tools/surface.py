"""Print the size of ``src/sipwigner``: per module, then in total.

Usage (from the repository root):

    python3 tools/surface.py [DIR] [--against REF]

Columns, each read from the source text and its AST:

* ``lines``: physical lines;
* ``code``: lines that hold code, so neither blank, comment-only nor part of a
  docstring;
* ``stmts``: AST statements, docstrings excluded;
* ``nodes``: AST nodes of every kind, as ``ast.walk`` visits them;
* ``settable``: defaulted parameters (of functions and lambdas) plus
  dataclass fields with a default, shown as ``params + fields = total``.
  Each is a value a caller may leave out or set.

``DIR`` defaults to the ``src/sipwigner`` next to this file.  ``--against
REF`` prints only the totals: first those of the ``src/sipwigner`` of the git
commit ``REF``, which it extracts with ``git archive`` into a temporary
directory, then those of ``DIR``.  The tool needs nothing outside the
standard library besides ``git`` and ``tar`` for ``--against``, and exits 0
unless ``REF`` cannot be extracted.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import subprocess
import tempfile
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sipwigner"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree: ast.AST) -> list[ast.Expr]:
    """The docstring statements of the module, its classes and functions."""
    return [node.body[0] for node in ast.walk(tree)
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None]


def _code_lines(text: str, docstrings: list[ast.Expr]) -> int:
    """Lines holding a token other than a comment, outside the docstrings."""
    skipped = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skipped:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for doc in docstrings:
        lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _settable(tree: ast.AST) -> tuple[int, int]:
    """(defaulted parameters, defaulted dataclass fields)."""
    params = fields = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            params += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            fields += sum(isinstance(s, ast.AnnAssign) and s.value is not None for s in node.body)
    return params, fields


def measure(path: Path) -> tuple[int, int, int, int, int, int]:
    """(lines, code lines, statements, nodes, defaulted params, defaulted fields)."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    docstrings = _docstrings(tree)
    stmts = sum(isinstance(node, ast.stmt) for node in ast.walk(tree)) - len(docstrings)
    nodes = sum(1 for _ in ast.walk(tree))
    return (len(text.splitlines()), _code_lines(text, docstrings), stmts, nodes,
            *_settable(tree))


def _modules(package: Path) -> list[tuple[str, tuple]]:
    """One row per module of ``package``, then the ``total`` row."""
    rows = [(path.name, measure(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", tuple(map(sum, zip(*(r for _, r in rows))))))
    return rows


def _print(rows: list[tuple[str, tuple]]) -> None:
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}  {'stmts':>6}  {'nodes':>7}  settable")
    for name, (lines, code, stmts, nodes, params, fields) in rows:
        print(f"{name:<{width}}  {lines:>6,}  {code:>6,}  {stmts:>6,}  {nodes:>7,}  "
              f"{params} + {fields} = {params + fields}")


def _against(ref: str, package: Path) -> None:
    """Print the totals of the ``src/sipwigner`` of commit ``ref``, then of
    ``package``."""
    root = PACKAGE.parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        tree = subprocess.run(["git", "archive", ref, "src/sipwigner"], cwd=root,
                              capture_output=True)
        if tree.returncode:
            raise SystemExit(f"surface: no src/sipwigner at {ref}: {tree.stderr.decode().strip()}")
        subprocess.run(["tar", "x", "-C", tmp], input=tree.stdout, check=True)
        _print([(ref, _modules(Path(tmp) / "src" / "sipwigner")[-1][1]),
                (os.path.relpath(package), _modules(package)[-1][1])])


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", type=Path, default=PACKAGE,
                        help="the package directory to measure")
    parser.add_argument("--against", metavar="REF",
                        help="git commit whose src/sipwigner totals to print first")
    args = parser.parse_args(argv)
    if args.against is None:
        _print(_modules(args.dir))
    else:
        _against(args.against, args.dir)


if __name__ == "__main__":
    main()
