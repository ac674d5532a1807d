"""Count code lines per ``src/repro`` subpackage.

A code line is a physical line that carries a Python token other than a
comment: blank lines, comment-only lines and docstring lines (the
leading string of a module, class or function) do not count.  This is
the count a simplicity review uses, so a change cannot shrink it by
deleting comments or docs.

Usage::

    python scripts/src_lines.py                 # the working tree
    python scripts/src_lines.py --against HEAD~1

With ``--against REF`` it reads every ``src/repro`` file at ``REF``
through ``git show`` and prints both counts and the delta per
subpackage (``(top)`` is the package's own modules).
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/repro"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Physical lines of ``source`` holding code (see module docstring)."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _group(path: str) -> str:
    parts = Path(path).relative_to(PACKAGE).parts
    return parts[0] if len(parts) > 1 else "(top)"


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def count_tree() -> Counter:
    counts: Counter = Counter()
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        counts[_group(rel)] += code_lines(path.read_text())
    return counts


def count_ref(ref: str) -> Counter:
    counts: Counter = Counter()
    for rel in _git("ls-tree", "-r", "--name-only", ref, PACKAGE).split():
        if rel.endswith(".py"):
            counts[_group(rel)] += code_lines(_git("show", f"{ref}:{rel}"))
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="git ref to compare with")
    args = parser.parse_args(argv)
    now = count_tree()
    if args.against is None:
        for group in sorted(now):
            print(f"{group:<12} {now[group]:>6}")
        print(f"{'total':<12} {sum(now.values()):>6}")
        return 0
    then = count_ref(args.against)
    print(f"{'package':<12} {args.against:>10} {'tree':>6} {'delta':>6}")
    for group in sorted(set(now) | set(then)):
        a, b = then[group], now[group]
        print(f"{group:<12} {a:>10} {b:>6} {b - a:>+6}")
    a, b = sum(then.values()), sum(now.values())
    print(f"{'total':<12} {a:>10} {b:>6} {b - a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
