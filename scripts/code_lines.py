"""Count the code lines of a package: the non-blank lines outside comments
and docstrings, per module and in total.

A line counts when a token other than a comment, a line break or an
indentation starts on it or spans it, so every line of a bracketed or
backslash-continued statement counts, and so does every line of a string
that is not a docstring.  A docstring is the string that opens a module,
class or function body; its lines never count.

    python scripts/code_lines.py [DIR]

DIR defaults to src/gbflab beside this script's directory.  Modules are
listed by path relative to DIR, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0]) if argv else (
        Path(__file__).resolve().parent.parent / "src" / "gbflab")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.relative_to(root).as_posix()}\t{count:,}")
    print(f"total\t{total:,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
