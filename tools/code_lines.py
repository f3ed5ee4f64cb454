"""Count the code lines of each module in ``src/sscavi``.

A code line holds at least one token other than a comment, NL, NEWLINE,
INDENT or DEDENT; the lines of module, class and function docstrings do not
count. Blank lines and comment-only lines therefore drop out, and a statement
spread over several lines counts each line it covers. Prints one count per
module and the total:

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: str) -> set:
    """Line numbers covered by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text()
    lines = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIPPED and tok.type != tokenize.ENCODING:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main() -> int:
    src = Path(__file__).resolve().parent.parent / "src" / "sscavi"
    counts = {path.stem: code_lines(path) for path in sorted(src.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{name:<12}{count:>6}")
    print(f"{'total':<12}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
