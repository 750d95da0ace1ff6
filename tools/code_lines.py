"""Print the code lines of each module of a package and their total.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function body, as
ast finds it).  Blank lines, comment lines and docstring lines are not
counted; a line with code and a trailing comment is.  Standard library only.

Usage: python tools/code_lines.py [package directory, default src/perminv]
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers spanned by every docstring in tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code: set[int] = set()
    for tok in tokens:
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/perminv")
    modules = sorted(package.glob("*.py"))
    if not modules:
        print(f"error: no Python modules in {package}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
