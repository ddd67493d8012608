"""Print the total and the code lines of each module under src/.

A code line holds a token other than a comment and is not part of a
module, class or function docstring; blank lines, comment-only lines and
docstring lines are not code.  Run from the root of a checkout:

    python3 tools/src_lines.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_lines(source: str):
    """(total lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(root: Path) -> None:
    totals = [0, 0]
    for path in sorted(root.rglob("*.py")):
        counts = count_lines(path.read_text())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:6d} {counts[1]:6d}  {path.relative_to(root)}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total (lines, code lines)")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src"))
