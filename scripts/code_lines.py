"""Count code lines: ``python scripts/code_lines.py src/ benchmarks/``.

A line counts if it carries a token that is neither a comment nor part
of a docstring.  Prints one row per file and the total.
"""
import ast
import sys
import tokenize
from pathlib import Path

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold code."""
    doc = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in BLANK:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - doc)


if __name__ == "__main__":
    total = 0
    for root in map(Path, sys.argv[1:] or ["src"]):
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            total += (n := code_lines(path))
            print(f"{n:7d}  {path}")
    print(f"{total:7d}  total")
