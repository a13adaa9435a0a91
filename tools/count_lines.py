"""Count code lines of the package source and of the tests.

A code line is a line that holds a token other than a comment, a line
break or indentation, and that is not part of a docstring (the first
statement of a module, class or function when it is a string).  Every
``.py`` file under ``src/`` and under ``tests/`` is counted.  Run from
anywhere::

    python tools/count_lines.py            # the two totals
    python tools/count_lines.py --files    # and every file's count
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    lines = {line for tok in tokens if tok.type not in SKIPPED for line in range(tok.start[0], tok.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--files", action="store_true", help="also print each file's count")
    args = parser.parse_args()
    for tree in ("src", "tests"):
        total = 0
        for path in sorted((ROOT / tree).rglob("*.py")):
            count = code_lines(path.read_text(encoding="utf-8"))
            total += count
            if args.files:
                print(f"{count:6d}  {path.relative_to(ROOT)}")
        print(f"{tree}: {total}")


if __name__ == "__main__":
    main()
