#!/usr/bin/env python3
"""Count the code lines of every module in ``src/realform``.

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring.  Prints one count per module and
the total:

    python3 scripts/code_lines.py
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "realform"


def code_lines(source: str) -> int:
    """Non-blank lines of ``source`` that are not comments or docstrings."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for n, line in enumerate(source.splitlines(), 1)
               if n not in docstrings and line.strip() and not line.strip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
