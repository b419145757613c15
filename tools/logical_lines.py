"""Count the logical lines of a Python package: lines that are not blank,
not a comment and not inside a docstring (of a module, class or function).

Usage::

    python tools/logical_lines.py [DIR]      # DIR defaults to src/das

Prints one ``<logical> <file>`` line per module, largest first, then the
total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def logical_lines(source: str) -> int:
    """The number of lines of ``source`` that are not blank, not a comment
    and not inside a docstring."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/das")
    counts = {path: logical_lines(path.read_text()) for path in sorted(root.rglob("*.py"))}
    for path, count in sorted(counts.items(), key=lambda item: (-item[1], str(item[0]))):
        print(f"{count:6d} {path.relative_to(root)}")
    print(f"{sum(counts.values()):6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
