"""Print the code lines of each module of src/hadtrunc, and their total.

A code line is a line that is not blank, not only a comment and not part of
a docstring (of a module, class or function).  Run from anywhere as

    python tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the src/hadtrunc next to this script.
"""

import ast
import sys
from pathlib import Path


def docstring_lines(tree):
    """The line numbers that the docstrings of a parsed module span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv):
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "hadtrunc"
    counts = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    rows = [*counts.items(), ("total", sum(counts.values()))]
    width = max(len(name) for name, _ in rows)
    for name, count in rows:
        print(f"{name:{width}} {count:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
