"""Print the code lines of each module of src/hadtrunc, and their total.

A code line is a line that is not blank, not only a comment and not part of
a docstring (of a module, class or function).  Run from anywhere as

    python tools/code_lines.py [PACKAGE_DIR] [--against REV]

PACKAGE_DIR defaults to the src/hadtrunc next to this script.  With
--against, each row holds the module's code lines at the git revision REV
(read with `git show`, so the working tree is not touched), its lines now,
and the difference; a module missing on one side reads 0 there.
"""

import argparse
import ast
import subprocess
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


def code_lines(text):
    skip = docstring_lines(ast.parse(text))
    return sum(1 for number, line in enumerate(text.splitlines(), start=1)
               if number not in skip and line.strip() and not line.strip().startswith("#"))


def counts_at(package, rev):
    """{module: code lines} of the modules in package at the git revision rev."""
    def git(*args):
        return subprocess.run(["git", "-C", str(package), *args], capture_output=True,
                              text=True, check=True).stdout

    names = git("ls-tree", "--name-only", rev, "./").split("\n")
    return {Path(name).stem: code_lines(git("show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Code lines of each module of a package.")
    parser.add_argument("package", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "hadtrunc")
    parser.add_argument("--against", metavar="REV",
                        help="also print each module's code lines at this git revision")
    args = parser.parse_args(argv)
    now = {path.stem: code_lines(path.read_text()) for path in sorted(args.package.glob("*.py"))}
    if args.against is None:
        rows = [*now.items(), ("total", sum(now.values()))]
    else:
        try:
            then = counts_at(args.package, args.against)
        except subprocess.CalledProcessError as err:
            parser.error(err.stderr.strip())
        rows = [(name, then.get(name, 0), now.get(name, 0)) for name in sorted({*now, *then})]
        rows.append(("total", sum(then.values()), sum(now.values())))
        rows = [(name, old, new, f"{new - old:+d}") for name, old, new in rows]
    width = max(len(name) for name, *_ in rows)
    for name, *counts in rows:
        print(f"{name:{width}}" + "".join(f" {count:>5}" for count in counts))


if __name__ == "__main__":
    main()
