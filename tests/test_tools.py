import subprocess
import sys
from pathlib import Path

from conftest import FRESH_ENV

ROOT = Path(__file__).resolve().parent.parent

# Each module and its code lines: docstrings of the module, a class and a
# function, comment lines and blank lines do not count; a line with code and
# a trailing comment, or with a '#' inside a string, does.
MODULES = {
    "__init__": ("", 0),
    "alpha": ('"""A module docstring\n'
              'over two lines."""\n'
              "\n"
              "# a comment\n"
              "import os\n"
              "\n"
              "\n"
              "def f():\n"
              '    """One line."""\n'
              "    x = 1  # counted\n"
              "\n"
              "    return x\n", 4),
    "beta": ("class C:\n"
             '    """Doc."""\n'
             '    y = "# not a comment"\n'
             "        # an indented comment\n", 2),
    # a name longer than the 12 columns the table once padded names to
    "gamma_with_a_long_name": ("x = 1\ny = 2\nz = 3\n", 3),
}


def table(*args):
    """The lines `tools/code_lines.py` prints, run in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), *args],
                          env=FRESH_ENV, capture_output=True, text=True, check=True)
    return proc.stdout.splitlines()


def code_lines(*args):
    """The rows of `tools/code_lines.py` run in a fresh interpreter, as
    {name: count}, with the total apart."""
    rows = [line.split() for line in table(*args)]
    assert [name for name, _ in rows].count("total") == 1 and rows[-1][0] == "total"
    counts = {name: int(count) for name, count in rows[:-1]}
    assert len(counts) == len(rows) - 1 and int(rows[-1][1]) == sum(counts.values())
    return counts


def test_code_lines_counts_code_only(tmp_path):
    for name, (text, _) in MODULES.items():
        (tmp_path / f"{name}.py").write_text(text)
    assert code_lines(str(tmp_path)) == {name: count for name, (_, count) in MODULES.items()}


def test_code_lines_lists_every_package_module_once():
    package = ROOT / "src" / "hadtrunc"
    assert list(code_lines()) == sorted(path.stem for path in package.glob("*.py"))


def test_code_lines_aligns_counts(tmp_path):
    # names padded to the longest, counts right-aligned: every row ends in
    # one column, the counts' own
    for name, (text, _) in MODULES.items():
        (tmp_path / f"{name}.py").write_text(text)
    lines = table(str(tmp_path))
    width = max(len(name) for name in MODULES)
    assert {len(line) for line in lines} == {width + 1 + 5}
    assert all(line[width] == " " for line in lines)
