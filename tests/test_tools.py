import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hadtrunc

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


def commit_all(repo):
    """Make repo a git repository whose one commit holds every file in it."""
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "first"]):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       env=FRESH_ENV, capture_output=True, check=True)


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


def test_code_lines_against_a_revision(tmp_path):
    # a module changed, one added and one deleted since the commit: each row
    # is the lines at the commit, the lines now and the difference, and a
    # module missing on one side reads 0 there
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "kept.py").write_text("x = 1\n")
    (package / "changed.py").write_text("x = 1\ny = 2\n")
    (package / "deleted.py").write_text('"""Doc."""\nx = 1\ny = 2\nz = 3\n')

    commit_all(tmp_path)
    (package / "changed.py").write_text("x = 1\n# a comment\ny = 2\nz = 3\nw = 4\n")
    (package / "deleted.py").unlink()
    (package / "added.py").write_text("def f():\n    return 1\n")
    rows = [line.split() for line in table(str(package), "--against", "HEAD")]
    assert rows == [["added", "0", "2", "+2"], ["changed", "2", "4", "+2"],
                    ["deleted", "3", "0", "-3"], ["kept", "1", "1", "+0"],
                    ["total", "6", "7", "+1"]]
    # the plain table reads the working tree alone
    assert code_lines(str(package)) == {"added": 2, "changed": 4, "kept": 1}


def ab_tool():
    """`tools/ab.py`, imported as a module."""
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ab_against_a_revision(tmp_path, capsys):
    # a copy of the package committed in a repository of its own, compared on
    # the results of one input: the same revision reads bitwise, a changed
    # constant is flagged, and a bad revision, or a module that imports the
    # package by name, exits 2 before any result is run
    tool = ab_tool()
    package = tmp_path / "hadtrunc"
    shutil.copytree(ROOT / "src" / "hadtrunc", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    commit_all(tmp_path)
    cases = [case for case in tool.CASES if "dita(2,2;seed=1)" in case[0]]

    def compare():
        code = tool.compare(package, "HEAD", cases)
        return code, capsys.readouterr().out.splitlines()

    code, out = compare()
    kinds = ["spectra", "moments", "laws", "haar", "cesaro", "plans"]
    assert code == 0 and out[-1] == "14 of 14 results bitwise equal"
    assert [line.split("  ")[0].split()[0] for line in out[:-1]] == [
        *kinds, *kinds, "duality", "selfduality"]
    assert all(line.endswith("  bitwise") for line in out[:-1])

    # every result but the sector plans, which hold no tolerance, is refused
    spectra = package / "spectra.py"
    spectra.write_text(spectra.read_text().replace("EIGEN_RESIDUAL_TOL = 1e-9",
                                                   "EIGEN_RESIDUAL_TOL = -1.0"))
    code, out = compare()
    assert code == 1 and out[-1] == "2 of 14 results bitwise equal"
    for line in out[:-1]:
        assert line.endswith("  bitwise") if line.startswith("plans ") else (
            "changed: at REV returns, now raises EigensolverError: depth-1 spectrum" in line)

    def refused(rev):
        with pytest.raises(SystemExit) as stop:
            tool.main([str(package), "--against", rev])
        captured = capsys.readouterr()
        assert stop.value.code == 2 and not captured.out
        return captured.err

    assert "no-such-rev" in refused("no-such-rev")
    (package / "extra.py").write_text("import hadtrunc.spectra\n")
    assert "imports itself by name in extra.py" in refused("HEAD")


def test_ab_duality_words_stop_at_the_deepest_depth():
    # at N = 9 the table of H^t is solved to depth 3, not to the 4 words of
    # the moment tables, since 9^4 > 4096
    [grid] = ab_tool()._duality(hadtrunc, "dita(3,3;seed=1)")
    assert grid.shape == (3, 3) and grid.max() < 1e-10


def test_ab_verdicts():
    tool = ab_tool()
    one = [np.array([1.0, -0.0]), np.array(3)]
    assert tool.verdict(one, [np.array([1.0, -0.0]), np.array(3)]) == "bitwise"
    # -0.0 and 0.0 are equal, not the same bytes; a zero on both sides is no difference
    assert tool.verdict(one, [np.array([1.0, 0.0]), np.array(3)]) == "max rel diff 0.0e+00"
    assert tool.verdict(one, [np.array([1.0 + 2e-16, -0.0]), np.array(3)]) == (
        "max rel diff 2.2e-16")
    # a roundoff change near zero is scaled by the largest entry of its array,
    # not by its own size (1.3e+00 entrywise); a NaN is a difference
    assert tool.verdict([np.array([1e-17, 4.0])], [np.array([-3e-17, 4.0])]) == (
        "max rel diff 1.0e-17")
    assert tool.verdict(one, [np.array([np.nan, -0.0]), np.array(3)]) == "max rel diff nan"
    assert tool.verdict(one, [np.array([1.0]), np.array(3)]) == (
        "changed shape: [(2,), ()] at REV, now [(1,), ()]")
    assert tool.verdict("ValueError: x", "ValueError: x") == "bitwise"
    assert tool.verdict("ValueError: x", one) == "changed: at REV raises ValueError: x, now returns"
    assert tool.verdict("ValueError: x", "TypeError: y") == (
        "changed: at REV raises ValueError: x, now raises TypeError: y")
