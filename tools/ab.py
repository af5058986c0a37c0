"""Compare the results of the package at a git revision with those of the
working tree, over one committed list of results.

    python tools/ab.py [PACKAGE_DIR] --against REV

PACKAGE_DIR defaults to the src/hadtrunc next to this script.  The package
at REV is read with `git archive` into a temporary directory, so neither the
working tree nor the index is touched, and both copies are loaded in one
process under distinct names; neither may import itself by name, which is
checked first.  Each result of CASES is computed by both copies: of H and
of H^t, the Gram spectra that one `spectra._gram_spectra` call hands over
for every depth with N^r <= 4096, the moment tables over those depths, the
atoms of `truncated_law` at each of them, the Haar estimates and the Cesaro
averages to k_max = 32 at each p with N^p <= 4096, and the sector plans
with the column involutions found at every depth (the plans of every input
and depth that takes the sector route, and of some that do not); then the
duality grids, whose words stop where the depths do, since the table of H^t
is solved to the depth of the longest word, and the self-duality grids.
One line per result reads

    bitwise                the same bytes in both, or the same exception;
    max rel diff 2.2e-16   the largest |a - b| of two arrays over the largest
                           |entry| of either, the worst over the arrays;
    changed ...            a changed shape, or an exception on one side, or
                           a different one on each.

The exit status is 0 when every result is bitwise equal, 1 when one is not,
and 2 on a bad REV or a package that imports itself by name.  Tao's matrix
comes from `tests/gram_oracle.py` of the repository that holds this script.
"""

import argparse
import ast
import functools
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# The test corpus, Tao's 6 x 6 matrix, and the inputs that earlier parity
# checks of the structured and sector routes ran on.
INPUTS = ["fourier:2", "fourier:3", "fourier:4", "fourier:5", "fourier:6", "fourier:7",
          "fourier:8", "tensor(fourier:2,fourier:3)", "fouriergroup:2x3", "fouriergroup:2x2x2",
          "dita(2,2;seed=1)", "dita(2,2;seed=7)", "dita(2,2;seed=13)", "dita(2,3;seed=7)",
          "dita(3,2;seed=5)", "dita(3,3;seed=1)", "transpose(dita(2,3;seed=7))", "tao6"]
DITAS = [(2, 2, 1), (2, 2, 7), (2, 2, 13), (2, 3, 7), (3, 2, 5), (3, 3, 1)]  # (M, N, seed)
DIM = 4096  # the default size cap: every depth with N^r <= DIM is run
WORD = 4  # p_max of the moment tables and the self-duality grids, and at most of the duality


@functools.cache
def _gram_oracle():
    """tests/gram_oracle.py, which holds the one definition of Tao's matrix."""
    spec = importlib.util.spec_from_file_location("gram_oracle",
                                                  ROOT / "tests" / "gram_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _matrix(ht, spec):
    """The matrix of a spec string, of "tao6", or, for a name ending in ^t,
    the transpose of the matrix before it."""
    if spec.endswith("^t"):
        return ht.transpose(_matrix(ht, spec[:-2]))
    if spec == "tao6":
        return ht.hadamard(_gram_oracle().tao6_array(), "tao6")
    return ht.build_matrix(spec)


def _deepest(n):
    return max(r for r in range(1, 13) if n**r <= DIM)


def _spectra(ht, spec):
    h = _matrix(ht, spec)
    spectra = importlib.import_module(f"{ht.__name__}.spectra")
    return [part for vals, zeros in spectra._gram_spectra(h, range(1, _deepest(h.n) + 1))
            for part in (vals, np.array(zeros))]


def _moments(ht, spec):
    h = _matrix(ht, spec)
    table = ht.moment_table(h, WORD, _deepest(h.n))
    return [table.c, table.gamma]


def _laws(ht, spec):
    h = _matrix(ht, spec)
    return [np.array(ht.truncated_law(h, r).atoms) for r in range(1, _deepest(h.n) + 1)]


def _haar(ht, spec):
    h = _matrix(ht, spec)
    return [np.array(ht.haar_moment_estimate(h, p)) for p in range(1, _deepest(h.n) + 1)]


def _cesaro(ht, spec):
    h = _matrix(ht, spec)
    return [ht.cesaro_moments(h, p, 32).partial_averages for p in range(1, _deepest(h.n) + 1)]


def _arrays(plan):
    """The arrays and integers of a nested plan tuple, in order, None as an
    empty array."""
    if isinstance(plan, tuple):
        return [arr for part in plan for arr in _arrays(part)]
    return [np.array([]) if plan is None else np.asarray(plan)]


def _plans(ht, spec):
    h = _matrix(ht, spec)
    spectra = importlib.import_module(f"{ht.__name__}.spectra")
    gens = spectra._column_symmetries(h.array)
    return [arr for r in range(1, _deepest(h.n) + 1)
            for arr in _arrays(spectra._sector_plan(h.n, r, gens))]


def _duality(ht, spec):
    h = _matrix(ht, spec)
    depth = _deepest(h.n)
    return [ht.duality_residual(h, min(WORD, depth), depth).grid]


def _selfduality(ht, dita):
    m, n, seed = dita
    report = ht.dita_selfduality_residual(m, n, ht.seeded_phase_matrix(m, n, seed), WORD,
                                          _deepest(m * n))
    return [report.grid, np.array(report.atoms_match)]


# (name, run, argument): run(package, argument) returns a list of arrays
CASES = ([(f"{kind} {spec}{side}", run, spec + side)
          for spec in INPUTS for side in ("", "^t")
          for kind, run in (("spectra", _spectra), ("moments", _moments), ("laws", _laws),
                            ("haar", _haar), ("cesaro", _cesaro), ("plans", _plans))]
         + [(f"duality {spec}", _duality, spec) for spec in INPUTS]
         + [(f"selfduality dita({m},{n};seed={seed})", _selfduality, (m, n, seed))
            for m, n, seed in DITAS])


def _outcome(package, run, argument):
    """The arrays that run returns, or the text of the exception it raises."""
    try:
        return [np.asarray(part) for part in run(package, argument)]
    except Exception as err:  # a raise is an outcome to compare
        return f"{type(err).__name__}: {err}"


def verdict(then, now):
    """'bitwise', 'max rel diff X' or 'changed ...' for two outcomes."""
    if isinstance(then, str) or isinstance(now, str):
        if then == now:
            return "bitwise"
        said = [f"raises {out}" if isinstance(out, str) else "returns" for out in (then, now)]
        return f"changed: at REV {said[0]}, now {said[1]}"
    shapes = [[part.shape for part in out] for out in (then, now)]
    if shapes[0] != shapes[1]:
        return f"changed shape: {shapes[0]} at REV, now {shapes[1]}"
    if all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(then, now)):
        return "bitwise"
    ratios = []
    for a, b in zip(then, now):
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        diff = np.max(np.abs(a - b), initial=0.0)
        if diff:  # two zeros differ by nothing
            ratios.append(diff / max(np.max(np.abs(a)), np.max(np.abs(b))))
    return f"max rel diff {np.max(ratios, initial=0.0):.1e}"


def self_imports(package):
    """The modules of package that import it by its own name, not relatively."""
    name = package.name
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     and not node.level else [])
            if any(mod == name or mod.startswith(f"{name}.") for mod in names):
                found.append(path.name)
                break
    return found


class Refused(Exception):
    """A revision or a package that cannot be compared."""


def load(path, name):
    """The package at path, imported as name, with its submodules under it."""
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py",
                                                  submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def compare(package, rev, cases):
    """Print one verdict per case of cases, (name, run, argument), between the
    package at rev and the one at package, and a count; return 0 when all are
    bitwise equal, else 1.  Refused on a bad rev or a package that imports
    itself by name, before any case is run.  The two copies are dropped from
    sys.modules afterwards, so a later call loads them afresh."""
    names = [f"{package.name}_{suffix}" for suffix in ("rev", "now")]
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # none in the working tree
    try:
        with tempfile.TemporaryDirectory() as tmp:
            then = Path(tmp) / package.name
            proc = subprocess.run(["git", "-C", str(package), "archive", rev],
                                  capture_output=True)
            if proc.returncode:
                raise Refused(proc.stderr.decode().strip() or f"git archive {rev} failed")
            with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
                # the "data" filter where it exists: Python 3.12, 3.11.4, 3.10.12
                tar.extractall(then, **({"filter": "data"} if hasattr(tarfile, "data_filter")
                                        else {}))
            if not (then / "__init__.py").is_file():
                raise Refused(f"{rev} has no package at {package}")
            for side, path in (("REV", then), ("the working tree", package)):
                found = self_imports(path)
                if found:
                    raise Refused(f"the package in {side} imports itself by name in "
                                  f"{', '.join(found)}, so its copies would mix")
            copies = [load(path, name) for path, name in zip((then, package), names)]
            verdicts = [(name, verdict(*(_outcome(copy, run, argument) for copy in copies)))
                        for name, run, argument in cases]
    finally:
        sys.dont_write_bytecode = writes
        for name in [key for key in sys.modules if key.split(".")[0] in names]:
            del sys.modules[name]
    width = max(len(name) for name, _ in verdicts)
    for name, said in verdicts:
        print(f"{name:{width}}  {said}")
    same = sum(said == "bitwise" for _, said in verdicts)
    print(f"{same} of {len(verdicts)} results bitwise equal")
    return 0 if same == len(verdicts) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package", nargs="?", type=Path,
                        default=ROOT / "src" / "hadtrunc")
    parser.add_argument("--against", metavar="REV", required=True,
                        help="the git revision whose package is compared with the working tree")
    args = parser.parse_args(argv)
    try:
        return compare(args.package, args.against, CASES)
    except Refused as err:
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
