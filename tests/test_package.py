import copy
import importlib
import inspect
import json
import subprocess
import sys

import pytest

import hadtrunc as ht

from conftest import FRESH_ENV

PUBLIC_NAMES = {
    "CapExceededError", "DEFAULT_CAP", "DualityReport", "EigensolverError",
    "HadamardMatrix", "HadamardValidationError", "MagicGrid", "MagicGridError",
    "MomentImagError", "MomentTable", "SpecSyntaxError", "SpectralMeasure",
    "ValidationReport", "adjoint", "bench_structured_vs_dense", "build_matrix",
    "cesaro_moments", "conjugate", "dita", "dita_selfduality_residual",
    "duality_residual", "fourier", "fourier_group", "gram_matrix",
    "grid_relations_check", "haar_moment_estimate", "hadamard", "load_matrix",
    "magic_grid", "measure_top_mass", "moment_table", "moments_via_T",
    "moments_via_X", "parse_matrix_spec", "profile", "save_matrix",
    "seeded_phase_matrix", "structured_moments", "tensor", "transpose",
    "truncated_integral_word", "truncated_law", "truncation_tensor", "unparse",
    "validate", "verify_magic",
}


def test_public_names_are_pinned():
    # a new export, or a lost one, shows up as an edit of PUBLIC_NAMES; the
    # names resolved on first access are listed by dir() before any is used
    names = {name for name in dir(ht)
             if not name.startswith("_") and not inspect.ismodule(getattr(ht, name))}
    assert names == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 46
    # every module attribute is a submodule of hadtrunc, bound by its import
    modules = {name: getattr(ht, name) for name in dir(ht) if inspect.ismodule(getattr(ht, name))}
    assert modules and all(module.__name__ == f"hadtrunc.{name}"
                           for name, module in modules.items())


def test_on_demand_exports_are_their_home_objects():
    assert set(ht._HOME) == PUBLIC_NAMES
    assert set(ht._HOME.values()) == {"dita", "duality", "errors", "magic", "matrices",
                                      "spectra", "specs"}
    for name, module in ht._HOME.items():
        assert getattr(ht, name) is getattr(importlib.import_module(f"hadtrunc.{module}"), name)
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(ht, "nonexistent")


# Run in a fresh interpreter: which hadtrunc layers are in sys.modules after
# each step of a command-line session, whether numpy is, and what each refused
# request answered (exit code, stderr).  Then, from a cold start, a bare
# `import hadtrunc` and the attribute `hadtrunc.matrices`.
LOADED_BY_COMMANDS = """
import contextlib, io, json, sys

def layers():
    return sorted(m for m in sys.modules if m.startswith("hadtrunc.")), "numpy" in sys.modules

import hadtrunc
steps = {"package": layers()}
from hadtrunc.cli import main
steps["import"] = layers()
refusals = []
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        refusals.append([main(argv), err.getvalue(), *layers()])
steps["refusals"] = refusals
for argv in (["validate", "fourier:3"], ["measure", "fourier:3", "--r", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    steps[argv[0]] = layers()
for name in [m for m in sys.modules if m == "hadtrunc" or m.startswith("hadtrunc.")]:
    del sys.modules[name]
import hadtrunc
steps["hadtrunc.matrices"] = hadtrunc.matrices.__name__
print(json.dumps(steps))
"""

# Requests that the command line refuses from their arguments alone, with the
# exit code and stderr of each: a parse error, a usage error (its last line,
# below a usage that follows the terminal width), and an over-cap call of
# every command that takes --cap, which is admitted from the spec.
REFUSED = [
    (["measure", "dita(2,2;seed=", "--r", "1"], 2,
     "error: expected an integer (at character 14)\n"),
    (["measure", "fourier:3"], 2,
     "hadtrunc measure: error: the following arguments are required: --r\n"),
    (["measure", "fourier:8", "--r", "3", "--cap", "100"], 3,
     "error: requested dimension 8^3 exceeds size cap 100\n"),
    (["measure", "transpose(fouriergroup:2x3x2)", "--r", "4"], 3,
     "error: requested dimension 12^4 exceeds size cap 4096\n"),
    (["moments", "fourier:3", "--p-max", "1", "--r-max", "100000"], 3,
     "error: requested dimension 3^100000 exceeds size cap 4096\n"),
    (["moments", "fourier:1", "--p-max", "1", "--r-max", "99999999999"], 3,
     "error: requested dimension 2^99999999999 exceeds size cap 4096\n"),
    (["cesaro", "fourier:6", "--p", "4", "--k-max", "2", "--cap", "1000"], 3,
     "error: requested dimension 6^4 exceeds size cap 1000\n"),
    (["cesaro", "fourier:3", "--p", "1", "--k-max", "99999999999"], 3,
     "error: requested dimension 99999999999^1 exceeds size cap 4096\n"),
    (["duality", "tensor(fourier:2,dita(2,2;seed=3))", "--p-max", "9", "--r-max", "2"], 3,
     "error: requested dimension 8^9 exceeds size cap 4096\n"),
    (["dita-check", "--m", "2", "--n", "3", "--seed", "1", "--p-max", "1", "--r-max", "9"], 3,
     "error: requested dimension 6^9 exceeds size cap 4096\n"),
    (["bench", "--m", "2", "--n", "3", "--seed", "1", "--p", "1", "--r", "9"], 3,
     "error: requested dimension 6^9 exceeds size cap 4096\n"),
]

# From a cold start with each statement first, then all three: the package
# attribute `dita` must stay the constructor of hadtrunc.matrices, whichever
# statement loads the hadtrunc.dita module.
DITA_BINDING = """
import json, sys

STATEMENTS = ("import hadtrunc.dita", "from hadtrunc.dita import structured_moments",
              "import hadtrunc")

def cold(first):
    for name in [m for m in sys.modules if m == "hadtrunc" or m.startswith("hadtrunc.")]:
        del sys.modules[name]
    bound = []
    for statement in (first, *STATEMENTS):
        exec(statement, {})
        ht = sys.modules["hadtrunc"]
        bound.append(ht.dita is ht.matrices.dita)
    return all(bound)

print(json.dumps({first: cold(first) for first in STATEMENTS}))
"""


def _fresh_python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], env=FRESH_ENV,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_commands_load_only_their_layers():
    steps = _fresh_python(LOADED_BY_COMMANDS, json.dumps([argv for argv, _, _ in REFUSED]))
    base = ["hadtrunc.cli", "hadtrunc.dita", "hadtrunc.errors", "hadtrunc.specs"]
    assert steps["package"] == [["hadtrunc.dita", "hadtrunc.errors"], False]
    assert steps["import"] == [base, False]
    for (argv, code, err), (got_code, got_err, loaded, numpy) in zip(REFUSED,
                                                                     steps["refusals"]):
        assert (got_code, numpy, loaded) == (code, False, base), argv
        assert got_err == err or got_err.startswith("usage: ") and got_err.endswith("\n" + err)
    assert steps["validate"] == [sorted([*base, "hadtrunc.matrices"]), True]
    assert steps["measure"] == [sorted([*base, "hadtrunc.magic", "hadtrunc.matrices",
                                        "hadtrunc.spectra"]), True]
    assert steps["hadtrunc.matrices"] == "hadtrunc.matrices"


def test_dita_is_the_constructor_in_every_import_order():
    assert _fresh_python(DITA_BINDING) == {
        "import hadtrunc.dita": True,
        "from hadtrunc.dita import structured_moments": True,
        "import hadtrunc": True,
    }


def _records():
    q = ht.seeded_phase_matrix(2, 2, 7)
    f2 = ht.fourier(2)
    return {
        "ValidationReport": (ht.validate(ht.fourier(3).array),
                             ["n", "unimodularity_dev", "orthogonality_dev",
                              "unimodularity_tol", "orthogonality_tol", "passed"]),
        "MagicReport": (ht.verify_magic(ht.magic_grid(f2)),
                        ["idempotency_dev", "self_adjointness_dev", "row_sum_dev",
                         "col_sum_dev", "tolerance", "passed"]),
        "SpectralMeasure": (ht.truncated_law(ht.fourier(3), 1),
                            ["N", "r", "atoms", "cluster_tol"]),
        "MomentTable": (ht.moment_table(f2, 2, 1), ["N", "p_max", "r_max", "c", "gamma"]),
        "CesaroSequence": (ht.cesaro_moments(f2, 1, 2),
                           ["p", "partial_averages", "last_increment"]),
        "HaarMomentEstimate": (ht.haar_moment_estimate(f2, 1, 4),
                               ["estimate", "rounded", "converged", "gap"]),
        "DualityReport": (ht.duality_residual(f2, 1, 1),
                          ["matrix", "p_max", "r_max", "max_residual", "grid", "pass",
                           "tolerance", "elapsed_s"]),
        "DualityReport-atoms": (ht.dita_selfduality_residual(2, 2, q, 1, 1),
                                ["matrix", "p_max", "r_max", "max_residual", "grid", "pass",
                                 "tolerance", "elapsed_s", "atoms_match"]),
        "BenchReport": (ht.bench_structured_vs_dense(2, 2, q, 1, 1, repetitions=1),
                        ["M", "N", "p", "r", "dense_ms", "structured_ms", "speedup",
                         "verified"]),
    }


RECORDS = _records()


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_frozen_values(name):
    record, keys = RECORDS[name]
    twin = copy.deepcopy(record)
    first = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, first, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert list(record.to_dict()) == keys
    assert twin is not record and twin.to_dict() == record.to_dict()
    try:
        hash(record)
    except TypeError:  # an array field: the record is compared through to_dict
        return
    assert twin == record and hash(twin) == hash(record)


def test_spec_nodes_are_frozen_values():
    text = "tensor(fouriergroup:2x3,conj(dita(2,2;seed=3)))"
    spec = ht.parse_matrix_spec(text)
    nodes = [spec, spec.left, spec.right, spec.right.inner,
             ht.parse_matrix_spec("fourier:4"), ht.parse_matrix_spec("file=h.json")]
    assert len({type(node) for node in nodes}) == 6
    for node in nodes:
        first = type(node)._fields[0]
        with pytest.raises(AttributeError):
            setattr(node, first, None)
        assert ht.parse_matrix_spec(ht.unparse(node)) == node
    assert spec == ht.parse_matrix_spec(text) and hash(spec) == hash(ht.parse_matrix_spec(text))
    assert spec != ht.parse_matrix_spec(text.replace("seed=3", "seed=4"))
