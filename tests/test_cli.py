import json
import subprocess
import sys

import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.cli import _emit_csv, _jsonify, main
from hadtrunc.errors import ORTHOGONALITY_TOL, PASS_TOL, UNIMODULARITY_TOL

from conftest import FRESH_ENV, STRUCTURED_FAULTS


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run_cli(capsys, *argv):
    """Run the CLI in-process; JSON on stdout must parse strictly, with no
    NaN or Infinity."""
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith(("{", "[")):
        json.loads(captured.out, parse_constant=_reject_constant)
    return code, captured.out, captured.err


def test_validate_pass(capsys):
    code, out, _ = run_cli(capsys, "validate", "fourier:5")
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["n"] == 5


def test_validate_fail_exit_one(capsys, tmp_path):
    bad = {"n": 2, "entries": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", f"file={path}")
    assert code == 1
    assert json.loads(out)["passed"] is False


@pytest.mark.parametrize("doc", [
    pytest.param({"n": 2, "entries": [[1, 2], [3, 4]]}, id="numbers-not-pairs"),
    pytest.param({"n": 1, "entries": [[["a", "b"]]]}, id="strings"),
    pytest.param({"n": 1, "entries": [[["1", "0"]]]}, id="numeric-strings"),
    pytest.param({"n": True, "entries": [[[1, 0]]]}, id="n-bool"),
    pytest.param({"n": 1, "entries": [[[float("nan"), 0]]]}, id="nan-entry"),  # a NaN literal
])
def test_malformed_matrix_json_exit_two(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "validate", f"file={path}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("command, field, tol", [
    pytest.param(["duality", "fourier:2", "--p-max", "1", "--r-max", "1", "--tol"],
                 "tolerance", PASS_TOL, id="duality-tol"),
    pytest.param(["dita-check", "--m", "2", "--n", "2", "--seed", "7", "--p-max", "1",
                  "--r-max", "1", "--tol"], "tolerance", PASS_TOL, id="dita-check-tol"),
    pytest.param(["validate", "fourier:2", "--uni-tol"], "unimodularity_tol",
                 UNIMODULARITY_TOL, id="uni-tol"),
    pytest.param(["validate", "fourier:2", "--orth-tol"], "orthogonality_tol",
                 ORTHOGONALITY_TOL * 2, id="orth-tol"),
])
def test_tolerance_must_be_finite_and_positive(capsys, command, field, tol):
    # the verdict tolerances are fixed in hadtrunc.errors; no flag sets one, good or bad
    for value in ("inf", "nan", "-1", "0", "1e-6"):
        code, out, err = run_cli(capsys, *command, value)
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err
    code, out, _ = run_cli(capsys, *command[:-1])
    assert code == 0 and json.loads(out)[field] == tol


@pytest.mark.parametrize("scale, code", [(1 + 5e-11, 0), (1 + 5e-10, 1)])
def test_one_verdict_rule_for_file_matrices(capsys, tmp_path, scale, code):
    # |h_ij| - 1 = 5e-11 is within UNIMODULARITY_TOL = 1e-10, and 5e-10 is not;
    # the deviation from orthogonality, about 2 * 3 * (scale - 1), is within 3e-8 for both
    path = tmp_path / "f3.json"
    ht.save_matrix(ht.fourier(3).array * scale, path)
    assert run_cli(capsys, "validate", f"file={path}")[0] == code
    assert run_cli(capsys, "measure", f"file={path}", "--r", "1")[0] == code


def test_validate_dump(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "validate", "fourier:3", "--dump", str(path))
    assert code == 0
    assert np.array_equal(ht.load_matrix(path).array, ht.fourier(3).array)


def test_spec_syntax_error_exit_two(capsys):
    code, _, err = run_cli(capsys, "measure", "fourier:", "--r", "1")
    assert code == 2
    assert "error" in err


def test_unknown_subcommand_exit_two(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_exit_two(capsys):
    assert main(["measure", "fourier:3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["validate", "fourier:5", "--cap", "5"],
                                     ["gen", "fourier:2", "--cap", "1"]])
def test_cap_refused_where_nothing_is_capped(capsys, command):
    # neither command builds anything that the size cap limits
    assert main(command) == 2
    assert "--cap" in capsys.readouterr().err


def test_cap_exceeded_exit_three(capsys):
    code, _, err = run_cli(capsys, "measure", "fourier:6", "--r", "5")
    assert code == 3
    assert "cap" in err.lower()


# Each call runs in a fresh interpreter under a 2 GiB address-space limit, so a
# refusal that forms the power (3^(10^11) is about 20 GB) fails and takes
# nothing from the host.
_LIMITED_CLI = ("import resource, runpy, sys; "
                "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
                "sys.argv[0] = 'hadtrunc'; runpy.run_module('hadtrunc', run_name='__main__')")


def _limited_cli(command):
    return subprocess.run([sys.executable, "-c", _LIMITED_CLI, *command], env=FRESH_ENV,
                          capture_output=True, text=True, timeout=10, check=False)


@pytest.mark.parametrize("command, power", [
    (["measure", "fourier:3", "--r", "100000"], "3^100000"),
    (["measure", "fourier:3", "--r", "99999999999"], "3^99999999999"),
    (["cesaro", "fourier:3", "--p", "100000", "--k-max", "2"], "3^100000"),
    (["duality", "fourier:3", "--p-max", "1", "--r-max", "100000"], "3^100000"),
    (["moments", "fourier:3", "--p-max", "1", "--r-max", "99999999999"], "3^99999999999"),
    # N = 1 is admitted as N = 2, so its depths and words are refused as 2^k
    (["moments", "fourier:1", "--p-max", "1", "--r-max", "99999999999"], "2^99999999999"),
    (["measure", "fourier:1", "--r", "99999999999"], "2^99999999999"),
    (["measure", "fourier:1", "--r", "64"], "2^64"),
    (["cesaro", "fourier:1", "--p", "99999999999", "--k-max", "2"], "2^99999999999"),
    # the k_max-long Cesaro sequence is admitted as a length, k_max^1
    (["cesaro", "fourier:3", "--p", "1", "--k-max", "99999999999"], "99999999999^1"),
    (["cesaro", "fourier:3", "--p", "1", "--k-max", "4097"], "4097^1"),
    (["dita-check", "--m", "1", "--n", "1", "--seed", "1", "--p-max", "1",
      "--r-max", "99999999999"], "2^99999999999"),
], ids=["measure", "measure-1e11", "cesaro", "duality", "moments-1e11", "moments-size-1",
        "measure-size-1", "measure-size-1-r64", "cesaro-size-1", "cesaro-k-max-1e11",
        "cesaro-k-max-past-cap", "dita-check-size-1"])
def test_cap_refuses_huge_depths_at_once(command, power):
    proc = _limited_cli(command)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: requested dimension {power} exceeds size cap 4096\n"
    assert proc.stdout == ""


# N^p, a column of the moment table or the norm of the self-duality residuals,
# is refused once it passes the float range, before any table is allocated;
# for N = 1, once 2^p would pass it
@pytest.mark.parametrize("command, power", [
    (["moments", "fourier:3", "--p-max", "700", "--r-max", "1"], "3^700"),
    (["moments", "fourier:3", "--p-max", "99999999999", "--r-max", "1"], "3^99999999999"),
    (["dita-check", "--m", "2", "--n", "2", "--seed", "1", "--p-max", "700",
      "--r-max", "1"], "4^700"),
    (["bench", "--m", "2", "--n", "2", "--seed", "1", "--p", "99999999999", "--r", "1",
      "--reps", "1"], "4^99999999999"),
    (["moments", "fourier:1", "--p-max", "99999999999", "--r-max", "1"], "2^99999999999"),
    (["dita-check", "--m", "1", "--n", "1", "--seed", "1", "--p-max", "99999999999",
      "--r-max", "1"], "2^99999999999"),
], ids=["moments", "moments-1e11", "dita-check", "bench", "moments-size-1",
        "dita-check-size-1"])
def test_float_range_refuses_huge_words_at_once(command, power):
    proc = _limited_cli(command)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"error: {power} exceeds the float range\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [
    ["measure", "dita(2,2;seed=7)", "--r", "2"],
    ["moments", "dita(2,2;seed=7)", "--p-max", "2", "--r-max", "2"],
])
def test_non_hermitian_gram_exit_one(capsys, monkeypatch, command):
    exact = spectra._product_over_cycle

    def skewed(tensor, rows, cols, r):
        out = exact(tensor, rows, cols, r)
        out[-1, -2] += 1e-6
        return out

    monkeypatch.setattr(spectra, "_product_over_cycle", skewed)
    monkeypatch.setattr(spectra, "_dita_factors", lambda arr: None)  # the sector route
    code, out, err = run_cli(capsys, *command)
    assert code == 1
    assert out == "" and err.startswith("error:") and "not Hermitian" in err


# measure solves dita(2,2) on the structured route, and dita-check its H^t;
# the measure cases keep the bare fault names as ids
@pytest.mark.parametrize("command, fault", [
    pytest.param(command, fault, id=prefix + name)
    for prefix, command in [
        ("", ["measure", "dita(2,2;seed=7)", "--r", "2"]),
        ("dita-check-", ["dita-check", "--m", "2", "--n", "3", "--seed", "7", "--p-max", "2",
                         "--r-max", "2"])]
    for name, fault in STRUCTURED_FAULTS.items()])
def test_structured_route_fault_exit_one(capsys, monkeypatch, command, fault):
    install, _, match = fault
    install(monkeypatch)
    code, out, err = run_cli(capsys, *command)
    assert code == 1
    assert out == "" and err.startswith("error:") and match in err


def test_eigensolver_failure_exit_one(capsys, monkeypatch):
    exact = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda x: exact(x) * 0.5)
    code, out, err = run_cli(capsys, "measure", "fourier:3", "--r", "2")
    assert code == 1
    assert out == "" and err.startswith("error:") and "trace identity" in err


def test_measure_json(capsys):
    code, out, _ = run_cli(capsys, "measure", "fourier:4", "--r", "2")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 4 and data["r"] == 2
    weights = [a["w"] for a in data["atoms"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-10)


def test_measure_csv(capsys):
    code, out, _ = run_cli(capsys, "measure", "fourier:3", "--r", "1",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,w"
    assert len(lines) == 3
    x, w = lines[-1].split(",")
    assert float(x) == pytest.approx(3.0, abs=1e-10)
    assert float(w) == pytest.approx(1 / 3, abs=1e-10)


def test_measure_svg(capsys, tmp_path):
    path = tmp_path / "m.svg"
    code, _, _ = run_cli(capsys, "measure", "fourier:3", "--r", "2",
                         "--format", "svg", "--out", str(path))
    assert code == 0
    text = path.read_text()
    assert text.startswith("<svg") and text.endswith("</svg>\n")
    assert "rect" in text


@pytest.mark.parametrize("command", [
    pytest.param(["validate", "fourier:3"], id="json"),
    pytest.param(["measure", "fourier:3", "--r", "1", "--format", "csv"], id="csv"),
    pytest.param(["measure", "fourier:3", "--r", "2", "--format", "svg"], id="svg"),
])
def test_out_file_matches_stdout(capsys, tmp_path, command):
    code, out, _ = run_cli(capsys, *command)
    path = tmp_path / "out"
    code_file, out_file, _ = run_cli(capsys, *command, "--out", str(path))
    assert code == code_file == 0 and out_file == ""
    assert path.read_bytes() == out.encode() and out.endswith("\n")


def test_gen_then_file_spec_round_trip(capsys, tmp_path):
    path = tmp_path / "h.json"
    code, _, _ = run_cli(capsys, "gen", "dita(2,2;seed=7)", "--out", str(path))
    assert code == 0
    code, out_a, _ = run_cli(capsys, "moments", f"file={path}",
                             "--p-max", "3", "--r-max", "2")
    code_b, out_b, _ = run_cli(capsys, "moments", "dita(2,2;seed=7)",
                               "--p-max", "3", "--r-max", "2")
    assert code == 0 and code_b == 0
    # the serialized matrix must reproduce the table bit for bit
    assert out_a == out_b


def test_moments_json_and_csv(capsys):
    code, out, _ = run_cli(capsys, "moments", "fourier:3", "--p-max", "2",
                           "--r-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["c"][1][0] == pytest.approx(9.0)
    assert data["gamma"][1][1] == pytest.approx(1 / 3, rel=1e-10)
    code, out, _ = run_cli(capsys, "moments", "fourier:3", "--p-max", "2",
                           "--r-max", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,r,c,gamma"
    assert len(lines) == 1 + 2 * 3


def test_cesaro_csv(capsys):
    code, out, _ = run_cli(capsys, "cesaro", "fourier:4", "--p", "2",
                           "--k-max", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,s_k"
    assert len(lines) == 6
    assert float(lines[-1].split(",")[1]) == pytest.approx(4.0, abs=1e-10)


def test_csv_floats_are_rounded_once(capsys):
    # every float field is format(v, ".15g") of the value itself: signed
    # zeros, the smallest subnormal, the largest powers of ten, integers
    # stored as floats (Python's and numpy's) and values that 15 digits round
    floats = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, -4096.0, 1e15, 2.0**53,
              np.float64(9.0), np.float64(-0.0), 0.1 + 0.2, 1 / 3]
    _emit_csv("k,v", enumerate(floats, start=1), None)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["k,v", *(f"{k},{format(v, '.15g')}" for k, v in enumerate(floats, start=1))]
    assert lines[1:3] == ["1,0", "2,-0"] and lines[3] == "3,4.94065645841247e-324"


def test_cesaro_single_average_is_strict_json(capsys):
    # at k_max = 1 there is no last increment: null, not NaN
    code, out, _ = run_cli(capsys, "cesaro", "fourier:3", "--p", "1", "--k-max", "1")
    assert code == 0
    assert json.loads(out)["last_increment"] is None


def test_jsonify_maps_non_finite_floats_to_null():
    data = {"speedup": float("inf"), "grid": [float("nan"), -float("inf"), 0.5]}
    assert _jsonify(data) == {"speedup": None, "grid": [None, None, 0.5]}


def test_duality_command(capsys):
    code, out, _ = run_cli(capsys, "duality", "dita(2,3;seed=7)",
                           "--p-max", "2", "--r-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["max_residual"] < 1e-10


def test_duality_output_is_deterministic_but_for_elapsed(capsys):
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "duality", "dita(2,3;seed=7)",
                               "--p-max", "3", "--r-max", "3")
        assert code == 0
        data = json.loads(out)
        assert data.pop("elapsed_s") >= 0
        runs.append(json.dumps(data))
    assert runs[0] == runs[1]


def test_dita_check_seed(capsys):
    code, out, _ = run_cli(capsys, "dita-check", "--m", "2", "--n", "2",
                           "--seed", "7", "--p-max", "3", "--r-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["atoms_match"] is True
    # named as `duality` names the same matrix
    _, out, _ = run_cli(capsys, "duality", "dita(2,2;seed=7)", "--p-max", "1", "--r-max", "1")
    assert data["matrix"] == json.loads(out)["matrix"] == "dita(2,2;seed=7)"


def test_dita_check_qfile(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(
        {"m": 2, "n": 2, "angles": [[0.0, 0.4], [1.2, 2.5]]}))
    code, out, _ = run_cli(capsys, "dita-check", "--m", "2", "--n", "2",
                           "--qfile", str(path), "--p-max", "2", "--r-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["matrix"] == f"dita(2,2;file={path})"


@pytest.mark.parametrize("angle", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_angles_exit_two(capsys, tmp_path, angle):
    path = tmp_path / "q.json"
    path.write_text(f'{{"m": 2, "n": 2, "angles": [[{angle}, 0], [0, 0]]}}')
    for argv in (["gen", f"dita(2,2;file={path})"],
                 ["measure", f"dita(2,2;file={path})", "--r", "2"],
                 ["dita-check", "--m", "2", "--n", "2", "--qfile", str(path),
                  "--p-max", "2", "--r-max", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert out == "" and "non-finite" in err


@pytest.mark.parametrize("doc, argv", [
    pytest.param({"m": 2, "n": 2, "angles": [[{}, 0], [0, 0]]}, None, id="dict-angle"),
    pytest.param({"m": 2, "n": 2, "angles": [["0.5", 0], [0, 0]]}, None,
                 id="numeric-string-angle"),
    pytest.param({"m": 2, "n": 2.0, "angles": [[0, 0], [0, 0]]}, None, id="n-float"),
    # a bool m would match the shape (1, 2) of its angles as 1
    pytest.param({"m": True, "n": 2, "angles": [[0, 0]]}, ["gen", "dita(1,2;file={})"],
                 id="m-bool"),
    pytest.param({"m": 2, "n": 2}, None, id="missing-key"),
])
def test_malformed_phase_json_exit_two(capsys, tmp_path, doc, argv):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    if argv is None:
        argv = ["dita-check", "--m", "2", "--n", "2", "--qfile", "{}", "--p-max", "1",
                "--r-max", "1"]
    code, out, err = run_cli(capsys, *(arg.format(path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_phase_file_shape_mismatch_exit_two(capsys, tmp_path):
    # refused when the file is read, before `dita` could check the shape again
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"m": 2, "n": 2, "angles": [[0, 0], [0, 0]]}))
    code, out, err = run_cli(capsys, "gen", f"dita(2,3;file={path})")
    assert code == 2
    assert out == "" and "phase matrix file has shape (2, 2), expected (2, 3)" in err


def test_bench_command(capsys):
    code, out, _ = run_cli(capsys, "bench", "--m", "2", "--n", "2",
                           "--seed", "7", "--p", "2", "--r", "2", "--reps", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["dense_ms"] > 0 and data["structured_ms"] > 0


@pytest.mark.parametrize("m, n", [("1", "2"), ("2", "1")])
def test_bench_degenerate_factor_exit_two(capsys, m, n):
    code, out, err = run_cli(capsys, "bench", "--m", m, "--n", n, "--seed", "3",
                             "--p", "2", "--r", "2", "--reps", "1")
    assert code == 2
    assert out == "" and "M, N >= 2" in err


def test_bench_disagreement_exit_one(capsys, monkeypatch):
    # the structured path made wrong: the bench raises before it times anything
    dita_mod = sys.modules["hadtrunc.dita"]
    exact = dita_mod.structured_moments
    monkeypatch.setattr(dita_mod, "structured_moments", lambda *args, **kwargs:
                        exact(*args, **kwargs) + 1e-6)
    code, out, err = run_cli(capsys, "bench", "--m", "2", "--n", "2",
                             "--seed", "7", "--p", "2", "--r", "2", "--reps", "1")
    assert code == 1
    assert out == "" and "disagrees with dense" in err


def test_missing_file_exit_two(capsys, tmp_path):
    code, _, err = run_cli(capsys, "gen", f"file={tmp_path}/nope.json")
    assert code == 2
    assert "error" in err


def test_output_floats_are_short(capsys):
    # emitted floats are rounded to 15 significant digits
    _, out, _ = run_cli(capsys, "moments", "fourier:3", "--p-max", "3",
                        "--r-max", "3")
    for token in out.replace(",", " ").split():
        assert len(token.strip("[]")) < 24


@pytest.mark.parametrize("command", [
    ["dita-check", "--m", "2", "--n", "2", "--p-max", "2", "--r-max", "2"],
    ["bench", "--m", "2", "--n", "2", "--p", "2", "--r", "2", "--reps", "1"],
])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seed_out_of_range_exit_two(capsys, command, seed):
    # the [0, 2^64) bound of seed= in a spec; -1 would wrap to 2^64 - 1
    code, out, err = run_cli(capsys, *command, "--seed", str(seed))
    assert code == 2
    assert out == "" and "--seed" in err


_INTEGER_FLAG_COMMANDS = [
    ["dita-check", "--m", "2", "--n", "2", "--seed", "1", "--p-max", "1", "--r-max", "1",
     "--cap", "16"],
    ["bench", "--m", "2", "--n", "2", "--seed", "1", "--p", "1", "--r", "1", "--reps", "1"],
    ["measure", "fourier:2", "--r", "1"],
    ["moments", "fourier:2", "--p-max", "1", "--r-max", "1"],
    ["cesaro", "fourier:2", "--p", "1", "--k-max", "1"],
]


@pytest.mark.parametrize("command, at", [
    pytest.param(command, at, id=f"{command[0]}{command[at]}")
    for command in _INTEGER_FLAG_COMMANDS for at in range(1, len(command))
    if command[at].startswith("--")])
@pytest.mark.parametrize("value", ["\u0662", "1_000", "+1", "1" * 21],
                         ids=["arabic-indic", "underscore", "sign", "21-digits"])
def test_integer_flags_are_ascii_digits(capsys, command, at, value):
    # read as a spec reads an integer: 1 to 20 ASCII digits and nothing else
    argv = [*command[:at + 1], value, *command[at + 2:]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {command[at]}: must be 1 to 20 ASCII digits" in err


_COUNT_FLAGS = {("measure", "--r"), ("moments", "--r-max"), ("dita-check", "--seed"),
                ("bench", "--seed")}  # flags that take 0


@pytest.mark.parametrize("command, at", [
    pytest.param(command, at, id=f"{command[0]}{command[at]}")
    for command in _INTEGER_FLAG_COMMANDS for at in range(1, len(command))
    if command[at].startswith("--") and (command[0], command[at]) not in _COUNT_FLAGS])
def test_positive_flags_refuse_zero(capsys, command, at):
    argv = [*command[:at + 1], "0", *command[at + 2:]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {command[at]}: must be >= 1, got 0" in err


def test_seed_largest_accepted(capsys):
    code, out, _ = run_cli(capsys, "dita-check", "--m", "2", "--n", "2",
                           "--seed", str(2**64 - 1), "--p-max", "2", "--r-max", "2")
    assert code == 0 and json.loads(out)["pass"] is True


@pytest.mark.parametrize("module", ["hadtrunc", "hadtrunc.cli"])
@pytest.mark.parametrize("command", [
    pytest.param(["validate", "fourier:3"], id="pass"),
    pytest.param(["measure", "dita(2,2;seed=", "--r", "1"], id="exit-two"),
])
def test_python_m_runs_main(capsys, module, command):
    # `python -m hadtrunc` and `python -m hadtrunc.cli` answer as main() does
    code, out, err = run_cli(capsys, *command)
    proc = subprocess.run([sys.executable, "-m", module, *command], env=FRESH_ENV,
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
