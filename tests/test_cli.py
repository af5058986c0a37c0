import json

import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
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


def test_cap_exceeded_exit_three(capsys):
    code, _, err = run_cli(capsys, "measure", "fourier:6", "--r", "5")
    assert code == 3
    assert "cap" in err.lower()


@pytest.mark.parametrize("command", [
    ["measure", "dita(2,2;seed=7)", "--r", "2"],
    ["moments", "dita(2,2;seed=7)", "--p-max", "2", "--r-max", "2"],
])
def test_non_hermitian_gram_exit_one(capsys, monkeypatch, command):
    exact = spectra.gram_matrix

    def skewed(h, r, **kwargs):
        x = exact(h, r, **kwargs)
        x[-1, -2] += 1e-6
        return x

    monkeypatch.setattr(spectra, "gram_matrix", skewed)
    code, out, err = run_cli(capsys, *command)
    assert code == 1
    assert out == "" and err.startswith("error:") and "not Hermitian" in err


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
    assert text.startswith("<svg") and text.endswith("</svg>")
    assert "rect" in text


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


def test_duality_command(capsys):
    code, out, _ = run_cli(capsys, "duality", "dita(2,3;seed=7)",
                           "--p-max", "2", "--r-max", "2")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["max_residual"] < 1e-10


def test_dita_check_seed(capsys):
    code, out, _ = run_cli(capsys, "dita-check", "--m", "2", "--n", "2",
                           "--seed", "7", "--p-max", "3", "--r-max", "3")
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True and data["atoms_match"] is True


def test_dita_check_qfile(capsys, tmp_path):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(
        {"m": 2, "n": 2, "angles": [[0.0, 0.4], [1.2, 2.5]]}))
    code, out, _ = run_cli(capsys, "dita-check", "--m", "2", "--n", "2",
                           "--qfile", str(path), "--p-max", "2", "--r-max", "2")
    assert code == 0
    assert json.loads(out)["pass"] is True


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


def test_bench_command(capsys):
    code, out, _ = run_cli(capsys, "bench", "--m", "2", "--n", "2",
                           "--seed", "7", "--p", "2", "--r", "2", "--reps", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    assert data["dense_ms"] > 0 and data["structured_ms"] > 0


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


def test_seed_largest_accepted(capsys):
    code, out, _ = run_cli(capsys, "dita-check", "--m", "2", "--n", "2",
                           "--seed", str(2**64 - 1), "--p-max", "2", "--r-max", "2")
    assert code == 0 and json.loads(out)["pass"] is True
