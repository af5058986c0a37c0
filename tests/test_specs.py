import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc.errors import SpecSyntaxError
from hadtrunc.specs import (DitaSpec, FileSpec, FourierGroupSpec, FourierSpec,
                            TensorSpec, UnarySpec, parse_matrix_spec, unparse)


def test_parse_fourier():
    assert parse_matrix_spec("fourier:4") == FourierSpec(4)


def test_parse_fourier_group():
    assert parse_matrix_spec("fouriergroup:2x3x4") == FourierGroupSpec((2, 3, 4))
    assert parse_matrix_spec("fouriergroup:5") == FourierGroupSpec((5,))


def test_parse_tensor_nested():
    spec = parse_matrix_spec("tensor(fourier:2,fourier:3)")
    assert spec == TensorSpec(FourierSpec(2), FourierSpec(3))
    spec = parse_matrix_spec("tensor(tensor(fourier:2,fourier:2),fourier:3)")
    assert spec.left == TensorSpec(FourierSpec(2), FourierSpec(2))


def test_parse_dita_seed():
    assert parse_matrix_spec("dita(2,2;seed=7)") == DitaSpec(2, 2, ("seed", 7))


def test_parse_dita_qfile():
    assert parse_matrix_spec("dita(2,3;file=q.json)") == \
        DitaSpec(2, 3, ("file", "q.json"))


def test_parse_unary_and_file():
    assert parse_matrix_spec("conj(fourier:3)") == UnarySpec("conj", FourierSpec(3))
    assert parse_matrix_spec("adjoint(transpose(fourier:2))") == \
        UnarySpec("adjoint", UnarySpec("transpose", FourierSpec(2)))
    assert parse_matrix_spec("file=some/matrix.json") == FileSpec("some/matrix.json")


def test_parse_file_inside_tensor():
    spec = parse_matrix_spec("tensor(file=a.json,fourier:2)")
    assert spec.left == FileSpec("a.json")


@pytest.mark.parametrize("text,offset", [
    ("fourier:", 8),
    ("fourier:x", 8),
    ("tensor(fourier:2fourier:3)", 16),
    ("dita(2,2;sod=7)", 9),
    ("fourier:3trailing", 9),
    ("file=", 5),
    ("dita(2,2;file=)", 14),
])
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(SpecSyntaxError) as exc:
        parse_matrix_spec(text)
    assert exc.value.offset == offset


def test_parse_unknown_constructor():
    with pytest.raises(SpecSyntaxError, match="unknown constructor"):
        parse_matrix_spec("walsh:4")


def test_parse_nonpositive_order():
    with pytest.raises(SpecSyntaxError, match=">= 1"):
        parse_matrix_spec("fourier:0")
    with pytest.raises(SpecSyntaxError, match=">= 1"):
        parse_matrix_spec("fouriergroup:2x0")


def test_parse_oversized_seed():
    with pytest.raises(SpecSyntaxError, match="64 bits"):
        parse_matrix_spec(f"dita(2,2;seed={2**64})")


@pytest.mark.parametrize("text", [
    "fourier:4",
    "fouriergroup:2x3",
    "tensor(fourier:2,dita(2,2;seed=7))",
    "conj(transpose(fourier:5))",
    "file=m.json",
])
def test_unparse_roundtrip(text):
    assert unparse(parse_matrix_spec(text)) == text


def test_build_matrix_from_string():
    h = ht.build_matrix("tensor(fourier:2,fourier:3)")
    assert np.array_equal(h.array, ht.tensor(ht.fourier(2), ht.fourier(3)).array)
    assert h.n == 6


def test_build_dita_seed_deterministic():
    a = ht.build_matrix("dita(2,3;seed=7)")
    b = ht.build_matrix("dita(2,3;seed=7)")
    assert np.array_equal(a.array, b.array)
    assert a.provenance == "dita(2,3;seed=7)"


def test_build_unary_specs():
    h = ht.build_matrix("dita(2,2;seed=7)")
    assert np.array_equal(ht.build_matrix("conj(dita(2,2;seed=7))").array,
                          h.array.conj())
    assert np.array_equal(ht.build_matrix("transpose(dita(2,2;seed=7))").array,
                          h.array.T)


def test_build_from_file(tmp_path):
    path = tmp_path / "f4.json"
    ht.save_matrix(ht.fourier(4), path)
    h = ht.build_matrix(f"file={path}")
    assert np.array_equal(h.array, ht.fourier(4).array)
