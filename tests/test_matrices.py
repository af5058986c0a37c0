import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadtrunc as ht
from hadtrunc.dita import structured_gram_matrix
from hadtrunc.errors import ORTHOGONALITY_TOL, UNIMODULARITY_TOL, HadamardValidationError
from hadtrunc.matrices import matrix_from_dict, matrix_to_dict, splitmix64
from hadtrunc.specs import SEED_LIMIT

KLEIN = np.array([
    [1, 1, 1, 1],
    [1, -1, 1, -1],
    [1, 1, -1, -1],
    [1, -1, -1, 1],
], dtype=complex)


def test_fourier_small():
    assert np.allclose(ht.fourier(1).array, [[1]])
    assert np.allclose(ht.fourier(2).array, [[1, 1], [1, -1]])


def test_fourier_4_entry():
    # entry (3,3) is w^9 = i
    assert ht.fourier(4).array[3, 3] == pytest.approx(1j, abs=1e-12)


@pytest.mark.parametrize("n", [18, 64])
def test_fourier_exponent_is_reduced(n):
    # exp(2 pi i ij / N) with ij unreduced is off by 1.5e-14 at N = 18 and
    # 4.1e-14 at N = 64; each entry must be w^(ij mod N) exactly
    idx = np.arange(n)
    arr = ht.fourier(n).array
    assert np.array_equal(arr, np.exp(2j * np.pi * (np.outer(idx, idx) % n) / n))
    assert np.array_equal(arr, arr[np.outer(idx, idx) % n, 1])


def test_fourier_rejects_zero():
    with pytest.raises(ValueError):
        ht.fourier(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
def test_fourier_is_hadamard(n):
    report = ht.validate(ht.fourier(n).array)
    assert report.passed
    assert report.unimodularity_dev < 1e-12


def test_fourier_group_single_factor():
    assert np.array_equal(ht.fourier_group([2]).array, ht.fourier(2).array)


def test_fourier_group_klein():
    assert np.allclose(ht.fourier_group([2, 2]).array, KLEIN, atol=1e-14)


def test_fourier_group_matches_tensor_fold():
    lhs = ht.fourier_group([2, 3]).array
    rhs = ht.tensor(ht.fourier(2), ht.fourier(3)).array
    assert np.array_equal(lhs, rhs)


def test_fourier_group_rejects_empty():
    with pytest.raises(ValueError):
        ht.fourier_group([])


def test_tensor_identity_factor():
    k = ht.fourier(3)
    assert np.array_equal(ht.tensor(ht.fourier(1), k).array, k.array)


def test_tensor_index_pairing():
    h, k = ht.fourier(2), ht.fourier(3)
    t = ht.tensor(h, k)
    for i, a, j, b in [(1, 2, 0, 1), (0, 0, 1, 2), (1, 1, 1, 1)]:
        assert t.array[i * 3 + a, j * 3 + b] == pytest.approx(
            h.array[i, j] * k.array[a, b])


def test_dita_undeformed_is_tensor():
    q = np.ones((2, 2), dtype=complex)
    lhs = ht.dita(2, 2, q).array
    rhs = ht.tensor(ht.fourier(2), ht.fourier(2)).array
    assert np.abs(lhs - rhs).max() < 1e-12


def test_dita_entry_formula():
    q = ht.seeded_phase_matrix(2, 2, 3)
    h = ht.dita(2, 2, q)
    # ((1,1),(1,1)) entry is Q_11 * (-1) * (-1)
    assert h.array[3, 3] == pytest.approx(q[1, 1])


def test_dita_shape_mismatch():
    with pytest.raises(ValueError):
        ht.dita(2, 3, np.ones((3, 2), dtype=complex))
    with pytest.raises(ValueError, match="must be two-dimensional"):
        ht.dita(2, 2, np.ones(4, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dita_rejects_non_finite_phases(bad):
    q = np.ones((2, 2), dtype=complex)
    q[0, 1] = bad
    with pytest.raises(ValueError, match="unimodular"):
        ht.dita(2, 2, q)
    with pytest.raises(ValueError, match="unimodular"):
        ht.structured_moments(q, 1, 1)
    with pytest.raises(ValueError, match="unimodular"):
        structured_gram_matrix(q, 1)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 4), n=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
def test_dita_seeded_always_hadamard(m, n, seed):
    q = ht.seeded_phase_matrix(m, n, seed)
    assert ht.validate(ht.dita(m, n, q).array).passed


def test_transform_algebra(small_matrix):
    h = small_matrix
    assert np.array_equal(ht.conjugate(ht.conjugate(h)).array, h.array)
    assert np.array_equal(ht.transpose(ht.transpose(h)).array, h.array)
    assert np.array_equal(ht.adjoint(ht.adjoint(h)).array, h.array)
    assert np.array_equal(ht.adjoint(ht.conjugate(h)).array, ht.transpose(h).array)
    assert np.array_equal(ht.transpose(ht.conjugate(h)).array, ht.adjoint(h).array)
    for derived in (ht.conjugate(h), ht.transpose(h), ht.adjoint(h)):
        assert ht.validate(derived.array).passed


def test_fourier_symmetric():
    f = ht.fourier(5)
    assert np.array_equal(ht.transpose(f).array, f.array)


def test_conjugate_f2_real():
    f = ht.fourier(2)
    assert np.allclose(ht.conjugate(f).array, f.array, atol=1e-15)


def test_validate_all_ones_fails():
    report = ht.validate(np.ones((2, 2), dtype=complex))
    assert not report.passed
    assert report.orthogonality_dev == pytest.approx(2.0)


def test_validate_scaled_entry_fails():
    arr = ht.fourier(3).array.copy()
    arr[1, 1] *= 2.0
    report = ht.validate(arr)
    assert not report.passed
    assert report.unimodularity_dev == pytest.approx(1.0)


def test_validate_rejects_nonsquare():
    with pytest.raises(ValueError):
        ht.validate(np.ones((2, 3), dtype=complex))


@pytest.mark.parametrize("name", ["uni_tol", "orth_tol"])
@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_validate_rejects_bad_tolerance(name, tol):
    # the tolerances are fixed in hadtrunc.errors; no caller can set one, good or bad
    with pytest.raises(TypeError, match=f"'{name}'"):
        ht.validate(ht.fourier(2).array, **{name: tol})
    report = ht.validate(ht.fourier(2).array)
    assert report.unimodularity_tol == UNIMODULARITY_TOL
    assert report.orthogonality_tol == ORTHOGONALITY_TOL * 2


def test_hadamard_wrapper_copies_its_input():
    a = ht.fourier(3).array.copy()  # C-contiguous and complex: the case that was aliased
    h = ht.hadamard(a)
    assert a.flags.writeable and not h.array.flags.writeable
    a[0, 0] = 1j
    assert h.array[0, 0] == 1


def test_hadamard_wrapper_rejects_bad_matrix():
    with pytest.raises(HadamardValidationError):
        ht.hadamard(np.ones((2, 2)))


def test_dephase_fixes_fourier():
    f = ht.fourier(4)
    assert np.abs(ht.dephase(f).array - f.array).max() < 1e-12


def test_dephase_absorbs_phases(small_matrix):
    h = small_matrix
    phased = ht.hadamard(h.array * np.exp(0.7j), check=True)
    assert np.abs(ht.dephase(phased).array - ht.dephase(h).array).max() < 1e-12


def test_dephase_idempotent(corpus_matrix):
    once = ht.dephase(corpus_matrix)
    twice = ht.dephase(once)
    assert np.abs(twice.array - once.array).max() < 1e-12


def test_dephase_dita_block():
    # top-left 2x2 block of the dephased deformation is the dephased F_2
    # block, regardless of the phases
    q = ht.seeded_phase_matrix(2, 2, 7)
    d = ht.dephase(ht.dita(2, 2, q))
    assert np.abs(d.array[:2, :2] - np.array([[1, 1], [1, -1]])).max() < 1e-12


def test_splitmix64_reference_vector():
    # standard test vector for seed 0
    assert splitmix64(0, 3) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_seeded_phase_matrix_reproducible():
    a = ht.seeded_phase_matrix(3, 4, 99)
    b = ht.seeded_phase_matrix(3, 4, 99)
    assert np.array_equal(a, b)
    assert np.abs(np.abs(a) - 1).max() < 1e-15
    assert not np.array_equal(a, ht.seeded_phase_matrix(3, 4, 100))


def test_matrix_json_roundtrip(tmp_path, small_matrix):
    path = tmp_path / "m.json"
    ht.save_matrix(small_matrix, path)
    loaded = ht.load_matrix(path)
    assert np.array_equal(loaded.array, small_matrix.array)


def test_matrix_json_rejects_bad_shapes():
    good = matrix_to_dict(ht.fourier(2))
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 2, "entries": [[[1, 0], [1, 0]]]})
    with pytest.raises(ValueError):
        matrix_from_dict({"n": 2, "entries": [good["entries"][0], [[1, 0]]]})
    with pytest.raises(ValueError):
        matrix_from_dict({"entries": good["entries"]})
    # rows of numbers instead of [re, im] pairs, and members that are no numbers
    for entries in ([[1, 2], [3, 4]], [[["a", "b"]]], [[[{}, 0]]]):
        with pytest.raises(ValueError, match="'entries'"):
            matrix_from_dict({"n": len(entries), "entries": entries})


def test_phase_matrix_file(tmp_path):
    path = tmp_path / "q.json"
    angles = [[0.0, 1.0], [2.0, 3.0]]
    path.write_text(json.dumps({"m": 2, "n": 2, "angles": angles}))
    q = ht.matrices.load_phase_matrix(path)
    assert np.allclose(q, np.exp(1j * np.array(angles)))
    path.write_text(json.dumps({"m": 3, "n": 2, "angles": angles}))
    with pytest.raises(ValueError):
        ht.matrices.load_phase_matrix(path)


@pytest.mark.parametrize("doc, match", [
    ({"m": True, "n": 2, "angles": [[0.0, 1.0]]}, "'m' must be a positive integer"),
    ({"m": 1, "n": 2.0, "angles": [[0.0, 1.0]]}, "'n' must be a positive integer"),
    ({"m": 1, "n": 2, "angles": [[{}, 1.0]]}, "not an array of numbers"),
    ({"m": 1, "n": 2, "angles": [["0", 1.0]]}, "no number"),
    ({"m": 1, "n": 2, "angles": [[False, 1.0]]}, "no number"),
])
def test_phase_matrix_file_rejects_members(tmp_path, doc, match):
    path = tmp_path / "q.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        ht.matrices.load_phase_matrix(path)


@pytest.mark.parametrize("doc, match", [
    ({"n": True, "entries": [[[1, 0]]]}, "'n' must be a positive integer"),
    ({"n": 1, "entries": [[["1", 0]]]}, "no number"),
    ({"n": 1, "entries": [[[1, True]]]}, "no number"),
    ({"n": 1, "entries": [[[10**400, 0]]]}, "not an array of numbers"),
])
def test_matrix_json_rejects_members(doc, match):
    with pytest.raises(ValueError, match=match):
        matrix_from_dict(doc)


@pytest.mark.parametrize("seed", [
    pytest.param(2**64, id="too-large"),
    pytest.param(-1, id="negative"),
    pytest.param(7.9, id="float"),
    pytest.param(7.0, id="integral-float"),
    pytest.param(True, id="bool"),
    pytest.param("7", id="string"),
])
def test_seeded_phase_matrix_rejects_aliasing_seeds(seed):
    # masked, 2^64 would give the matrix of 0, -1 that of 2^64 - 1, 7.9 that of 7
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\^64\)"):
        ht.seeded_phase_matrix(2, 2, seed)


def test_seeded_phase_matrix_seed_bounds():
    assert SEED_LIMIT == 2**64
    ht.seeded_phase_matrix(2, 2, 0)
    last = ht.seeded_phase_matrix(2, 2, SEED_LIMIT - 1)
    assert np.array_equal(last, ht.seeded_phase_matrix(2, 2, np.uint64(SEED_LIMIT - 1)))
