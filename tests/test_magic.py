import tracemalloc

import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import magic, spectra
from hadtrunc.errors import DEFAULT_CAP, CapExceededError, MagicGridError
from hadtrunc.magic import MagicGrid, multi_indices

from conftest import NAMED_INPUTS, SMALL_SPECS, build_input, tao6_matrix


def brute_word_trace(h, a, b):
    """Independent oracle: normalized trace of P_{a1 b1} ... P_{ap bp} with
    projections built by explicit outer products of row ratios."""
    arr = h.array
    n = h.n
    prod = np.eye(n, dtype=complex)
    for i, j in zip(a, b):
        v = arr[i] / arr[j]
        prod = prod @ (np.outer(v, v.conj()) / n)
    return np.trace(prod) / n


def test_grid_f1():
    grid = ht.magic_grid(ht.fourier(1))
    assert grid.projections.shape == (1, 1, 1, 1)
    assert grid.projections[0, 0, 0, 0] == pytest.approx(1.0)


def test_grid_diagonal_is_flat(corpus_matrix):
    grid = ht.magic_grid(corpus_matrix)
    n = corpus_matrix.n
    flat = np.full((n, n), 1.0 / n)
    for i in range(n):
        assert np.abs(grid.projections[i, i] - flat).max() < 1e-12


def test_grid_f2_offdiagonal():
    grid = ht.magic_grid(ht.fourier(2))
    expected = 0.5 * np.array([[1, -1], [-1, 1]])
    assert np.abs(grid.projections[0, 1] - expected).max() < 1e-14


def test_verify_magic_corpus(corpus_matrix):
    report = ht.verify_magic(ht.magic_grid(corpus_matrix))
    assert report.passed
    # all corpus sizes are <= 6, where roundoff stays tiny
    assert max(report.idempotency_dev, report.self_adjointness_dev,
               report.row_sum_dev, report.col_sum_dev) < 1e-12


def test_verify_magic_detects_missing_projector():
    grid = ht.magic_grid(ht.fourier(3))
    broken = grid.projections.copy()
    broken[0, 1] = 0.0
    report = ht.verify_magic(MagicGrid(3, broken))
    assert not report.passed
    # removing P_01 leaves a row-sum defect of -P_01, whose largest entry
    # has modulus 1/3
    assert report.row_sum_dev == pytest.approx(1 / 3, abs=1e-12)


def test_magic_grid_rejects_non_hadamard():
    fake = ht.hadamard(np.ones((3, 3)), check=False)
    with pytest.raises(MagicGridError):
        ht.magic_grid(fake)


def test_magic_deviations_per_projection(monkeypatch):
    h = tao6_matrix()
    p = magic._grid_array(h)
    p[1, 2] *= 1.5  # (1.5 P)^2 - 1.5 P = 0.75 P: only P_(1,2) stops being idempotent
    idem = magic._magic_deviations(p)[1]
    expected = np.array([[np.abs(p[i, j] @ p[i, j] - p[i, j]).max() for j in range(6)]
                         for i in range(6)])
    assert np.abs(idem - expected).max() < 1e-15
    assert np.unravel_index(idem.argmax(), idem.shape) == (1, 2)
    monkeypatch.setattr(magic, "_grid_array", lambda _: p)
    with pytest.raises(MagicGridError, match=r"idempotency fails at P_\(1,2\)"):
        ht.magic_grid(h)


def test_truncation_tensor_depth_one(corpus_matrix):
    n = corpus_matrix.n
    t1 = ht.truncation_tensor(ht.magic_grid(corpus_matrix), 1)
    assert np.abs(t1 - 1.0 / n).max() < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
def test_truncation_tensor_trace_rows(small_matrix, p):
    n = small_matrix.n
    t = ht.truncation_tensor(ht.magic_grid(small_matrix), p)
    # r = 0 identity convention and the r = 1 closed form
    assert np.trace(np.eye(n**p)) == pytest.approx(n**p)
    assert np.trace(t) == pytest.approx(n ** (p - 1), rel=1e-12)
    # diagonal entries are the normalized trace of the flat matrix
    assert np.abs(np.diag(t) - 1.0 / n).max() < 1e-12
    assert np.abs(t).max() <= 1.0 + 1e-12


def test_truncation_tensor_matches_brute_traces():
    h = ht.build_matrix("dita(2,2;seed=7)")
    t = ht.truncation_tensor(ht.magic_grid(h), 2)
    digits = multi_indices(4, 2)
    for flat_a in [0, 3, 7, 10, 15]:
        for flat_b in [1, 4, 9, 14]:
            expected = brute_word_trace(h, digits[flat_a], digits[flat_b])
            assert t[flat_a, flat_b] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("h,p", [
    pytest.param(tao6_matrix(), 3, id="tao6-p3"),  # complex T_3
    pytest.param(ht.build_matrix("dita(2,3;seed=7)"), 3, id="dita23-seed7-p3"),
    pytest.param(ht.build_matrix("dita(2,2;seed=7)"), 5, id="dita22-seed7-p5"),
])
def test_truncation_tensor_matches_brute_traces_odd(h, p):
    # odd p, so the first half-word is one letter longer than the second
    t = ht.truncation_tensor(ht.magic_grid(h), p)
    dim = h.n**p
    digits = multi_indices(h.n, p)
    corners = [(0, 0), (0, dim - 1), (dim - 1, 0), (dim - 1, dim - 1)]
    interior = np.random.default_rng(2014).integers(1, dim - 1, size=(10, 2))
    for flat_a, flat_b in [*corners, *interior]:
        expected = brute_word_trace(h, digits[flat_a], digits[flat_b])
        assert t[flat_a, flat_b] == pytest.approx(expected, abs=1e-12)


# Every word length under the cap, for the small specs, the named inputs (tao6
# among them) and dita(3,3;seed=1), whose T_3 is complex.
HALF_WORD_CASES = [(spec, p)
                   for spec in [*SMALL_SPECS, *NAMED_INPUTS, "dita(3,3;seed=1)"]
                   for n in [build_input(spec).n]
                   for p in range(1, 13) if n**p <= DEFAULT_CAP]


@pytest.mark.parametrize("spec, p", HALF_WORD_CASES)
def test_half_word_trace_is_dense_trace(spec, p):
    grid = ht.magic_grid(build_input(spec))
    t = ht.truncation_tensor(grid, p)
    for r in (1, 2):
        want = spectra._trace_power(t, r)
        assert magic._truncation_trace(grid, p, r) == pytest.approx(want, rel=1e-12, abs=0)


def test_truncation_tensor_cap():
    grid = ht.magic_grid(ht.fourier(6))
    with pytest.raises(CapExceededError):
        ht.truncation_tensor(grid, 5)  # 6^5 = 7776 > 4096
    with pytest.raises(CapExceededError, match=r"6\^100000000000"):
        ht.truncation_tensor(grid, 10**11)  # refused without forming the power


def test_truncation_tensor_peak_is_one_output():
    grid = ht.magic_grid(ht.fourier(6))
    tracemalloc.start()
    try:
        t = ht.truncation_tensor(grid, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * t.nbytes  # the output is 1296^2 complex entries, 25.6 MiB


@pytest.mark.parametrize("spec,p,bound", [
    ("fourier:6", 4, 1.1),  # the output is the peak
    ("dita(3,3;seed=1)", 3, 2.1),  # W_2 is as large as the output
])
def test_truncation_tensor_written_once(spec, p, bound):
    grid = ht.magic_grid(ht.build_matrix(spec))
    tracemalloc.start()
    try:
        t = ht.truncation_tensor(grid, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound * t.nbytes  # a transposed copy of the output would add 1.0


def test_word_integral_depth_zero():
    h = ht.fourier(3)
    assert ht.truncated_integral_word(h, 0, [0, 1], [0, 1]) == 1
    assert ht.truncated_integral_word(h, 0, [0, 1], [1, 0]) == 0


def test_word_integral_depth_one_single_letter(corpus_matrix):
    n = corpus_matrix.n
    val = ht.truncated_integral_word(corpus_matrix, 1, [0], [n - 1])
    assert val == pytest.approx(1.0 / n, abs=1e-12)


def test_word_integral_depth_one_is_direct_trace():
    h = ht.build_matrix("dita(2,3;seed=7)")
    a, b = [2, 5, 1], [0, 4, 3]
    val = ht.truncated_integral_word(h, 1, a, b)
    assert val == pytest.approx(brute_word_trace(h, a, b), abs=1e-12)


@pytest.mark.parametrize("p,r", [(1, 2), (2, 1), (2, 3)])
def test_word_integrals_sum_to_moments(small_matrix, p, r):
    h = small_matrix
    n = h.n
    digits = multi_indices(n, p)
    total = sum(ht.truncated_integral_word(h, r, row, row) for row in digits)
    assert total == pytest.approx(ht.moments_via_T(h, p, r), abs=1e-9 * n**p)


def test_word_integral_is_entry_of_power():
    h = ht.build_matrix("dita(2,3;seed=7)")
    a, b = [0, 0, 3], [1, 1, 4]
    power = np.linalg.matrix_power(ht.truncation_tensor(ht.magic_grid(h), 3), 5)
    want = power[np.ravel_multi_index(a, (6,) * 3), np.ravel_multi_index(b, (6,) * 3)]
    assert abs(want) > 1e-2
    assert ht.truncated_integral_word(h, 5, a, b) == pytest.approx(want, rel=1e-12)


def test_word_integral_peak_is_one_tensor():
    tracemalloc.start()
    try:
        val = ht.truncated_integral_word(ht.fourier(6), 8, [0, 1, 2, 3], [1, 2, 3, 4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert val == pytest.approx(1 / 6, abs=1e-12)  # T_p of F_N is a projection
    assert peak < 2 * 1296**2 * 16  # twice T_4, 25.6 MiB


@pytest.mark.parametrize("call, match", [
    (lambda h: ht.truncation_tensor(ht.magic_grid(h), 0), "word length p must be >= 1"),
    (lambda h: ht.truncated_integral_word(h, 1, [], []),
     "index lists must be nonempty and of equal length"),
    (lambda h: ht.truncated_integral_word(h, 1, [0, 1], [0]),
     "index lists must be nonempty and of equal length"),
    (lambda h: ht.truncated_integral_word(h, -1, [0], [1]), "truncation depth must be >= 0"),
], ids=["tensor-p", "word-empty", "word-unequal", "word-r"])
def test_grid_calls_check_arguments(call, match):
    with pytest.raises(ValueError, match=f"^{match}$"):
        call(ht.fourier(3))


def test_word_integral_index_range():
    with pytest.raises(IndexError):
        ht.truncated_integral_word(ht.fourier(3), 1, [0, 3], [0, 0])


def test_grid_relations(corpus_matrix):
    assert ht.grid_relations_check(corpus_matrix) < 1e-12
