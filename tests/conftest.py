import numpy as np
import pytest

import hadtrunc as ht
from hadtrunc import spectra
from hadtrunc.errors import EigensolverError

# Matrices the identity checks run over: Fourier sizes 2..6, one tensor
# product, and deformed Fourier matrices with a few seeds.
CORPUS_SPECS = [
    "fourier:2",
    "fourier:3",
    "fourier:4",
    "fourier:5",
    "fourier:6",
    "tensor(fourier:2,fourier:3)",
    "dita(2,2;seed=1)",
    "dita(2,2;seed=7)",
    "dita(2,2;seed=13)",
    "dita(2,3;seed=7)",
]

# Cheap subset for the O(N^p)-heavy property tests.
SMALL_SPECS = [
    "fourier:2",
    "fourier:3",
    "tensor(fourier:2,fourier:2)",
    "dita(2,2;seed=7)",
]

# Tao's 6x6 complex Hadamard matrix is w^E with w = e^{2 pi i/3}; unlike the
# corpus, its depth-3 Gram matrices are genuinely complex.
TAO6_EXPONENTS = [[0, 0, 0, 0, 0, 0],
                  [0, 0, 1, 1, 2, 2],
                  [0, 1, 0, 2, 2, 1],
                  [0, 1, 2, 0, 1, 2],
                  [0, 2, 2, 1, 0, 1],
                  [0, 2, 1, 2, 1, 0]]


def tao6_matrix():
    return ht.hadamard(np.exp(2j * np.pi / 3 * np.array(TAO6_EXPONENTS)), "tao6")


@pytest.fixture(scope="session")
def corpus():
    return {spec: ht.build_matrix(spec) for spec in CORPUS_SPECS}


@pytest.fixture(scope="session", params=CORPUS_SPECS)
def corpus_matrix(request, corpus):
    return corpus[request.param]


@pytest.fixture(scope="session", params=SMALL_SPECS)
def small_matrix(request):
    return ht.build_matrix(request.param)


# Faults on the structured route (`spectra._structured_factors`), each with the
# error the contract must raise: install(monkeypatch), error type, message.

def _skew_factors(monkeypatch):
    exact = spectra._structured_factors

    def skewed(q, r):
        v = exact(q, r)
        v[0, 0, 0] *= 1 + 1e-6  # one entry of one factor V
        return v

    monkeypatch.setattr(spectra, "_structured_factors", skewed)


def _replace_top_eigenvalue(monkeypatch, replacement):
    exact = np.linalg.eigvalsh

    def faulty(a):
        vals = exact(a)
        top = np.unravel_index(np.argmax(vals), vals.shape)
        vals[top] = replacement(vals, top)
        return vals

    monkeypatch.setattr(np.linalg, "eigvalsh", faulty)


STRUCTURED_FAULTS = {
    # the Gram blocks V^*V are Hermitian whatever V is: the trace identities
    # catch a skewed factor
    "skewed-kernel": (_skew_factors, EigensolverError, "trace identity"),
    "lost-eigenvalue": (lambda mp: _replace_top_eigenvalue(mp, lambda vals, top: 0.0),
                        EigensolverError, "trace identity"),
    # the largest eigenvalue is lost, the one below it in its block doubled
    "duplicated-eigenvalue": (lambda mp: _replace_top_eigenvalue(
        mp, lambda vals, top: vals[(*top[:-1], top[-1] - 1)]),
        EigensolverError, "trace identity"),
}
