import functools
import os
from pathlib import Path

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


# A fresh interpreter imports hadtrunc from this src/ tree and writes no
# bytecode into it.
FRESH_ENV = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")])))


def tao6_matrix():
    return ht.hadamard(np.exp(2j * np.pi / 3 * np.array(TAO6_EXPONENTS)), "tao6")


def _phased(h, cols=True):
    """D1 h D2 with random unimodular diagonals; D2 = 1 unless cols."""
    d1, d2 = np.exp(2j * np.pi * np.random.default_rng(3).random((2, h.n)))
    return ht.hadamard(d1[:, None] * h.array * (d2 if cols else 1.0))


def _moved(h):
    """h with one entry turned by 1e-10 rad."""
    arr = h.array.copy()
    arr[-1, -2] *= np.exp(1e-10j)
    return ht.hadamard(arr)


def _dephased_off_circle():
    """dita(2,3;seed=7) with four moduli of Q moved 0.9e-12 off the unit
    circle.  Q and every entry pass their checks, and the entries match a
    dita within 1e-14, but the dephased Q_11 Q_00 / (Q_10 Q_01) is 2.7e-12
    off the circle, so that Q is refused as not unimodular."""
    q = ht.seeded_phase_matrix(2, 3, 7)
    q[0, 1:] *= 1 - 0.9e-12
    q[1, 0] *= 1 - 0.9e-12
    q[1, 1:] *= 1 + 0.9e-12
    return ht.dita(2, 3, q)


# Inputs that no spec string builds: a dita with phases on its rows and
# columns, and near-misses one entry away from the dita structure.
NAMED_INPUTS = {
    "tao6": tao6_matrix,
    "phased": lambda: _phased(ht.build_matrix("dita(2,3;seed=7)")),
    "phased-transpose": lambda: _phased(ht.build_matrix("transpose(dita(2,3;seed=7))")),
    "row-phased-dita33": lambda: _phased(ht.build_matrix("dita(3,3;seed=1)"), cols=False),
    "moved": lambda: _moved(ht.build_matrix("dita(2,3;seed=7)")),
    "moved-fourier:8": lambda: _moved(ht.fourier(8)),
    "moved-phased": lambda: _moved(NAMED_INPUTS["phased"]()),
    "dephased-off-circle": _dephased_off_circle,
}


def build_input(spec):
    """The matrix of a spec string, or of a name in NAMED_INPUTS."""
    return NAMED_INPUTS[spec]() if spec in NAMED_INPUTS else ht.build_matrix(spec)


def expanded(spectrum):
    """The spectrum (values, zeros) that `spectra._gram_spectra` hands over,
    as the ascending N^r eigenvalues with the exact zeros written out, for
    comparison with an oracle."""
    values, zeros = spectrum
    return np.sort(np.append(values, np.zeros(zeros)))


# One SVD per input and depth for the whole run, however many tests compare
# against it.
@functools.cache
def gram_vector_oracle(spec, r):
    """Ascending squared singular values of `gram_vectors`: the spectrum of X."""
    return np.sort(np.linalg.svd(spectra.gram_vectors(build_input(spec), r),
                                 compute_uv=False) ** 2)


# every memoized function of `spectra`, so that no cache, present or later,
# carries state from one test to the next
PLAN_CACHES = tuple(obj for obj in vars(spectra).values() if hasattr(obj, "cache_clear"))
assert {spectra._sector_plan, spectra._structured_plan,
        spectra._recognition_plan} <= set(PLAN_CACHES)


@pytest.fixture(autouse=True)
def cold_plans():
    """Every test starts and ends with empty plan caches: a patched
    `_cyclic_orbits` is reached, and a plan built under an injected fault
    never serves a later test."""
    for cache in PLAN_CACHES:
        cache.cache_clear()
    yield
    for cache in PLAN_CACHES:
        cache.cache_clear()


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
    # every structured block eigenvalue, closed-form or batched, comes from here
    exact = spectra._block_eigenvalues

    def faulty(v):
        vals = exact(v)
        top = np.unravel_index(np.argmax(vals), vals.shape)
        vals[top] = replacement(vals, top)
        return vals

    monkeypatch.setattr(spectra, "_block_eigenvalues", faulty)


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
