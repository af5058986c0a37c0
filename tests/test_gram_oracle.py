import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gram_oracle
from conftest import FRESH_ENV


def test_gram_vectors_unit_norm(small_matrix):
    vecs = gram_oracle.gram_vectors(small_matrix.array, 3)
    assert np.abs(np.linalg.norm(vecs, axis=1) - 1.0).max() < 1e-12


def test_gram_vectors_check_depth():
    with pytest.raises(ValueError, match="^depth r must be >= 1$"):
        gram_oracle.gram_vectors(np.array([[1, 1], [1, -1]]), 0)


def test_oracle_loads_no_hadtrunc_module():
    # hadtrunc is importable in the fresh interpreter, so only the oracle's
    # own imports keep it out
    code = ("import json, sys; import gram_oracle; print(json.dumps("
            "[gram_oracle.__file__, sorted(m for m in sys.modules if m.startswith('hadtrunc'))]))")
    here = Path(__file__).resolve().parent
    proc = subprocess.run([sys.executable, "-c", code], cwd=here, env=FRESH_ENV,
                          capture_output=True, text=True, check=True)
    path, loaded = json.loads(proc.stdout)
    assert (Path(path), loaded) == (here / "gram_oracle.py", [])
