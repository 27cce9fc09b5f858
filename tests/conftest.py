import os
import sys

# One BLAS thread, the benchmark's setting: a threaded eigensolve waits for
# its slowest thread, so on a loaded machine its time swings far past the
# computation's own.  The thread count is read when numpy is first imported.
assert "numpy" not in sys.modules, "numpy was imported before tests/conftest.py"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
from hypothesis import settings

from quasilab.algebra import AlgebraSpec

# property tests draw the same examples on every run
settings.register_profile("quasilab", derandomize=True, deadline=None)
settings.load_profile("quasilab")


@pytest.fixture(scope="session")
def sqrt2():
    return AlgebraSpec.from_sqrt([2])


@pytest.fixture(scope="session")
def sqrt23():
    return AlgebraSpec.from_sqrt([2, 3])


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
