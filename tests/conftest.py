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
