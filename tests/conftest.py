import numpy as np
import pytest
from hypothesis import settings

import opx
from opx.suites import sample_points  # noqa: F401  (imported by the test modules)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture
def cheb():
    return opx.chebyshev1()


@pytest.fixture
def lag():
    return opx.laguerre(0.5)


@pytest.fixture
def jac():
    return opx.jacobi(0.3, 0.7)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
