import numpy as np
import pytest
from hypothesis import settings

import opx
from opx.suites import sample_points  # noqa: F401  (imported by the test modules)

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


def pytest_configure(config):
    # a RuntimeWarning (an overflow, a division by zero) fails the test that
    # raised it; a test that drives one on purpose says so with its own
    # filterwarnings mark, pytest.warns or np.errstate.  Set here, not in
    # pyproject.toml, so that it covers these tests only: bench/selftest.py
    # drives the ratio limits' known overflows without a mark.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


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
