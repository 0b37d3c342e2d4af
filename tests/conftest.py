import numpy as np
import pytest

from modfactor.cstar import build_algebra
from modfactor.hilbmod import build_module


def matrix_unit(i, j, n=3):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i - 1, j - 1] = 1.0
    return m


def corner_module(case, block_algebra):
    """A non-full module over C (+) M2: "corner" is spanned by E21 and E31,
    "random_corner" by a random generator supported on the M2 block."""
    if case == "corner":
        return build_module(block_algebra, [matrix_unit(2, 1), matrix_unit(3, 1)])
    rng = np.random.default_rng(7)
    x = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    return build_module(block_algebra, [x @ np.diag([0.0, 1.0, 1.0])])


@pytest.fixture(scope="session")
def block_algebra():
    """C (+) M2 embedded in M3."""
    return build_algebra([(1, 1), (2, 1)])


@pytest.fixture(scope="session")
def golden_module(block_algebra):
    """The standard full module without a unit vector over C (+) M2."""
    gens = [matrix_unit(2, 1), matrix_unit(3, 1), matrix_unit(1, 2), matrix_unit(1, 3)]
    return build_module(block_algebra, gens)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
