import numpy as np
import pytest

from wittenlab import circle_lab, constants


@pytest.fixture(scope="session")
def consts():
    return constants.compute_constants()


@pytest.fixture(scope="session")
def consts_doubled():
    """The constants oracle's Galerkin solve on twice its basis."""
    return constants._galerkin(2 * constants.BASIS_SIZE)


@pytest.fixture(scope="session")
def example_a():
    return circle_lab.example_function("A")


@pytest.fixture(scope="session")
def example_b():
    return circle_lab.example_function("B")


@pytest.fixture(scope="session")
def example_morse():
    """A plain Morse circle function: one minimum, one maximum."""
    return circle_lab.build_circle_function([1.0, 4.0], [])


@pytest.fixture(scope="session")
def example_two_bd():
    """One minimum, one maximum, two birth-death points with distinct |a|."""
    return circle_lab.build_circle_function([0.4, 2.2], [3.4, 5.2])


@pytest.fixture(scope="session")
def a_sweep():
    return circle_lab.default_t_schedule("A")


@pytest.fixture(scope="session")
def b_sweep():
    return circle_lab.default_t_schedule("B")


# One CircleSolve per (function, t, grid), shared by every test that reads it.
# The sweeps solve 13 pairs per degree, more than the clusters need: criterion
# 08 compares the nonzero spectra of the two degrees beyond Omega_0(M, t).

@pytest.fixture(scope="session")
def a_solves(example_a, a_sweep):
    """Example A on the default grid of each t in its sweep."""
    return {t: circle_lab.circle_solve(example_a, t, k_eigs=13) for t in a_sweep}


@pytest.fixture(scope="session")
def a_solves_doubled(example_a, a_solves):
    """Example A on twice the default grid: the Richardson partners."""
    return {t: circle_lab.doubled(s) for t, s in a_solves.items()}


@pytest.fixture(scope="session")
def two_bd_solve(example_two_bd):
    """The two birth-death fixture at t = 200 on its default grid."""
    return circle_lab.circle_solve(example_two_bd, 200.0)


@pytest.fixture(scope="session")
def b_solves(example_b, b_sweep):
    """Example B on the default grid of each t in its sweep."""
    return {t: circle_lab.circle_solve(example_b, t, k_eigs=13) for t in b_sweep}
