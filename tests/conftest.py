import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ensemble_hdg.mesh import Mesh, build_uniform_square_mesh


@pytest.fixture(scope="session")
def mesh2():
    return build_uniform_square_mesh(2)


@pytest.fixture(scope="session")
def mesh4():
    return build_uniform_square_mesh(4)


@pytest.fixture(scope="session")
def single_cell_mesh():
    """The 2-element mesh of the unit square (one interior face)."""
    return build_uniform_square_mesh(1)


@pytest.fixture(scope="session")
def reference_triangle_mesh():
    """A mesh consisting of exactly the reference triangle."""
    return Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
