from unittest import mock

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from hjlab.grid import Grid, GridSpec, ScalarField, make_grid


@pytest.fixture
def grid_1d() -> Grid:
    return make_grid(GridSpec(1, 1.0, 0.25, 1.0, 0.25))


@pytest.fixture
def grid_1d_fine() -> Grid:
    return make_grid(GridSpec(1, 1.0, 0.0625, 1.0, 0.125))


def random_field(grid: Grid, seed: int, scale: float = 1.0) -> ScalarField:
    rng = np.random.default_rng(seed)
    vals = scale * rng.normal(size=(grid.n_levels,) + grid.shape)
    vals[:, ~grid.active] = 0.0
    return ScalarField(grid, vals)


def counting_splu(solve, *args, **kwargs):
    """solve(*args, **kwargs) and the number of sparse LU factorizations it made."""
    calls = []
    real = spla.splu

    def splu(A, *a, **kw):
        calls.append(A.shape)
        return real(A, *a, **kw)

    with mock.patch.object(spla, "splu", splu):
        res = solve(*args, **kwargs)
    return res, len(calls)
