import numpy as np
import pytest
from hypothesis import given, strategies as st

from adr_lab import (
    ConfigurationError,
    Field,
    Grid,
    InputError,
    TransportParams,
    sample_initial_2d,
    zero_dirichlet,
)


def test_spacing_uses_node_count_minus_one():
    grid = Grid((46, 46), (1.0, 1.0))
    assert grid.spacing[0] == 1.0 / 45.0
    assert grid.spacing[1] == 1.0 / 45.0
    g3 = Grid((101, 101, 101), (1000.0, 1000.0, 1000.0))
    assert g3.spacing == (10.0, 10.0, 10.0)


def test_cell_volume():
    grid = Grid((11, 21), (1.0, 2.0))
    assert grid.cell_volume == pytest.approx(0.1 * 0.1)
    g3 = Grid((101, 101, 101), (1000.0, 1000.0, 1000.0))
    assert g3.cell_volume == pytest.approx(1000.0)


def test_invalid_grid_rejected():
    with pytest.raises(ConfigurationError):
        Grid((1, 10), (1.0, 1.0))
    with pytest.raises(ConfigurationError):
        Grid((10, 10), (-1.0, 1.0))
    with pytest.raises(ConfigurationError):
        Grid((10, 10, 0), (1.0, 1.0, 1.0))


def test_coords_span_domain():
    grid = Grid((5, 9), (2.0, 4.0))
    x, y = grid.coords()
    assert x[0] == 0.0 and x[-1] == 2.0 and len(x) == 5
    assert y[0] == 0.0 and y[-1] == 4.0 and len(y) == 9


def test_field_shape_validation():
    grid = Grid((4, 5), (1.0, 1.0))
    with pytest.raises(ConfigurationError):
        Field(grid, np.zeros((4, 5)))  # missing species axis
    with pytest.raises(ConfigurationError):
        Field(grid, np.zeros((1, 5, 4)))
    field = Field.zeros(grid, 3)
    assert field.values.shape == (3, 4, 5)
    assert field.species_count == 3


def test_field_copy_is_deep():
    grid = Grid((4, 4), (1.0, 1.0))
    field = Field.zeros(grid)
    clone = field.copy()
    clone.values[0, 1, 1] = 7.0
    assert field.values[0, 1, 1] == 0.0


def test_transport_params_reject_negative():
    with pytest.raises(ConfigurationError):
        TransportParams(u=(-1.0, 1.0), k=(1.0, 1.0))
    with pytest.raises(ConfigurationError):
        TransportParams(u=(1.0, 1.0), k=(1.0, -0.5))
    # zero entries are legitimate (pure diffusion, pure advection, chemistry only)
    TransportParams(u=(0.0, 0.0), k=(0.0, 0.0))


@given(nx=st.integers(3, 10), ny=st.integers(3, 10), seed=st.integers(0, 999))
def test_zero_dirichlet_clears_boundary_and_is_idempotent(nx, ny, seed):
    grid = Grid((nx, ny), (1.0, 1.0))
    rng = np.random.default_rng(seed)
    field = Field(grid, rng.uniform(0.5, 2.0, size=(2, nx, ny)))
    interior_before = field.values[:, 1:-1, 1:-1].copy()
    out = zero_dirichlet(field)
    assert out is field  # mutates in place
    assert np.all(field.values[:, 0, :] == 0.0)
    assert np.all(field.values[:, -1, :] == 0.0)
    assert np.all(field.values[:, :, 0] == 0.0)
    assert np.all(field.values[:, :, -1] == 0.0)
    np.testing.assert_array_equal(field.values[:, 1:-1, 1:-1], interior_before)
    again = field.values.copy()
    zero_dirichlet(field)
    np.testing.assert_array_equal(field.values, again)


def test_zero_dirichlet_3d_faces():
    grid = Grid((4, 4, 4), (1.0, 1.0, 1.0))
    field = Field(grid, np.ones((1, 4, 4, 4)))
    zero_dirichlet(field)
    assert field.values.sum() == 2.0 ** 3  # only the interior 2x2x2 block remains


def test_sample_initial_matches_pointwise_loop():
    grid = Grid((7, 6), (1.0, 1.0))
    f = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    field = sample_initial_2d(grid, f)
    x, y = grid.coords()
    for i in range(1, 6):
        for j in range(1, 5):
            assert field.values[0, i, j] == pytest.approx(
                float(np.sin(np.pi * x[i]) * np.sin(np.pi * y[j])), abs=1e-15
            )
    assert np.all(field.values[0, 0, :] == 0.0)
    assert np.all(field.values[0, :, -1] == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_sample_initial_rejects_non_finite():
    grid = Grid((5, 5), (1.0, 1.0))
    with pytest.raises(InputError):
        sample_initial_2d(grid, lambda x, y: 1.0 / (x - 0.5))
