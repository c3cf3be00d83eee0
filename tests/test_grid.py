"""enkpf.grid.Grid on its own: the ring's circular distances and the state layout."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf.grid import FIELDS, Grid

GRIDS = st.builds(Grid, st.integers(1, 60), st.floats(1e-3, 1e4))


@settings(max_examples=100, deadline=None)
@given(GRIDS)
def test_split_gives_views_in_field_order_covering_every_column_once(grid):
    n = grid.n_points
    cols = grid.split(np.arange(grid.dim))
    assert tuple(cols) == FIELDS
    np.testing.assert_array_equal(np.concatenate(list(cols.values())), np.arange(grid.dim))
    x = np.zeros((2, grid.dim))
    for i, block in enumerate(grid.split(x).values()):
        assert block.shape == (2, n) and np.shares_memory(block, x)
        block[...] = i
    np.testing.assert_array_equal(x, np.broadcast_to(np.arange(grid.dim) // n, x.shape))
    for width in (grid.dim - 1, grid.dim + 1):
        with pytest.raises(ValueError, match=f"expected {grid.dim} state columns"):
            grid.split(np.zeros((2, width)))


@settings(max_examples=100, deadline=None)
@given(GRIDS)
def test_cols_at_a_point_are_its_columns_one_per_field(grid):
    cols = grid.split(np.arange(grid.dim))
    points = grid.grid_of_cols(np.arange(grid.dim))
    for g in range(grid.n_points):
        at = grid.cols_at(g)
        np.testing.assert_array_equal(at, np.flatnonzero(points == g))
        np.testing.assert_array_equal(at, [cols[f][g] for f in FIELDS])
    every = np.arange(grid.n_points)
    np.testing.assert_array_equal(grid.cols_at(every), [grid.cols_at(g) for g in every])


@settings(max_examples=100, deadline=None)
@given(GRIDS, st.data())
def test_col_distance_is_the_distance_between_the_columns_points(grid, data):
    draw_cols = st.lists(st.integers(0, grid.dim - 1), min_size=1, max_size=12)
    a, b = np.array(data.draw(draw_cols)), np.array(data.draw(draw_cols))
    dist = grid.col_distance_m(a, b)
    assert dist.shape == (a.size, b.size)
    for i, j in np.ndindex(dist.shape):
        assert dist[i, j] == grid.distance_m(a[i] % grid.n_points, b[j] % grid.n_points)


@settings(max_examples=100, deadline=None)
@given(GRIDS)
def test_distance_is_symmetric_zero_on_the_diagonal_and_at_most_half_the_ring(grid):
    points = np.arange(grid.n_points)
    dist = grid.distance_m(points[:, None], points[None, :])
    np.testing.assert_array_equal(dist, dist.T)
    np.testing.assert_array_equal(np.diag(dist), 0.0)
    assert (dist <= grid.domain_m / 2).all()


def test_default_spacing_and_bad_sizes():
    grid = Grid(10)
    assert (grid.spacing_m, grid.domain_m, grid.dim) == (500.0, 5000.0, 30)
    assert grid.distance_m(1, 9) == 1000.0
    for n_points, spacing_m in ((0, 500.0), (4, 0.0), (4, -1.0)):
        with pytest.raises(ValueError):
            Grid(n_points, spacing_m)
