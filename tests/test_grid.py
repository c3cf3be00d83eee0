"""enkpf.grid.Grid on its own: the ring's circular distances and the state layout."""

import math

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
def test_ring_offset_is_the_shorter_way_round(grid, data):
    n = grid.n_points
    draw_points = st.lists(st.integers(0, n - 1), min_size=1, max_size=12)
    a, b = np.array(data.draw(draw_points)), np.array(data.draw(draw_points))
    offset = grid.ring_offset(a[:, None], b[None, :])
    assert offset.shape == (a.size, b.size) and offset.dtype.kind == "i"
    for i, j in np.ndindex(offset.shape):
        assert offset[i, j] == min((a[i] - b[j]) % n, (b[j] - a[i]) % n) <= n // 2


@settings(max_examples=100, deadline=None)
@given(GRIDS)
def test_distance_is_symmetric_zero_on_the_diagonal_and_at_most_half_the_ring(grid):
    points = np.arange(grid.n_points)
    dist = grid.ring_offset(points[:, None], points[None, :])
    np.testing.assert_array_equal(dist, dist.T)
    np.testing.assert_array_equal(np.diag(dist), 0.0)
    assert (dist <= grid.n_points // 2).all()


def test_default_spacing_and_bad_sizes():
    grid = Grid(10)
    assert (grid.spacing_m, grid.domain_m, grid.dim) == (500.0, 5000.0, 30)
    assert grid.ring_offset(1, 9) == 2
    for n_points, spacing_m in ((0, 500.0), (4, 0.0), (4, -1.0)):
        with pytest.raises(ValueError):
            Grid(n_points, spacing_m)


@pytest.mark.parametrize("args, key", [
    ((24.5,), "n_points"), ((24.0,), "n_points"), ((300, math.nan), "spacing_m"),
    ((300, math.inf), "spacing_m"), ((300, -math.inf), "spacing_m"),
])
def test_geometry_that_is_not_a_whole_count_or_a_finite_spacing_is_rejected_by_key(args, key):
    # checked here, or a fractional count would end in a TypeError deep in
    # the model, and a NaN or inf spacing be blamed on the plume rate
    with pytest.raises(ValueError, match=f"^{key} must be"):
        Grid(*args)
    assert Grid(np.int64(24)).dim == 72
