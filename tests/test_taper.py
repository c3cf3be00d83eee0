import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf.errors import FilterError
from enkpf.grid import Grid
from enkpf.local_filters import local_plan
from enkpf.obs import GaussObs
from enkpf.taper import gaspari_cohn, taper_table, tapered_cov_block

from oracles import taper_matrix, tapered_covariance


def table_weights(grid, l_m, cols_a, cols_b):
    """The (|a|, |b|) taper weights between two column sets, gathered from
    taper_table by the ring offset of their grid points."""
    pa, pb = grid.grid_of_cols(cols_a), grid.grid_of_cols(cols_b)
    return taper_table(grid, l_m)[grid.ring_offset(pa[:, None], pb[None, :])]


def gc_reference(z):
    """Direct evaluation of the two quintic branches, written independently."""
    if z >= 2.0:
        return 0.0
    if z <= 1.0:
        return 1.0 + z * z * (-5.0 / 3.0 + z * (5.0 / 8.0 + z * (1.0 / 2.0 - z / 4.0)))
    return (
        4.0
        - 5.0 * z
        + z * z * (5.0 / 3.0 + z * (5.0 / 8.0 + z * (-1.0 / 2.0 + z / 12.0)))
        - 2.0 / (3.0 * z)
    )


def test_gc_anchor_values():
    c = 1234.0
    assert gaspari_cohn(0.0, c) == 1.0
    assert gaspari_cohn(2 * c, c) == 0.0
    assert gaspari_cohn(3 * c, c) == 0.0
    # Value at one length scale, from both polynomial branches evaluated by hand:
    # inner branch at z=1: -1/4 + 1/2 + 5/8 - 5/3 + 1 = 5/24
    # outer branch at z=1: 1/12 - 1/2 + 5/8 + 5/3 - 5 + 4 - 2/3 = 5/24
    assert gaspari_cohn(c, c) == pytest.approx(5.0 / 24.0, abs=1e-14)


def test_gc_matches_reference_grid():
    c = 2.0
    z = np.linspace(0.0, 2.5, 501)
    ours = gaspari_cohn(z * c, c)
    ref = np.array([gc_reference(v) for v in z])
    np.testing.assert_allclose(ours, ref, atol=1e-14)


def test_gc_monotone_nonincreasing_on_support():
    c = 7.5
    d = np.linspace(0.0, 2.0 * c, 1000)
    vals = gaspari_cohn(d, c)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_gc_continuous_at_branch_point():
    c = 3.0
    left = gaspari_cohn(c - 1e-9, c)
    right = gaspari_cohn(c + 1e-9, c)
    assert abs(left - right) < 1e-7


def test_gc_rejects_bad_scale():
    with pytest.raises(ValueError):
        gaspari_cohn(1.0, 0.0)
    with pytest.raises(ValueError):
        gaspari_cohn(1.0, -2.0)
    with pytest.raises(ValueError):
        gaspari_cohn(0.0, math.nan)


def test_gc_infinite_scale_is_all_ones():
    assert np.all(gaspari_cohn(np.array([0.0, 5.0, 1e12]), np.inf) == 1.0)


@given(st.floats(0.0, 100.0), st.floats(0.1, 50.0))
@settings(max_examples=200, deadline=None)
def test_gc_property_range_and_support(dist, c):
    v = gaspari_cohn(dist, c)
    assert 0.0 <= v <= 1.0
    if dist >= 2.0 * c:
        assert v == 0.0


@pytest.mark.parametrize("n", [8, 16, 33, 64])
def test_taper_matrix_valid_correlation_on_circle(n):
    # support 2c kept within half the ring, else the wrapped function need
    # not be positive semidefinite
    grid = Grid(n, spacing_m=1000.0)
    l_m = n * 1000.0 / 8.0
    c_mat = taper_matrix(grid, l_m).toarray()
    np.testing.assert_allclose(c_mat, c_mat.T, atol=0)
    np.testing.assert_allclose(np.diag(c_mat), 1.0, atol=0)
    eig = np.linalg.eigvalsh(c_mat)
    assert eig.min() >= -1e-8


def test_taper_matrix_cross_field_blocks_share_weights():
    grid = Grid(12, spacing_m=500.0)
    l_m = 1000.0
    c_mat = taper_matrix(grid, l_m).toarray()
    n = 12
    # same-location cross-variable weight is 1; blocks identical across field pairs
    for a in range(3):
        for b in range(3):
            np.testing.assert_array_equal(
                c_mat[a * n : (a + 1) * n, b * n : (b + 1) * n], c_mat[:n, :n]
            )
    assert c_mat[0, n] == 1.0  # h and u at the same point


def test_tapered_covariance_elementwise_oracle():
    # 5-point grid, l = one grid spacing; dense Schur-product oracle.
    rng = np.random.default_rng(7)
    grid = Grid(5, spacing_m=1.0)
    l_m = 1.0
    members = rng.normal(size=(9, grid.dim))
    got = tapered_covariance(members, grid, l_m).toarray()
    anoms = members - members.mean(axis=0)
    plain = anoms.T @ anoms / (members.shape[0] - 1)
    cols = np.arange(grid.dim)
    weights = table_weights(grid, l_m, cols, cols)
    np.testing.assert_allclose(got, plain * weights, rtol=1e-12, atol=1e-14)


def test_tapered_covariance_allones_taper_equals_plain():
    rng = np.random.default_rng(11)
    grid = Grid(6, spacing_m=1.0)
    members = rng.normal(size=(5, grid.dim))
    l_m = 1e9  # support far beyond the domain
    got = tapered_covariance(members, grid, l_m).toarray()
    anoms = members - members.mean(axis=0)
    np.testing.assert_allclose(got, anoms.T @ anoms / 4, rtol=1e-12, atol=1e-14)


def test_tapered_covariance_exact_zeros_beyond_support():
    rng = np.random.default_rng(3)
    grid = Grid(40, spacing_m=1000.0)
    l_m = 2000.0
    members = rng.normal(size=(8, grid.dim))
    cov = tapered_covariance(members, grid, l_m).toarray()
    # points 0 and 20 are 20 km apart, far beyond the 4 km support
    n = 40
    for fa in range(3):
        for fb in range(3):
            assert cov[fa * n + 0, fb * n + 20] == 0.0


def test_tapered_cov_block_matches_full():
    rng = np.random.default_rng(5)
    grid = Grid(15, spacing_m=700.0)
    l_m = 1400.0
    members = rng.normal(size=(12, grid.dim))
    full = tapered_covariance(members, grid, l_m).toarray()
    rows = np.array([0, 3, 17, 31, 44])
    cols = np.array([2, 16, 40])
    block = tapered_cov_block(members, rows, cols, table_weights(grid, l_m, rows, cols))
    np.testing.assert_allclose(block, full[np.ix_(rows, cols)], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("l_m", [math.nan, 0.0, -1.0])
def test_a_length_scale_that_is_not_positive_is_rejected(l_m):
    # gaspari_cohn is the one check: NaN would otherwise give all-zero
    # weights, even at distance 0, and every window would be empty
    grid = Grid(8, 500.0)
    obs = GaussObs(np.zeros(2), [16, 20], np.ones(2))
    for build in (lambda: taper_table(grid, l_m), lambda: local_plan(obs, grid, l_m, 1000.0)):
        with pytest.raises(ValueError, match="length scale c must be positive"):
            build()


def test_an_infinite_length_scale_takes_every_observation_and_tapers_nothing():
    grid = Grid(8, 500.0)
    obs = GaussObs(np.zeros(3), [16, 20, 3], np.ones(3))
    plan = local_plan(obs, grid, math.inf, 1000.0)
    assert plan.sizes.tolist() == [3] * 8 and (plan.windows == [0, 1, 2]).all()
    assert (plan.w_cross == 1.0).all()


def test_tapered_block_of_an_overflowing_spread_raises_filter_error():
    grid = Grid(10)
    members = np.zeros((4, grid.dim))
    members[:, 25] = [1e304, -1e304, 2e304, 0.0]
    cols = np.arange(20, 30)
    with np.errstate(all="raise"):
        with pytest.raises(FilterError, match="not finite"):
            tapered_cov_block(members, cols, cols,
                              table_weights(grid, 2000.0, cols, cols))
