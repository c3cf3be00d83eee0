import numpy as np
import pytest

from enkpf.core import ensemble_moments
from enkpf.errors import FilterError

from oracles import kalman_gain


def test_moments_identical_members():
    v = np.array([1.0, -2.0, 3.5])
    ens = np.tile(v, (6, 1))
    cov = ensemble_moments(ens, np.arange(3), np.arange(3))
    np.testing.assert_array_equal(cov, np.zeros((3, 3)))


def test_moments_two_scalar_members():
    # hand computation with the k-1 divisor: mean 1, variance 2
    cov = ensemble_moments(np.array([[0.0], [2.0]]), [0], [0])
    assert cov[0, 0] == 2.0


def test_moments_of_an_overflowing_spread_raise_filter_error():
    ens = np.array([[1e304, 0.0], [-1e304, 1.0], [0.0, 2.0]])
    with np.errstate(all="raise"):
        with pytest.raises(FilterError, match="not finite"):
            ensemble_moments(ens, [0, 1], [0, 1])


def test_moments_monte_carlo_identity():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((10_000, 4))
    cov = ensemble_moments(x, np.arange(4), np.arange(4))
    np.testing.assert_allclose(cov, np.eye(4), atol=0.05)


def test_moments_requires_two_members():
    with pytest.raises(ValueError):
        ensemble_moments(np.ones((1, 3)), [0], [0])


@pytest.mark.parametrize("cols_a, cols_b", [
    ([4, 0, 2], [1, 4]),  # unsorted
    ([3, 3, 1], [1, 1, 3, 0]),  # repeated
    ([], [2, 0]),  # empty
    ([2, 0], []),
    ([], []),
])
def test_moments_block_of_any_column_sets_matches_np_cov(cols_a, cols_b):
    x = np.random.default_rng(3).standard_normal((7, 5)) * [1.0, 3.0, 0.5, 2.0, 1e3]
    a, b = np.array(cols_a, dtype=np.intp), np.array(cols_b, dtype=np.intp)
    cov = ensemble_moments(x, a, b)
    assert cov.shape == (a.size, b.size)
    np.testing.assert_allclose(cov, np.cov(x, rowvar=False)[np.ix_(a, b)], rtol=1e-13, atol=0.0)


def test_kalman_gain_identity_case():
    d = 4
    gain = kalman_gain(np.eye(d), np.arange(d), np.ones(d))
    np.testing.assert_allclose(gain, 0.5 * np.eye(d), rtol=1e-14)


def test_kalman_gain_zero_cov():
    gain = kalman_gain(np.zeros((3, 3)), np.array([1]), np.array([2.0]))
    np.testing.assert_array_equal(gain, np.zeros((3, 1)))


def test_kalman_gain_scalar():
    gain = kalman_gain(np.array([[1.0]]), np.array([0]), np.array([3.0]))
    assert gain[0, 0] == pytest.approx(0.25, rel=1e-15)


def test_kalman_gain_residual_identity():
    # K (HPH' + R) = PH' to relative 1e-10
    rng = np.random.default_rng(0)
    d, m = 12, 5
    a = rng.standard_normal((d, d))
    p = a @ a.T / d
    h_rows = rng.choice(d, size=m, replace=False)
    r = rng.uniform(0.5, 2.0, size=m)
    gain = kalman_gain(p, h_rows, r)
    s = p[np.ix_(h_rows, h_rows)] + np.diag(r)
    np.testing.assert_allclose(gain @ s, p[:, h_rows], rtol=1e-10, atol=1e-12)


def test_kalman_gain_bad_r():
    with pytest.raises(FilterError):
        kalman_gain(np.eye(2), np.array([0]), np.array([1.0, 2.0]))
    with pytest.raises(FilterError):
        kalman_gain(np.eye(2), np.array([0]), np.array([-1.0]))
