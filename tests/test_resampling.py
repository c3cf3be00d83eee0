import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf.errors import FilterError
from enkpf.resampling import (
    balanced_resample,
    ess,
    reorder_to_match,
    systematic_indices,
    weights_from_log,
)

from oracles import permute_fixed_points


def test_weights_from_log_normalizes():
    w = weights_from_log(np.array([-1000.0, -1000.5]))
    # same as softmax(0, -0.5)
    np.testing.assert_allclose(w, [0.62245933, 0.37754067], atol=1e-8)
    assert abs(w.sum() - 1.0) <= 1e-12


def test_weights_from_log_rejects_all_minus_inf():
    with pytest.raises(FilterError, match="degenerate weights"):
        weights_from_log(np.full(3, -np.inf))


def test_ess_anchor_values():
    assert ess(np.full(10, 1.0 / 10)) == pytest.approx(10.0, rel=1e-12)
    one_hot = np.zeros(6)
    one_hot[2] = 1.0
    assert ess(one_hot) == pytest.approx(1.0)
    half = np.zeros(8)
    half[:2] = 0.5
    assert ess(half) == pytest.approx(2.0)


def test_balanced_one_hot():
    rng = np.random.default_rng(0)
    w = np.zeros(5)
    w[0] = 1.0
    idx = balanced_resample(w, rng)
    np.testing.assert_array_equal(idx, np.zeros(5, dtype=np.intp))


def test_balanced_uniform_is_identity():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        idx = balanced_resample(np.full(17, 1.0 / 17), rng)
        np.testing.assert_array_equal(idx, np.arange(17))


def test_balanced_integer_multiples_counts():
    alpha = np.array([0.5, 0.3, 0.2])
    # k = 10 could only hold if resample size were 10; here k = len(alpha), so
    # exercise the documented case via the low-level scheme at k = 10.
    big = np.concatenate([alpha, np.zeros(7)])
    big = big / big.sum()
    for u in [0.0, 0.123, 0.5, 0.9999]:
        idx = systematic_indices(big, u)
        counts = np.bincount(idx, minlength=10)
        np.testing.assert_array_equal(counts[:3], [5, 3, 2])


def test_balanced_property_random_cases():
    rng = np.random.default_rng(1234)
    for _ in range(500):
        k = int(rng.integers(2, 60))
        raw = rng.gamma(0.3, size=k)
        alpha = raw / raw.sum()
        idx = systematic_indices(alpha, rng.uniform())
        dev = np.bincount(idx, minlength=k) - k * alpha
        assert np.all(np.abs(dev) < 1.0)


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_balanced_property_hypothesis(k, seed):
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.full(k, 0.2))
    idx = systematic_indices(raw, rng.uniform())
    counts = np.bincount(idx, minlength=k)
    assert counts.sum() == k
    assert np.all(np.abs(counts - k * raw) < 1.0)


def brute_force_max_fixed_points(idx):
    best = -1
    for perm in set(itertools.permutations(idx)):
        best = max(best, sum(1 for i, v in enumerate(perm) if i == v))
    return best


def test_permute_fixed_points_examples():
    ident = np.arange(5)
    np.testing.assert_array_equal(permute_fixed_points(ident), ident)

    # counts (2, 0, 1): slots 0 and 2 keep themselves, copy of 0 fills slot 1
    out = permute_fixed_points(np.array([0, 0, 2]))
    np.testing.assert_array_equal(out, [0, 0, 2])
    assert np.sum(out == np.arange(3)) == 2

    out = permute_fixed_points(np.zeros(6, dtype=int))
    assert np.sum(out == np.arange(6)) == 1


def test_permute_fixed_points_brute_force_small():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        idx = rng.integers(0, k, size=k)
        out = permute_fixed_points(idx)
        np.testing.assert_array_equal(
            np.bincount(out, minlength=k), np.bincount(idx, minlength=k)
        )
        achieved = int(np.sum(out == np.arange(k)))
        assert achieved == brute_force_max_fixed_points(idx)
        # closed form for the optimum
        assert achieved == int(np.sum(np.bincount(idx, minlength=k) > 0))


def brute_force_max_matches(idx, prev):
    best = -1
    for perm in set(itertools.permutations(idx)):
        best = max(best, sum(1 for a, b in zip(perm, prev) if a == b))
    return best


def test_reorder_to_match_identical_multisets_align():
    prev = np.array([3, 1, 1, 0, 2])
    out = reorder_to_match(np.array([1, 0, 3, 2, 1]), prev)
    np.testing.assert_array_equal(out, prev)


def test_reorder_to_match_brute_force_small():
    rng = np.random.default_rng(11)
    for _ in range(200):
        k = int(rng.integers(1, 7))
        idx = rng.integers(0, k, size=k)
        prev = rng.integers(0, k, size=k)
        out = reorder_to_match(idx, prev)
        np.testing.assert_array_equal(
            np.bincount(out, minlength=k), np.bincount(idx, minlength=k)
        )
        got = int(np.sum(out == prev))
        assert got == brute_force_max_matches(idx, prev)


def test_reorder_to_match_identity_is_permute_fixed_points():
    # the block filter's indices: reordering toward the identity is the
    # fixed-point permutation, dtype included, sorted input or not
    rng = np.random.default_rng(13)
    for _ in range(2000):
        k = int(rng.integers(1, 101))
        idx = rng.integers(0, k, size=k)
        for case in (idx, np.sort(idx)):
            got = reorder_to_match(case, np.arange(k))
            want = permute_fixed_points(case)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def test_reorder_deterministic_leftover_order():
    # counts: three 0s and two 4s; prev wants 4 at slots 0,1 and 1 elsewhere
    out = reorder_to_match(np.array([0, 0, 0, 4, 4]), np.array([4, 4, 1, 1, 1]))
    np.testing.assert_array_equal(out, [4, 4, 0, 0, 0])


def test_reorder_to_match_rejects_length_mismatch():
    with pytest.raises(ValueError, match="same length"):
        reorder_to_match(np.arange(4), np.arange(3))


def test_systematic_rejects_bad_u():
    with pytest.raises(ValueError):
        systematic_indices(np.array([1.0]), 1.0)
