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

from oracles import (
    permute_fixed_points,
    reorder_to_match_reference,
    systematic_indices_reference,
)


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


@given(st.integers(1, 40), st.integers(0, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_row_wise_weights_ess_and_indices_are_each_rows_own(k, rows, seed):
    # the site loop screens all its sites as one stack: every row must be
    # what a call on that row alone gives, bit for bit
    rng = np.random.default_rng(seed)
    log_w = -0.5 * rng.gamma(0.5, rng.choice([0.1, 10.0, 1e3]), size=(rows, k))
    log_w[rng.random((rows, k)) < 0.2] = -np.inf
    log_w[:, 0] = np.maximum(log_w[:, 0], -1.0)  # some weight in every row
    u = rng.uniform()
    w = weights_from_log(log_w)
    e = ess(w)
    idx = systematic_indices(w, u)
    assert w.shape == idx.shape == (rows, k) and e.shape == (rows,)
    for i in range(rows):
        assert w[i].tobytes() == weights_from_log(log_w[i]).tobytes()
        assert e[i].tobytes() == np.float64(ess(w[i])).tobytes()
        assert idx[i].tobytes() == systematic_indices(w[i], u).tobytes()


def test_a_row_of_minus_inf_fails_the_whole_stack():
    with pytest.raises(FilterError, match="degenerate weights"):
        weights_from_log(np.array([[0.0, -1.0], [-np.inf, -np.inf]]))


@given(st.integers(1, 60), st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_systematic_indices_of_a_vector_are_the_binary_search_as_first_written(k, u, seed):
    rng = np.random.default_rng(seed)
    alpha = rng.dirichlet(np.full(k, rng.choice([0.05, 0.5, 5.0])))
    alpha[rng.random(k) < 0.3] = 0.0
    alpha = alpha / alpha.sum() if alpha.sum() > 0 else np.full(k, 1.0 / k)
    got, want = systematic_indices(alpha, u), systematic_indices_reference(alpha, u)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_a_uniform_just_below_one_gives_no_index_out_of_range():
    # (u + k - 1)/k rounds to 1.0 here, the last cumulative weight
    u = np.nextafter(1.0, 0.0)
    idx = systematic_indices(np.full(50, 0.02), u)
    assert idx.max() == 49 and np.all(np.diff(idx) >= 0)
    assert idx.tobytes() == systematic_indices_reference(np.full(50, 0.02), u).tobytes()
    stack = systematic_indices(np.full((3, 50), 0.02), u)
    assert stack.tobytes() == np.tile(idx, (3, 1)).tobytes()


@given(st.integers(1, 80), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_every_index_is_a_member_for_any_uniform_below_one(k, seed):
    # also where the cumulative weights pass 1 by rounding before the last
    rng = np.random.default_rng(seed)
    alpha = rng.dirichlet(np.full(k, rng.choice([0.05, 0.5, 5.0])))
    alpha[-1] = rng.choice([alpha[-1], 1e-18])
    alpha /= alpha.sum()
    for u in (np.nextafter(1.0, 0.0), 1.0 - 2.0**-50, rng.uniform()):
        idx = systematic_indices(alpha, u)
        assert 0 <= idx.min() and idx.max() < k and np.all(np.diff(idx) >= 0)
        assert idx.tobytes() == systematic_indices_reference(alpha, u).tobytes()


@given(st.integers(1, 60), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_reorder_to_match_returns_prev_for_a_permutation_as_the_matching_does(k, seed):
    # the shortcut for idx a permutation of prev_idx, which the sweep takes at
    # every dry site, against the greedy matching without it
    rng = np.random.default_rng(seed)
    prev = rng.integers(0, k, size=k)
    for idx in (rng.permutation(prev), np.sort(prev), rng.integers(0, k, size=k)):
        got, want = reorder_to_match(idx, prev), reorder_to_match_reference(idx, prev)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert reorder_to_match(rng.permutation(prev), prev) is prev
