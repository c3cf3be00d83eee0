"""Mixture weights, effective sample size, and balanced resampling.

Weights are plain (k,) float arrays alpha that sum to 1, and resampling
indices plain (k,) intp arrays I with I(i) = which member survives at slot i.
weights_from_log is the one place weights are made from log-likelihoods.
It, ess and systematic_indices also take (..., k) stacks, each row bitwise
its own call's: the naive filter screens all its sites with one call of each.

Resampling uses the systematic scheme driven by a single uniform draw: with
pointers (u + i)/k swept against the cumulative weights, every count N_j
stays strictly within 1 of k*alpha_j, and uniform weights reproduce the
identity index vector. Both properties are load-bearing for the localized
filters (shared uniform across sites, identity at unweighted sites).
reorder_to_match rearranges indices toward a reference vector: the previous
site's in the naive filter, the identity (most fixed points) in the block
filter.
"""

import numpy as np

from enkpf.errors import FilterError


def weights_from_log(log_w):
    """Normalize unnormalized log-weights with max-subtraction, along the last axis."""
    log_w = np.asarray(log_w, dtype=float)
    m = log_w.max(axis=-1, keepdims=True)
    if not np.isfinite(m).all():
        raise FilterError("degenerate weights: all log-likelihoods are -inf")
    w = np.exp(log_w - m)
    w /= w.sum(axis=-1, keepdims=True)
    # Renormalized exp sums to 1 up to one rounding; tighten to the invariant.
    w /= w.sum(axis=-1, keepdims=True)
    return w


def ess(alpha):
    """Effective sample size 1/sum(alpha^2) of mixture weights (last axis), in [1, k]."""
    return 1.0 / np.sum(alpha * alpha, axis=-1)


_BELOW_ONE = np.nextafter(1.0, 0.0)


def systematic_indices(alpha, u):
    """Systematic resampling indices for a given uniform offset u in [0, 1).

    Pointer i sits at (u + i)/k, or just below 1 where that rounds to 1;
    member j receives every pointer falling in its cumulative-weight
    interval. Output is sorted ascending, so uniform weights give exactly the
    identity vector. Rows of a (..., k) stack share u.
    """
    alpha = np.asarray(alpha, dtype=float)
    k = alpha.shape[-1]
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    # clipped at 1, the cumulative weights stay sorted whatever the rounding;
    # set to 1 from each row's last positive weight on, they put every
    # pointer below 1 at or before it: no index has weight 0 or reaches k
    cum = np.minimum(np.cumsum(alpha, axis=-1), 1.0)
    last = k - 1 - np.argmax(alpha[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(k) >= last[..., None]] = 1.0
    pointers = np.minimum((u + np.arange(k)) / k, _BELOW_ONE)
    rows = [np.searchsorted(row, pointers, side="right") for row in cum.reshape(-1, k)]
    return np.array(rows, dtype=np.intp).reshape(alpha.shape)


def balanced_resample(alpha, rng):
    """Resample k indices with counts within 1 of k*alpha_j (systematic scheme)."""
    return systematic_indices(alpha, rng.uniform())


def reorder_to_match(idx, prev_idx):
    """Rearrange an index vector to agree with prev_idx at as many slots as possible.

    Greedy maximum matching on the index multiset: slot i keeps prev_idx[i]
    whenever a copy is still available (ties resolved toward lower slots),
    which attains the maximum sum_j min(N_j, #{i: prev_idx[i]=j}) agreements.
    Leftover copies fill the remaining slots in ascending value order. For a
    permutation of prev_idx that is prev_idx itself, which is returned.
    """
    k = idx.shape[0]
    if prev_idx.shape != (k,):
        raise ValueError("prev_idx must have the same length as the index vector")
    counts = np.bincount(idx, minlength=k)
    if np.array_equal(counts, np.bincount(prev_idx, minlength=k)):
        return prev_idx
    out = np.full(k, -1, dtype=np.intp)

    # Group slots by their desired value; the first N_j slots asking for j get it.
    order = np.argsort(prev_idx, kind="stable")
    wanted = prev_idx[order]
    group_start = np.searchsorted(wanted, wanted)
    rank_in_group = np.arange(k) - group_start
    granted = rank_in_group < counts[wanted]
    out[order[granted]] = wanted[granted]

    used = np.bincount(wanted[granted], minlength=k)
    leftovers = np.repeat(np.arange(k, dtype=np.intp), counts - used)
    out[out < 0] = leftovers
    return out
