"""Mixture weights, effective sample size, and balanced resampling.

Weights are plain (k,) float arrays alpha that sum to 1, and resampling
indices plain (k,) intp arrays I with I(i) = which member survives at slot i.
weights_from_log is the one place weights are made from log-likelihoods.

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
    """Normalize unnormalized log-weights with max-subtraction."""
    log_w = np.asarray(log_w, dtype=float)
    m = log_w.max()
    if not np.isfinite(m):
        raise FilterError("degenerate weights: all log-likelihoods are -inf")
    w = np.exp(log_w - m)
    w = w / w.sum()
    # Renormalized exp sums to 1 up to one rounding; tighten to the invariant.
    return w / w.sum()


def ess(alpha):
    """Effective sample size 1/sum(alpha^2) of mixture weights, in [1, k]."""
    return 1.0 / float(np.sum(alpha * alpha))


def systematic_indices(alpha, u):
    """Systematic resampling indices for a given uniform offset u in [0, 1).

    Pointer i sits at (u + i)/k; member j receives every pointer falling in
    its cumulative-weight interval. Output is sorted ascending, so uniform
    weights give exactly the identity vector.
    """
    alpha = np.asarray(alpha, dtype=float)
    k = alpha.shape[0]
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    cum = np.cumsum(alpha)
    cum[-1] = 1.0
    pointers = (u + np.arange(k)) / k
    return np.searchsorted(cum, pointers, side="right")


def balanced_resample(alpha, rng):
    """Resample k indices with counts within 1 of k*alpha_j (systematic scheme)."""
    return systematic_indices(alpha, rng.uniform())


def reorder_to_match(idx, prev_idx):
    """Rearrange an index vector to agree with prev_idx at as many slots as possible.

    Greedy maximum matching on the index multiset: slot i keeps prev_idx[i]
    whenever a copy is still available (ties resolved toward lower slots),
    which attains the maximum sum_j min(N_j, #{i: prev_idx[i]=j}) agreements.
    Leftover copies fill the remaining slots in ascending value order.
    """
    k = idx.shape[0]
    if prev_idx.shape != (k,):
        raise ValueError("prev_idx must have the same length as the index vector")
    counts = np.bincount(idx, minlength=k)
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
