"""Forecast verification: empirical CRPS, spatial aggregation, truth ranks.

CRPS uses the exact formula for an empirical (step-function) forecast
distribution, mean |x_i - t| minus half the mean pairwise member distance;
this equals the integral of (F(x') - 1{x' >= t})^2. The rank of the truth
among the members breaks ties uniformly at random; the experiment driver
counts these ranks into histograms with the usual thinning (every 10th grid
point, every 30 simulated minutes).
"""

import csv
from dataclasses import dataclass

import numpy as np


def crps_empirical(values, truth):
    """CRPS of an empirical ensemble forecast against a scalar truth."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("empty ensemble")
    if x.ndim != 1 or not np.isfinite(x).all() or not np.isfinite(truth):
        raise ValueError("values must be a finite 1d array and truth finite")
    k = x.size
    term1 = np.mean(np.abs(x - truth))
    term2 = np.sum(np.abs(x[:, None] - x[None, :])) / (2.0 * k * k)
    return float(term1 - term2)


def field_crps(members_field, truth_field):
    """Mean CRPS over grid points for a (k, n) forecast field vs an n truth.

    Vectorized over columns: the pairwise sum per column is computed from the
    sorted values, sum_{i<j}(x_(j) - x_(i)) = sum_i (2i + 1 - k) x_(i).
    """
    x = np.asarray(members_field, dtype=float)
    t = np.asarray(truth_field, dtype=float)
    if x.ndim != 2 or t.shape != (x.shape[1],):
        raise ValueError("shape mismatch between forecast field and truth field")
    k = x.shape[0]
    term1 = np.mean(np.abs(x - t), axis=0)
    xs = np.sort(x, axis=0)
    coef = 2.0 * np.arange(k) + 1.0 - k
    pair = coef @ xs  # sum over ordered pairs, per column
    term2 = pair / (k * k)
    return float(np.mean(term1 - term2))


def rank_of_truth(values, truth, rng):
    """Rank of truth among member values, ties randomized uniformly."""
    x = np.asarray(values)
    below = int(np.sum(x < truth))
    equal = int(np.sum(x == truth))
    if equal:
        below += int(rng.integers(0, equal + 1))
    return below


@dataclass(frozen=True)
class ScoreRecord:
    """One (repetition, cycle, method, field) verification entry.

    crps/crps_free are None for cycles where the method had already failed;
    relative_pct is None whenever crps_free is missing or zero.
    """

    rep: int
    cycle: int
    method: str
    field: str
    crps: float | None
    crps_free: float | None

    @property
    def relative_pct(self):
        if self.crps is None or self.crps_free is None or self.crps_free <= 0.0:
            return None
        return 100.0 * self.crps / self.crps_free


SCORES_HEADER = ["rep", "cycle", "method", "field", "crps", "crps_free", "relative_pct"]


def _cell(value):
    return "" if value is None else repr(float(value))


def write_scores_csv(records, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(SCORES_HEADER)
    for rec in records:
        writer.writerow(
            [
                rec.rep,
                rec.cycle,
                rec.method,
                rec.field,
                _cell(rec.crps),
                _cell(rec.crps_free),
                _cell(rec.relative_pct),
            ]
        )
