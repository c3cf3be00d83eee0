import io

import numpy as np
import pytest
import scipy.stats

from enkpf.scoring import (
    SCORES_HEADER,
    ScoreRecord,
    crps_empirical,
    field_crps,
    rank_of_truth,
    write_scores_csv,
)

from oracles import rank_histogram, read_scores_csv, scores_csv_text


def crps_by_integration(x, t):
    """Independent oracle: integrate (F(s) - 1{s >= t})^2 exactly.

    The integrand is piecewise constant between consecutive breakpoints
    (member values and the truth), so summing value * width is exact.
    """
    x = np.sort(np.asarray(x, dtype=float))
    pts = np.unique(np.concatenate([x, [t]]))
    total = 0.0
    for a, b in zip(pts[:-1], pts[1:]):
        mid = 0.5 * (a + b)
        f = np.sum(x <= mid) / x.size
        h = 1.0 if mid >= t else 0.0
        total += (f - h) ** 2 * (b - a)
    return total


def test_crps_worked_examples():
    assert crps_empirical([0.0, 1.0], 0.0) == pytest.approx(0.25, abs=1e-14)
    assert crps_empirical([3.0], 1.5) == pytest.approx(1.5, abs=1e-14)
    assert crps_empirical([2.0, 2.0, 2.0], 2.0) == 0.0


def test_crps_matches_integral_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 12))
        x = np.round(rng.standard_normal(k), 2)  # rounding provokes ties
        t = float(np.round(rng.standard_normal() * 2, 2))
        assert crps_empirical(x, t) == pytest.approx(crps_by_integration(x, t), abs=1e-8)


def test_crps_invariances():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(9)
    t = 0.3
    base = crps_empirical(x, t)
    assert crps_empirical(x + 5.0, t + 5.0) == pytest.approx(base, rel=1e-12)
    assert crps_empirical(2.0 * x, 2.0 * t) == pytest.approx(2.0 * base, rel=1e-12)
    assert crps_empirical(np.flip(x), t) == pytest.approx(base, rel=1e-14)


def test_crps_rejects_bad_input():
    with pytest.raises(ValueError):
        crps_empirical([], 0.0)
    with pytest.raises(ValueError):
        crps_empirical([np.nan, 1.0], 0.0)
    with pytest.raises(ValueError):
        crps_empirical([0.0, 1.0], np.inf)


def test_field_crps_matches_per_column_loop():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((7, 40))
    t = rng.standard_normal(40)
    ref = np.mean([crps_empirical(x[:, g], t[g]) for g in range(40)])
    assert field_crps(x, t) == pytest.approx(ref, rel=1e-12)
    with pytest.raises(ValueError):
        field_crps(x, t[:10])


def test_crps_rewards_calibration():
    rng = np.random.default_rng(3)
    trials = 3000
    truth = rng.standard_normal(trials)
    calibrated = rng.standard_normal((10, trials))
    biased = rng.standard_normal((10, trials)) + 2.0
    assert field_crps(calibrated, truth) < field_crps(biased, truth)


def test_rank_of_truth_plain_and_ties():
    rng = np.random.default_rng(4)
    assert rank_of_truth(np.array([1.0, 3.0, 5.0]), 4.0, rng) == 2
    assert rank_of_truth(np.array([1.0, 3.0, 5.0]), 0.0, rng) == 0
    assert rank_of_truth(np.array([1.0, 3.0, 5.0]), 9.0, rng) == 3
    # single member equal to the truth: both ranks equally likely
    hits = np.array([rank_of_truth(np.array([2.0]), 2.0, rng) for _ in range(2000)])
    frac = hits.mean()
    assert abs(frac - 0.5) < 0.045


def test_rank_histogram_uniform_for_exchangeable_truth():
    rng = np.random.default_rng(5)
    t_slices, k, n = 25, 9, 200
    times = 1800.0 * np.arange(t_slices)
    members = rng.standard_normal((t_slices, k, n))
    truth = rng.standard_normal((t_slices, n))
    counts = rank_histogram(members, truth, times, np.random.default_rng(6))
    assert counts.sum() == t_slices * 20
    stat = scipy.stats.chisquare(counts)
    assert stat.pvalue > 1e-3


def test_rank_histogram_thinning():
    rng = np.random.default_rng(7)
    times = np.array([0.0, 900.0, 1800.0, 2700.0, 3600.0])
    members = rng.standard_normal((5, 3, 30))
    truth = rng.standard_normal((5, 30))
    counts = rank_histogram(members, truth, times, np.random.default_rng(8))
    assert counts.sum() == 3 * 3  # times 0/1800/3600, grid points 0/10/20
    with pytest.raises(ValueError):
        rank_histogram(members, truth, times + 250.0, np.random.default_rng(9))


def test_score_record_relative():
    rec = ScoreRecord(0, 3, "lenkf", "r", 0.05, 0.10)
    assert rec.relative_pct == pytest.approx(50.0)
    assert ScoreRecord(0, 3, "lenkf", "r", None, 0.1).relative_pct is None
    assert ScoreRecord(0, 3, "lenkf", "r", 0.05, None).relative_pct is None
    assert ScoreRecord(0, 3, "lenkf", "r", 0.05, 0.0).relative_pct is None


def test_scores_csv_roundtrip(tmp_path):
    records = [
        ScoreRecord(0, 0, "enkpf_global", "r", 0.123456789012345, 0.2),
        ScoreRecord(0, 1, "block_lenkpf", "h", None, None),
        ScoreRecord(1, 0, "free", "u", 1.0 / 3.0, 1.0 / 3.0),
    ]
    text = scores_csv_text(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(SCORES_HEADER)
    assert lines[2] == "0,1,block_lenkpf,h,,,"  # missing scores stay empty
    path = tmp_path / "scores.csv"
    with open(path, "w") as fh:
        write_scores_csv(records, fh)
    back = read_scores_csv(path)
    assert len(back) == 3
    assert back[0].crps == records[0].crps  # repr round-trips exactly
    assert back[0].relative_pct == pytest.approx(100.0 * 0.123456789012345 / 0.2)
    assert back[1].crps is None
    assert back[2].relative_pct == pytest.approx(100.0)


def test_scores_csv_deterministic_text():
    records = [ScoreRecord(2, 5, "pf_global", "r", 0.25, 0.5)]
    buf = io.StringIO()
    write_scores_csv(records, buf)
    assert buf.getvalue() == scores_csv_text(records)
    assert buf.getvalue().endswith("2,5,pf_global,r,0.25,0.5,50.0\n")
