"""Checks on the scores.csv and ranks.csv that `enkpf run` writes.

The expectations follow the output format the README describes: one
scores.csv row per (rep, cycle, method, field) in that order, relative_pct
equal to 100 * crps / crps_free, and rank counts taken every RANK_TIME_S of
model time at every RANK_SPACE-th grid point, for each method whose forecast
was scored at that cycle.
"""

import csv
import hashlib
import math
import os

FIELDS = ("h", "u", "r")
SCORES_HEADER = ["rep", "cycle", "method", "field", "crps", "crps_free", "relative_pct"]
RANKS_HEADER = ["method", "field", "rank", "count"]
RANK_TIME_S = 1800
RANK_SPACE = 10


class RunCheck:
    """The verdict on one run's output directory."""

    def __init__(self):
        self.problems = []
        self.rows = 0  # (rep, cycle, method) rows attempted
        self.failed_rows = 0  # rows with an empty CRPS cell
        self.scores_sha256 = None
        self.crps_pct_r = {}  # method -> 100 * mean rain CRPS / mean free rain CRPS


def _number(cell, what, check):
    if cell == "":
        return None
    try:
        value = float(cell)
    except ValueError:
        check.problems.append(f"{what}: not a number: {cell!r}")
        return None
    if not math.isfinite(value) or value < 0.0:
        check.problems.append(f"{what}: must be finite and >= 0, got {cell}")
    return value


def check_run(out_dir, methods, reps, cycles, interval_s, k, n_points):
    check = RunCheck()
    path = os.path.join(out_dir, "scores.csv")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        check.problems.append(f"scores.csv: {exc}")
        return check
    check.scores_sha256 = hashlib.sha256(raw).hexdigest()
    rows = list(csv.reader(raw.decode().splitlines()))
    if not rows or rows[0] != SCORES_HEADER:
        check.problems.append("scores.csv: missing or wrong header")
        return check
    expected = [(r, c, m, f) for r in range(reps) for c in range(1, cycles + 1)
                for m in methods for f in FIELDS]
    body = rows[1:]
    if len(body) != len(expected):
        check.problems.append(f"scores.csv: {len(body)} rows, expected {len(expected)}")
        return check

    crps, crps_free = {}, {}
    failed = set()
    for lineno, (row, key) in enumerate(zip(body, expected), start=2):
        where = f"scores.csv line {lineno}"
        if len(row) != len(SCORES_HEADER) or (
            row[0], row[1], row[2], row[3]) != (str(key[0]), str(key[1]), key[2], key[3]):
            check.problems.append(f"{where}: expected rep/cycle/method/field {key}")
            return check
        value = _number(row[4], where + " crps", check)
        free = _number(row[5], where + " crps_free", check)
        rel = _number(row[6], where + " relative_pct", check)
        crps[key] = value
        if value is None:
            failed.add(key[:3])
        if value is not None and free is not None and free > 0.0:
            if rel != 100.0 * value / free:
                check.problems.append(f"{where}: relative_pct is not 100*crps/crps_free")
        elif rel is not None:
            check.problems.append(f"{where}: relative_pct without a positive crps_free")
        crps_free[key] = free
    check.rows = reps * cycles * len(methods)
    check.failed_rows = len(failed)

    cells = [(r, c) for r in range(reps) for c in range(1, cycles + 1)]
    if "free" in methods:
        for key, free in crps_free.items():
            if free != crps[(key[0], key[1], "free", key[3])]:
                check.problems.append(f"scores.csv {key}: crps_free differs from free's crps")
                break
        for m in methods:
            pairs = [(crps[(r, c, m, "r")], crps[(r, c, "free", "r")]) for r, c in cells]
            pairs = [(v, f) for v, f in pairs if v is not None and f is not None]
            free_sum = sum(f for _, f in pairs)
            if m != "free" and free_sum > 0.0:
                check.crps_pct_r[m] = 100.0 * sum(v for v, _ in pairs) / free_sum

    rank_cycles = [c for c in range(1, cycles + 1) if round(c * interval_s) % RANK_TIME_S == 0]
    points = len(range(0, n_points, RANK_SPACE))
    _check_ranks(out_dir, methods, reps, rank_cycles, points, k, crps, check)
    return check


def _check_ranks(out_dir, methods, reps, rank_cycles, points, k, crps, check):
    try:
        with open(os.path.join(out_dir, "ranks.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        check.problems.append(f"ranks.csv: {exc}")
        return
    expected = [[m, f, str(rank)] for m in methods for f in FIELDS for rank in range(k + 1)]
    if not rows or rows[0] != RANKS_HEADER or [row[:3] for row in rows[1:]] != expected:
        check.problems.append("ranks.csv: header or (method, field, rank) rows wrong")
        return
    totals = {}
    for row in rows[1:]:
        if len(row) != 4 or not row[3].isdigit():
            check.problems.append(f"ranks.csv: bad count row {row}")
            return
        totals[(row[0], row[1])] = totals.get((row[0], row[1]), 0) + int(row[3])
    for m in methods:
        for f in FIELDS:
            scored = sum(crps[(r, c, m, f)] is not None
                         for r in range(reps) for c in rank_cycles)
            if totals[(m, f)] != scored * points:
                check.problems.append(
                    f"ranks.csv: {m}/{f} counts sum to {totals[(m, f)]}, "
                    f"expected {scored * points}"
                )
