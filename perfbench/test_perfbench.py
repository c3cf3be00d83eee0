"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import outcheck
import run
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_CONFIG = """[experiment]
scenario = custom
interval_s = 900
duration_s = 1800
methods = lenkf, naive_lenkpf, block_lenkpf, free
k = 6
l = 2000
repetitions = 2
spinup_days = 0.002

[model]
n_points = 24
warm_start_days = 0
"""
TINY = dict(methods=("lenkf", "naive_lenkpf", "block_lenkpf", "free"), reps=2, cycles=2,
            interval_s=900, k=6, n_points=24)


def span(span_id, start, end, parent=None, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end,
            "rep": None, "pid": 1, "attrs": {}}


def test_self_time_of_nested_and_overlapping_children():
    trace = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent="a"),
        span("c", 3.0, 6.0, parent="a"),  # overlaps b: union of b and c is [1, 6]
        span("d", 2.0, 3.0, parent="b"),  # grandchild: counts against b, not a
        span("e", 9.0, 12.0, parent="a"),  # runs past its parent: only [9, 10] counts
        span("f", 5.0, 5.5, parent="c"),
    ]
    selfs = spans.self_times(trace)
    assert selfs["a"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs["b"] == pytest.approx(2.0)
    assert selfs["c"] == pytest.approx(2.5)
    assert selfs["d"] == pytest.approx(1.0)
    assert selfs["e"] == pytest.approx(3.0)
    table = spans.span_table(trace)
    assert table["x"]["calls"] == 6
    assert table["x"]["total_s"] == pytest.approx(10 + 3 + 3 + 1 + 3 + 0.5)


def test_child_inside_another_child_is_not_counted_twice():
    trace = [span("a", 0.0, 10.0), span("b", 2.0, 8.0, parent="a"),
             span("c", 3.0, 4.0, parent="a")]
    assert spans.self_times(trace)["a"] == pytest.approx(4.0)


def fake(module, name, body):
    body.__module__, body.__name__ = module, name
    return body


def test_tracer_records_parents_reps_and_counts(tmp_path):
    tracer = spans.Tracer(str(tmp_path))
    advance = tracer.wrap(
        fake("enkpf.sweq", "advance_members", lambda members, params, n_steps, rngs: None),
        spans.ANNOTATE["sweq.advance_members"],
    )

    class Result:
        records = []

    def rep_body(cfg, rep):
        advance([1, 2, 3], None, 5, [None] * 3)
        return Result()

    one_rep = tracer.wrap(fake("enkpf.experiment", "run_single_rep", rep_body),
                          spans.ANNOTATE["experiment.run_single_rep"])
    one_rep(None, 4)
    advance([1], None, 2, [None])
    tracer.flush()
    recorded = spans.load_spans(str(tmp_path))
    assert [(s["name"], s["rep"], s["attrs"]) for s in recorded] == [
        ("sweq.advance_members", 4, {"rows": 3, "steps": 5}),
        ("experiment.run_single_rep", 4, {"failed_method_cycles": 0}),
        ("sweq.advance_members", None, {"rows": 1, "steps": 2}),
    ]
    assert recorded[0]["parent"] == recorded[1]["id"]
    assert recorded[1]["parent"] is None and recorded[2]["parent"] is None


def write_scores(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(outcheck.SCORES_HEADER)
        writer.writerows(rows)


def valid_rows():
    rows = []
    for cycle in (1, 2):
        free = {"h": 0.5, "u": 0.25, "r": 0.125}
        for method, scale in (("lenkf", 0.5), ("free", 1.0)):
            for field in outcheck.FIELDS:
                crps = free[field] * scale
                rel = 100.0 * crps / free[field]
                rows.append([0, cycle, method, field, repr(crps), repr(free[field]), repr(rel)])
    return rows


def write_ranks(path, methods, k, count):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(outcheck.RANKS_HEADER)
        for m in methods:
            for f in outcheck.FIELDS:
                for rank in range(k + 1):
                    writer.writerow([m, f, rank, count if rank == 0 else 0])


def check_synthetic(tmp_path, rows):
    write_scores(tmp_path / "scores.csv", rows)
    # one rank cycle (t = 1800 s) x 2 thinned points of a 20-point grid
    write_ranks(tmp_path / "ranks.csv", ("lenkf", "free"), 3, 2)
    return outcheck.check_run(tmp_path, ("lenkf", "free"), 1, 2, 900, 3, 20)


def test_output_check_accepts_consistent_files(tmp_path):
    check = check_synthetic(tmp_path, valid_rows())
    assert check.problems == []
    assert (check.rows, check.failed_rows) == (4, 0)
    assert check.crps_pct_r == {"lenkf": pytest.approx(50.0)}
    assert len(check.scores_sha256) == 64


def test_output_check_rejects_truncated_scores(tmp_path):
    check = check_synthetic(tmp_path, valid_rows()[:-2])
    assert "rows, expected" in check.problems[0]


def test_output_check_rejects_nan_crps(tmp_path):
    rows = valid_rows()
    rows[0][4] = "nan"
    assert check_synthetic(tmp_path, rows).problems


def test_output_check_rejects_negative_crps(tmp_path):
    rows = valid_rows()
    rows[1][4] = "-0.5"
    assert check_synthetic(tmp_path, rows).problems


def test_output_check_rejects_inconsistent_relative_pct(tmp_path):
    rows = valid_rows()
    rows[2][6] = repr(float(rows[2][6]) * 1.001)
    check = check_synthetic(tmp_path, rows)
    assert any("relative_pct" in p for p in check.problems)


def test_output_check_rejects_wrong_rank_totals(tmp_path):
    write_scores(tmp_path / "scores.csv", valid_rows())
    write_ranks(tmp_path / "ranks.csv", ("lenkf", "free"), 3, 3)
    check = outcheck.check_run(tmp_path, ("lenkf", "free"), 1, 2, 900, 3, 20)
    assert any("ranks.csv" in p for p in check.problems)


def test_output_check_counts_empty_crps_as_failed(tmp_path):
    rows = valid_rows()
    for row in rows[6:9]:  # cycle 2, lenkf: the method failed
        row[4] = row[6] = ""
    write_scores(tmp_path / "scores.csv", rows)
    with open(tmp_path / "ranks.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(outcheck.RANKS_HEADER)
        for m in ("lenkf", "free"):
            for f in outcheck.FIELDS:
                for rank in range(4):
                    # lenkf was not scored at the rank cycle, so it has no ranks
                    writer.writerow([m, f, rank, 2 if (rank == 0 and m == "free") else 0])
    check = outcheck.check_run(tmp_path, ("lenkf", "free"), 1, 2, 900, 3, 20)
    assert check.problems == []
    assert (check.rows, check.failed_rows) == (4, 1)


def test_metric_names_and_benchmark_json_agree_with_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    untraced = {"traced": False, "run_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 1.0}
    traced = {"traced": True, "run_s": 1.0, "layers": spans.layer_metrics([], run.K)}
    emitted_e2e = run.end_to_end([untraced], [1.0])
    emitted_layers = run.per_layer([untraced, traced], outcheck.RunCheck())
    for declared, emitted in ((bench["end_to_end"], emitted_e2e),
                              (bench["per_layer"], emitted_layers)):
        assert {m["name"]: m["unit"] for m in declared} == {
            name: unit for name, (_, unit) in emitted.items()}
    for metric in bench["end_to_end"] + bench["per_layer"] + bench["workloads"]:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64


def test_runs_started_together_are_timed_each_to_its_own_end(tmp_path):
    sleeps = (0.6, 0.1)
    commands = [([sys.executable, "-c", f"import time; time.sleep({s})"], tmp_path / f"{i}.log")
                for i, s in enumerate(sleeps)]
    done = run.finish_all(run.start_all(commands, deadline=run.time.monotonic() + 60))
    assert [code for code, _, _ in done] == [0, 0]
    walls = [wall for _, _, wall in done]
    assert walls[0] >= 0.6 and 0.1 <= walls[1] < 0.5


def run_tiny(tmp_path, traced):
    out = tmp_path / ("traced" if traced else "plain")
    config = tmp_path / "tiny.ini"
    config.write_text(TINY_CONFIG)
    args = ["run", "--config", str(config), "--threads", "2", "--out", str(out)]
    if traced:
        argv = [sys.executable, str(run.BENCH / "traced_run.py"), str(out / "spans")] + args
    else:
        argv = [sys.executable, "-m", "enkpf.cli"] + args
    subprocess.run(argv, check=True, env=run.child_env(), cwd=run.ROOT, timeout=120,
                   capture_output=True)
    return out


def test_traced_run_writes_identical_outputs_and_worker_spans(tmp_path):
    plain = run_tiny(tmp_path, traced=False)
    traced = run_tiny(tmp_path, traced=True)
    for name in ("scores.csv", "ranks.csv"):
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name
    check = outcheck.check_run(traced, **TINY)
    assert check.problems == []
    recorded = spans.load_spans(traced / "spans")
    reps = [s for s in recorded if s["name"] == "experiment.run_single_rep"]
    assert sorted(s["rep"] for s in reps) == [0, 1]
    pool = [s for s in recorded if s["name"] == "experiment.pool"]
    assert len(pool) == 1 and pool[0]["pid"] not in {s["pid"] for s in reps}
    ids = {s["id"] for s in recorded}
    assert all(s["parent"] in ids for s in recorded if s["parent"] is not None)
    metrics = spans.layer_metrics(recorded, 6)
    assert 0.0 < metrics["experiment.pool.busy_frac"][0] <= 1.0
    assert metrics["sweq.advance_members.rowsK.member_steps"][0] == 2 * 4 * 2 * 6 * 180
    assert metrics["local_filters.naive_lenkpf.sites"][0] > 0
    assert metrics["scoring.write_scores_csv.bytes"][0] == (traced / "scores.csv").stat().st_size


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in Path(run.BENCH).glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "lf_slice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == "" and proc.stderr.startswith("error:")
