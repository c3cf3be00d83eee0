"""scripts/summarize_scores.py, the scores.csv report of README's Quick start."""

import subprocess
import sys
from pathlib import Path

from enkpf.config import ExperimentConfig
from enkpf.experiment import run_experiment
from enkpf.grid import GridGeometry
from enkpf.sweq import ModelParams

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "summarize_scores.py"
METHODS = ("block_lenkpf", "free")


def tiny_scores(out_dir, duration_s):
    cfg = ExperimentConfig(
        scenario="custom", interval_s=60.0, duration_s=duration_s, k=5, l_m=2000.0,
        spinup_days=0.002, base_seed=3, methods=METHODS, repetitions=2,
        out_dir=str(out_dir),
        model=ModelParams(geometry=GridGeometry(24, 500.0), warm_start_days=0.0),
    )
    run_experiment(cfg)
    return out_dir / "scores.csv"


def summarize(scores):
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(scores)], capture_output=True, text=True
    )


def test_summary_of_a_tiny_run(tmp_path):
    done = summarize(tiny_scores(tmp_path, 180.0))
    assert done.returncode == 0, done.stderr
    head, final, per_cycle = done.stdout.strip().split("\n\n")
    assert head == "2 repetitions, 3 cycles"
    final = [line.split() for line in final.splitlines()]
    assert final[0] == ["mean", "CRPS", "relative", "to", "free", "(%)", "at", "cycle", "3:"]
    assert final[1] == ["method", "h", "u", "r"]
    assert [row[0] for row in final[2:]] == list(METHODS)
    free_cells = final[-1][1:]
    per_cycle = [line.split() for line in per_cycle.splitlines()]
    assert per_cycle[1] == ["cycle", *METHODS]
    assert [row[0] for row in per_cycle[2:]] == ["1", "2", "3"]
    free_cells += [row[-1] for row in per_cycle[2:]]
    shown = [cell for cell in free_cells if cell != "--"]
    assert shown and all(cell == "100.0" for cell in shown)


def test_header_only_scores_exit_1(tmp_path):
    scores = tiny_scores(tmp_path, 0.0)
    assert scores.read_text() == "rep,cycle,method,field,crps,crps_free,relative_pct\n"
    done = summarize(scores)
    assert done.returncode == 1
    assert done.stderr.strip() == "no records"
