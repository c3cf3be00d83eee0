"""scripts/output_digests.py --compare on two small synthetic digest files."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
MACHINE = {"avx512f": True, "nproc": 2, "numpy": "2.4.6"}


def digests(path, files):
    path.write_text(json.dumps({"machine": MACHINE, "files": files}))
    return str(path)


def csv_digest(sha, **columns):
    return {"sha256": sha, "columns": columns}


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", a, b],
                          capture_output=True, text=True)


def test_compare_names_each_differing_file_and_column(tmp_path):
    parent = {
        "run-seed1/scores.csv": csv_digest("s1", method="m", crps="c1"),
        "run-seed1/trace_0.csv": csv_digest("t1", gamma="g", ess_mean="e1", cycle="c"),
        "run-seed1/ranks.csv": csv_digest("r1", rank="r"),
        "spinup-hf/truth.csv": csv_digest("u1", h="h"),
    }
    change = {
        "run-seed1/scores.csv": csv_digest("s2", method="m", crps="c2"),
        "run-seed1/trace_0.csv": csv_digest("t2", gamma="g", ess_mean="e2", cycle="c"),
        "run-seed1/ranks.csv": csv_digest("r1", rank="r"),
        "spinup-hf/ensemble.csv": csv_digest("v1", h="h"),
    }
    result = compare(digests(tmp_path / "a.json", parent), digests(tmp_path / "b.json", change))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "run-seed1/scores.csv: differs in columns crps",
        "run-seed1/trace_0.csv: differs in columns ess_mean",
        "spinup-hf/ensemble.csv: only in the second",
        "spinup-hf/truth.csv: only in the first",
    ]


def test_compare_of_equal_digests_exits_0(tmp_path):
    files = {"run-seed7/scores.csv": csv_digest("s", method="m", crps="c")}
    result = compare(digests(tmp_path / "a.json", files), digests(tmp_path / "b.json", files))
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["all 1 files byte-identical"]
