"""scripts/output_digests.py: --compare on small synthetic digest files, the
digests of a small trace CSV, and the configs of the wet variants."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

from enkpf.config import parse_config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"
MACHINE = {"avx512f": True, "nproc": 2, "numpy": "2.4.6"}


def digests(path, files):
    path.write_text(json.dumps({"machine": MACHINE, "files": files}))
    return str(path)


def csv_digest(sha, methods=None, **columns):
    digest = {"sha256": sha, "columns": columns}
    if methods is not None:
        digest["methods"] = methods
    return digest


def compare(a, b):
    return subprocess.run([sys.executable, str(SCRIPT), "--compare", a, b],
                          capture_output=True, text=True)


def test_compare_names_each_differing_file_and_column(tmp_path):
    parent = {
        "run-seed1/scores.csv": csv_digest("s1", method="m", crps="c1"),
        "run-seed1/trace_0.csv": csv_digest(
            "t1", {"lenkf": {"ess_mean": "l"}, "naive_lenkpf": {"ess_mean": "n1"}},
            gamma="g", ess_mean="e1", cycle="c"),
        "run-seed1/ranks.csv": csv_digest("r1", rank="r"),
        "spinup-hf/truth.csv": csv_digest("u1", h="h"),
    }
    change = {
        "run-seed1/scores.csv": csv_digest("s2", method="m", crps="c2"),
        "run-seed1/trace_0.csv": csv_digest(
            "t2", {"lenkf": {"ess_mean": "l"}, "naive_lenkpf": {"ess_mean": "n2"}},
            gamma="g", ess_mean="e2", cycle="c"),
        "run-seed1/ranks.csv": csv_digest("r1", rank="r"),
        "spinup-hf/ensemble.csv": csv_digest("v1", h="h"),
    }
    result = compare(digests(tmp_path / "a.json", parent), digests(tmp_path / "b.json", change))
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "run-seed1/scores.csv: differs in columns crps",
        "run-seed1/trace_0.csv: differs in columns ess_mean (methods naive_lenkpf)",
        "spinup-hf/ensemble.csv: only in the second",
        "spinup-hf/truth.csv: only in the first",
    ]


def test_compare_of_equal_digests_exits_0(tmp_path):
    files = {"run-seed7/scores.csv": csv_digest("s", method="m", crps="c")}
    result = compare(digests(tmp_path / "a.json", files), digests(tmp_path / "b.json", files))
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["all 1 files byte-identical"]


def digest_files(tmp_path, name, text):
    """The digests that output_digests.digest_csv gives a CSV with this text."""
    (tmp_path / "trace_0.csv").write_text(text)
    code = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
            "import output_digests as od; "
            "print(json.dumps(od.digest_csv(Path(sys.argv[2]))))")
    out = subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent),
                          str(tmp_path / "trace_0.csv")],
                         capture_output=True, text=True, check=True).stdout
    return digests(tmp_path / name, {"run/trace_0.csv": json.loads(out)})


def test_trace_digests_name_the_methods_whose_rows_differ(tmp_path):
    rows = ["rep,cycle,method,gamma_mean,ess_mean", "0,1,lenkf,1.0,",
            "0,1,naive_lenkpf,0.0,{}", "0,1,block_lenkpf,0.5,{}"]
    parent = digest_files(tmp_path, "a.json", "\n".join(rows).format("30.1", "25.2") + "\n")
    change = digest_files(tmp_path, "b.json",
                          "\n".join(rows).format("30.09999999999999", "25.20000000000001") + "\n")
    result = compare(parent, change)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        "run/trace_0.csv: differs in columns ess_mean (methods block_lenkpf, naive_lenkpf)",
    ]


def test_compare_prints_each_traces_rows_with_gamma_strictly_inside_0_1(tmp_path):
    # only a row whose gamma_min or gamma_max is in (0, 1) surely ran the
    # hybrid update; the block row's sites may all be 0 or 1
    rows = ["rep,cycle,method,gamma_mean,gamma_min,gamma_max,ess_mean",
            "0,1,lenkf,1.0,1.0,1.0,", "0,1,naive_lenkpf,0.25,0.0,0.5,30.0",
            "0,1,block_lenkpf,0.5,0.0,1.0,25.0", "0,2,enkpf_global,0.18,0.18,0.18,26.0",
            "0,2,pf_global,0.0,0.0,0.0,3.0", "0,2,enkf_global,,,,"]
    change = digest_files(tmp_path, "b.json", "\n".join(rows) + "\n")
    assert json.loads(Path(change).read_text())["files"]["run/trace_0.csv"]["hybrid_rows"] == 2
    result = compare(change, change)
    assert result.returncode == 0
    assert result.stdout.splitlines() == [
        "all 1 files byte-identical",
        "run/trace_0.csv: 2 and 2 rows with 0 < gamma < 1",
    ]
    # a digest file written before the count existed shows "-"
    before = json.loads(Path(change).read_text())
    del before["files"]["run/trace_0.csv"]["hybrid_rows"]
    parent = tmp_path / "a.json"
    parent.write_text(json.dumps(before))
    result = compare(str(parent), change)
    assert result.returncode == 0
    assert result.stdout.splitlines()[1:] == ["run/trace_0.csv: - and 2 rows with 0 < gamma < 1"]


def test_the_wet_variants_are_hf_desk_and_analysis_mix_from_a_four_day_warm_start():
    # the digests' gate on the hybrid update: two workloads again, from a warm
    # state in which rain has set in; every other setting is the workload's
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import output_digests as od; "
            "print(json.dumps({label: text for label, (_, text) in od.variants().items()}))")
    texts = json.loads(subprocess.run([sys.executable, "-c", code, str(SCRIPT.parent)],
                                      capture_output=True, text=True, check=True).stdout)
    assert list(texts) == ["hf_desk", "analysis_mix", "lf_slice", "hf_desk-wet",
                           "analysis_mix-wet"]
    for name in ("hf_desk", "analysis_mix"):
        dry, wet = parse_config(texts[name]), parse_config(texts[f"{name}-wet"])
        assert wet.model.warm_start_days == 4.0
        assert wet == dataclasses.replace(
            dry, model=dataclasses.replace(dry.model, warm_start_days=4.0))
