"""sha256 digests of the byte-compared outputs, and their comparison.

    python scripts/output_digests.py digests.json
    python scripts/output_digests.py --compare parent.json change.json

The first form runs, from this checkout's src/, at seeds 1 and 7, `enkpf
run --trace` on the config of each workload in perfbench/run.py's
WORKLOADS, with the workload's own --threads, and `enkpf spinup --config
configs/hf.ini`. It writes one JSON file: the sha256 of every output CSV
(scores.csv, ranks.csv, each trace_*.csv; spinup's truth.csv and
ensemble.csv) and of each of its columns, with nproc, the numpy version and
whether the CPU has avx512f, on which numpy's float64 exp, and so the
model's bits, depend.

--compare names every file whose digest differs between two such files, or
that only one of them has, and for a CSV the columns that differ; it exits
1 if anything differs. Comparing a change's digests with its parent's is
the check that a change leaves every output byte-identical.
"""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, child_env  # noqa: E402

SEEDS = (1, 7)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digest_csv(path):
    """{"sha256": of the file, "columns": {name: sha256 of its cells}}."""
    data = path.read_bytes()
    header, *rows = csv.reader(data.decode().splitlines())
    columns = {
        name: _sha("\n".join(row[i] for row in rows).encode()) for i, name in enumerate(header)
    }
    return {"sha256": _sha(data), "columns": columns}


def has_avx512f():
    """Whether the CPU flags list avx512f; None where /proc/cpuinfo is missing."""
    try:
        with open("/proc/cpuinfo") as fh:
            return any("avx512f" in line.split() for line in fh if line.startswith("flags"))
    except OSError:
        return None


def enkpf(*args):
    """Runs the checkout's enkpf, one BLAS thread, as perfbench/run.py does."""
    subprocess.run([sys.executable, "-m", "enkpf.cli", *map(str, args)],
                   cwd=ROOT, env=child_env(), check=True, stdout=subprocess.DEVNULL)


def collect(work):
    """Runs every output's command under work; returns {label/file: digest}."""
    outs = {}
    for name, workload in WORKLOADS.items():
        (work / f"{name}.ini").write_text(workload.config_text())
    for seed in SEEDS:
        for name, workload in WORKLOADS.items():
            out = outs[f"{name}-seed{seed}"] = work / f"{name}-seed{seed}"
            enkpf("run", "--config", work / f"{name}.ini", "--seed", seed,
                  "--threads", workload.threads, "--trace", "--out", out)
        out = outs[f"spinup-hf-seed{seed}"] = work / f"spinup-hf-seed{seed}"
        enkpf("spinup", "--config", ROOT / "configs" / "hf.ini", "--seed", seed, "--out", out)
    return {f"{label}/{path.name}": digest_csv(path)
            for label, out in outs.items() for path in sorted(out.glob("*.csv"))}


def compare(a, b):
    """The lines naming each file and CSV column whose digests differ."""
    files_a, files_b = a["files"], b["files"]
    lines = []
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            lines.append(f"{name}: only in {'the first' if name in files_a else 'the second'}")
        elif files_a[name]["sha256"] != files_b[name]["sha256"]:
            cols_a, cols_b = files_a[name]["columns"], files_b[name]["columns"]
            differ = [c for c in cols_a.keys() | cols_b.keys() if cols_a.get(c) != cols_b.get(c)]
            lines.append(f"{name}: differs in columns {', '.join(sorted(differ)) or '(none)'}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="JSON file to write the digests to")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        for key in sorted(a["machine"].keys() | b["machine"].keys()):
            if a["machine"].get(key) != b["machine"].get(key):
                print(f"machine {key}: {a['machine'].get(key)} vs {b['machine'].get(key)}")
        lines = compare(a, b)
        print("\n".join(lines) if lines else f"all {len(a['files'])} files byte-identical")
        return 1 if lines else 0
    if not args.out:
        parser.error("give an output file, or --compare A B")
    with tempfile.TemporaryDirectory() as work:
        files = collect(Path(work))
    machine = {"nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
               "avx512f": has_avx512f()}
    Path(args.out).write_text(json.dumps({"machine": machine, "files": files}, indent=1,
                                         sort_keys=True) + "\n")
    print(f"wrote {len(files)} digests to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
