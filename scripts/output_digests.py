"""sha256 digests of the byte-compared outputs, and their comparison.

    python scripts/output_digests.py digests.json
    python scripts/output_digests.py --compare parent.json change.json

The first form runs, from this checkout's src/, at seeds 1 and 7, `enkpf
run --trace` on the config of each workload in perfbench/run.py's
WORKLOADS, with the workload's own --threads, and `enkpf spinup --config
configs/hf.ini`. It writes one JSON file: the sha256 of every output CSV
(scores.csv, ranks.csv, each trace_*.csv; spinup's truth.csv and
ensemble.csv), of each of its columns and, for a CSV with a method column,
of each column over each method's rows, with nproc, the numpy version and
whether the CPU has avx512f, on which numpy's float64 exp, and so the
model's bits, depend.

--compare names every file whose digest differs between two such files, or
that only one of them has, and for a CSV the columns and the methods that
differ, e.g. "trace_0.csv: differs in columns ess_mean (methods
block_lenkpf, naive_lenkpf)"; it exits 1 if anything differs. Comparing a
change's digests with its parent's is the check that a change leaves every
output byte-identical, or alters only the named methods' rows.
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


def _columns(header, rows):
    return {name: _sha("\n".join(row[i] for row in rows).encode())
            for i, name in enumerate(header)}


def digest_csv(path):
    """{"sha256": of the file, "columns": {name: sha256 of its cells}}, and for
    a CSV with a method column "methods": {method: the columns of its rows}."""
    data = path.read_bytes()
    header, *rows = csv.reader(data.decode().splitlines())
    digest = {"sha256": _sha(data), "columns": _columns(header, rows)}
    if "method" in header:
        i = header.index("method")
        digest["methods"] = {method: _columns(header, [row for row in rows if row[i] == method])
                             for method in {row[i] for row in rows}}
    return digest


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


def _differing(a, b):
    """The keys of two dicts whose values differ, or that only one has."""
    keys = sorted(key for key in a.keys() | b.keys() if a.get(key) != b.get(key))
    return ", ".join(keys) or "(none)"


def compare(a, b):
    """The lines naming each file, CSV column and method whose digests differ."""
    files_a, files_b = a["files"], b["files"]
    lines = []
    for name in sorted(files_a.keys() | files_b.keys()):
        if name not in files_a or name not in files_b:
            lines.append(f"{name}: only in {'the first' if name in files_a else 'the second'}")
        elif files_a[name]["sha256"] != files_b[name]["sha256"]:
            fa, fb = files_a[name], files_b[name]
            line = f"{name}: differs in columns {_differing(fa['columns'], fb['columns'])}"
            if "methods" in fa and "methods" in fb:
                line += f" (methods {_differing(fa['methods'], fb['methods'])})"
            lines.append(line)
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
