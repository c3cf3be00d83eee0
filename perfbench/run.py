"""Benchmark of enkpf's cycled twin experiments.

    python3 perfbench/run.py --workload hf_desk --seed 1 --seconds 10 --trace 0

Runs the workload through `enkpf run` in fresh processes, built from the
checkout's src/ (this file's grandparent directory), in rounds until
--seconds have passed, at least once. The runs of a round start together
when the cores hold all their workers (see at_once). With --trace 0 a round
is at_once() untraced runs, and the invocation also times SETUP_SAMPLES
fresh set-ups and reports the end-to-end metrics; with --trace 1 a round is
an untraced and a traced run (spans.py), and it reports the per-layer
metrics and the tracing overhead. Every run's outputs are checked
(outcheck.py) and all runs of one invocation must write byte-identical
scores.csv and ranks.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the same numbers for
people, with the environment. The full record goes to
perfbench/out/<workload>-seed<seed>-trace<t>/result.json.
See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import outcheck
import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
DEFAULT_SEED = 1
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_SAMPLES = 2
K = 50
N_POINTS = 300
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    scenario: str
    interval_s: int
    cycles: int
    methods: tuple
    reps: int
    threads: int

    def config_text(self):
        return (
            "[experiment]\n"
            f"scenario = {self.scenario}\n"
            f"interval_s = {self.interval_s}\n"
            f"duration_s = {self.interval_s * self.cycles}\n"
            f"methods = {', '.join(self.methods)}\n"
            f"k = {K}\n"
            "l = 5000\n"
            f"repetitions = {self.reps}\n"
            "\n[model]\n"
            f"n_points = {N_POINTS}\n"
        )


LOCAL = ("lenkf", "naive_lenkpf", "block_lenkpf")
WORKLOADS = {
    # configs/hf.ini as users run it, pooled over two workers
    "hf_desk": Workload("hf", 300, 12, LOCAL + ("free",), reps=2, threads=2),
    # every analysis method on 12-step cycles, so the analyses dominate
    "analysis_mix": Workload(
        "custom", 60, 16,
        ("enkf_global",) + LOCAL + ("pf_global", "enkpf_global", "free"),
        reps=1, threads=1,
    ),
    # 360-step cycles: model integration dominates, analyses are small
    "lf_slice": Workload("lf", 1800, 3, ("lenkf", "block_lenkpf", "free"), reps=1, threads=1),
}


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.update(BLAS_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def at_once(threads):
    """How many runs of a workload with `threads` workers share the machine at
    once: one per core, at most two."""
    return max(1, min(2, len(os.sched_getaffinity(0)) // threads))


def start_all(commands, deadline):
    """Starts each (argv, log) in `commands` at once; returns (proc, timer, began)
    for each. On timeout a timer kills the child's whole session, pool workers
    included."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(map(str, commands[0][0][:4])))
    started = []
    try:
        for argv, log in commands:
            began = time.perf_counter()
            with open(log, "w") as fh:
                proc = subprocess.Popen(
                    [str(a) for a in argv], cwd=ROOT, env=child_env(),
                    stdout=fh, stderr=subprocess.STDOUT, start_new_session=True,
                )
            timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            started.append((proc, timer, began))
    except BaseException:
        for proc, _, _ in started:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        finish_all(started)
        raise
    return started


def finish_all(started):
    """Waits for every child of start_all; returns, in order, each child's exit
    code, rusage (of it and its children) and wall seconds."""
    pending = {proc.pid: i for i, (proc, _, _) in enumerate(started)}
    done = [None] * len(started)
    try:
        while pending:
            pid, status, usage = os.wait4(-1, 0)
            ended = time.perf_counter()
            if pid not in pending:
                continue
            i = pending.pop(pid)
            proc, _, began = started[i]
            proc.returncode = os.waitstatus_to_exitcode(status)
            done[i] = (proc.returncode, usage, ended - began)
    finally:
        for _, timer, _ in started:
            timer.cancel()
    return done


def setup_samples(config, run_dir, deadline):
    """Seconds of each fresh set-up; as many run at once as there are cores,
    at most two."""
    batch = at_once(1)
    samples = []
    for first in range(0, SETUP_SAMPLES, batch):
        logs = [run_dir / f"setup-{i}.log"
                for i in range(first, min(first + batch, SETUP_SAMPLES))]
        started = start_all(
            [([sys.executable, BENCH / "setup_probe.py", config], log) for log in logs],
            deadline)
        for log, (code, _, _) in zip(logs, finish_all(started)):
            text = log.read_text()
            if code != 0:
                raise BenchError(f"set-up probe failed ({code}): {text.strip()[-300:]}")
            samples.append(float(text.split()[-1]))
    return samples


def command(out, traced, run_args):
    if traced:
        return [sys.executable, BENCH / "traced_run.py", out / "spans"] + run_args
    return [sys.executable, "-m", "enkpf.cli"] + run_args


def run_round(workload, seed, config, outs, deadline):
    """Runs `enkpf run` once per (out directory, traced) in `outs`, all at once;
    returns one result per run."""
    commands = []
    for out, traced in outs:
        out.mkdir(parents=True)
        run_args = ["run", "--config", config, "--seed", seed,
                    "--threads", workload.threads, "--out", out]
        commands.append((command(out, traced, run_args), out / "log.txt"))
    results = []
    for (out, traced), (code, usage, wall) in zip(outs, finish_all(start_all(commands, deadline))):
        check = outcheck.check_run(out, workload.methods, workload.reps, workload.cycles,
                                   workload.interval_s, K, N_POINTS)
        if code != 0:
            check.problems.append(
                f"enkpf run exited {code}: {(out / 'log.txt').read_text()[-300:]}")
        result = {
            "out": out, "traced": traced, "check": check, "run_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }
        if traced:
            loaded = spans.load_spans(out / "spans")
            result["layers"] = spans.layer_metrics(loaded, K)
            result["span_table"] = spans.span_table(loaded)
        results.append(result)
    return results


def measure(workload, seed, config, run_dir, seconds, deadline, trace):
    """Rounds of runs until `seconds` have passed. A round is at_once() untraced
    runs, or an untraced and a traced run; runs of one round share the machine
    when there are cores enough, else they run one after the other."""
    runs = []
    began = time.monotonic()
    rounds = 0
    while True:
        batch = at_once(workload.threads)
        flags = (False, True) if trace else (False,) * batch
        for first in range(0, len(flags), batch):
            outs = [(run_dir / f"{'traced' if traced else 'untraced'}-{len(runs) + i}", traced)
                    for i, traced in enumerate(flags[first:first + batch])]
            runs += run_round(workload, seed, config, outs, deadline)
        rounds += 1
        now = time.monotonic()
        per_round = (now - began) / rounds
        if now - began >= seconds or now + per_round > deadline:
            return runs


def same_outputs(runs):
    """True when every run wrote the same scores.csv and ranks.csv bytes."""
    def digest(run, name):
        path = run["out"] / name
        return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None

    return all(
        len({digest(run, name) for run in runs}) == 1 for name in ("scores.csv", "ranks.csv")
    )


def environment(workload, seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "enkpf").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "blas_threads": BLAS_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "machine": platform.machine(),
        "seed": seed,
        "workload": asdict(workload),
        "config": workload.config_text(),
    }


def local_crps_pct(check):
    """Mean over the localized methods run of their rain CRPS as % of free's.

    The global methods are left out: at k = 50 they are degenerate on this
    model and their skill swings with the seed (enkpf_global measured
    65-214 % over five seeds). The localized mean is an exact function of
    the seed, but across seeds it still spread up to 0.26 (interquartile
    distance over median) on analysis_mix when that assimilated 20 minutes,
    and it now assimilates 16. No bound can hold that, so it is a per-layer
    metric.
    """
    pct = [check.crps_pct_r[m] for m in LOCAL if m in check.crps_pct_r]
    # none at all only happens when the output check failed
    return statistics.mean(pct) if pct else 0.0


def end_to_end(runs, setup):
    untraced = [r for r in runs if not r["traced"]]
    return {
        "run_s": (statistics.median(r["run_s"] for r in untraced), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in untraced), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in untraced), "MB"),
    }


def per_layer(runs, check):
    traced = [r for r in runs if r["traced"]]
    untraced = [r for r in runs if not r["traced"]]
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        out[name] = (statistics.median(r["layers"][name][0] for r in traced), unit)
    out["scoring.crps_pct_r"] = (local_crps_pct(check), "%")
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "enkpf" / "cli.py").is_file():
        print(f"error: no enkpf sources under {ROOT / 'src'}; run this from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    run_dir = BENCH / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config = run_dir / "config.ini"
    config.write_text(workload.config_text())
    try:
        setup = [] if args.trace else setup_samples(config, run_dir, deadline)
        runs = measure(workload, args.seed, config, run_dir, args.seconds, deadline, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    check = runs[0]["check"]
    problems = [p for r in runs for p in r["check"].problems]
    if not same_outputs(runs):
        problems.append("runs of one seed wrote different scores.csv or ranks.csv bytes")
    correct = not problems
    attempted = check.rows or workload.reps * workload.cycles * len(workload.methods)
    failed = check.failed_rows if correct else attempted
    metrics = per_layer(runs, check) if args.trace else end_to_end(runs, setup)
    env = environment(workload, args.seed)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(runs)} run(s) of `enkpf run`, threads {workload.threads}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6g} ({failed} of {attempted} rows)")
    print(f"{'crps_pct_r (localized methods)':48s} {local_crps_pct(check):14.6g} %")
    for method, pct in check.crps_pct_r.items():
        print(f"{'crps_pct_r.' + method:48s} {pct:14.6g} %")
    print(f"scores.csv sha256 {check.scores_sha256}")
    if setup:
        print("setup_s samples " + " ".join(f"{s:.3f}" for s in setup))
    print("run_s per run " + " ".join(f"{r['run_s']:.3f}{'t' if r['traced'] else ''}"
                                      for r in runs))
    if args.trace:
        table = next(r for r in runs if r["traced"])["span_table"]
        print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}")
    print("environment " + json.dumps(env, sort_keys=True))

    record = {
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
        "crps_pct_r_by_method": check.crps_pct_r, "scores_sha256": check.scores_sha256,
        "setup_samples_s": setup, "environment": env,
        "runs": [{"traced": r["traced"], "run_s": r["run_s"], "cpu_s": r["cpu_s"],
                  "peak_rss_mb": r["peak_rss_mb"], "span_table": r.get("span_table")}
                 for r in runs],
    }
    (run_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
