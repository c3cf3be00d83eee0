"""Time the model step in process, from the warm state, with the compiled
step and with the numpy step.

    PYTHONPATH=src python scripts/step_bench.py [--steps 3000] [--rounds 7]

Prints the time the warm start took, then the median wall time of one step
of sweq.advance_ensembles at 1 row, at 50 rows and for three 50-row
ensembles in lock-step (plume draws included), and again at 1 and 50 rows
with 10 times the default plume_rate: 10 plumes per row and step, whose
counts numpy draws by its PTRS method. Each is timed with both steps (the
rounds alternate them; ENKPF_STEP selects one), or with the numpy step
alone where the kernel cannot be built. Then one JSON line with the same
numbers and the machine: nproc, the BLAS thread variables, the CPU model
and whether the CPU has avx512f, on which numpy's float64 exp, and so the
model's bits, depend, the step a run takes (sweq.STEP) and the compiler
and flags that build the kernel. A 1-row sample takes --steps steps; a
50-row sample takes a fifteenth of them, at least one. Timings on a shared
machine drift, so compare two trees by running them in alternation.
"""

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

from enkpf import ckernel, sweq

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# (label, rows, ensembles, plume_rate as a multiple of the default)
CASES = (("rows1", 1, 1, 1), ("rows50", 50, 1, 1), ("rows50x3", 50, 3, 1),
         ("rows1_lam10", 1, 1, 10), ("rows50_lam10", 50, 1, 10))


def nproc():
    """The CPUs this process may run on, as nproc counts them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def cpu_info():
    """The CPU's model name and whether its flags list avx512f; None for
    each where /proc/cpuinfo is missing or does not say."""
    try:
        with open("/proc/cpuinfo") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None, None
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    flags = [line.split() for line in lines if line.startswith("flags")]
    return (models[0] if models else None), (any("avx512f" in f for f in flags) if flags else None)


def use_step(name):
    """Make advance_ensembles take the named step; returns the one it takes."""
    os.environ.pop("ENKPF_STEP", None)
    if name == "numpy":
        os.environ["ENKPF_STEP"] = "numpy"
    sweq._kernel.cache_clear()
    return sweq.STEP


def step_us(params, base, rows, ensembles, steps, rounds, names):
    """Median microseconds per step of advance_ensembles over rounds samples,
    for each named step; the rounds alternate the steps."""
    members = np.tile(base, (rows, 1))
    samples = {name: [] for name in names}
    for i in range(rounds):
        for name in names:
            use_step(name)
            rngs = [np.random.default_rng([i, row]) for row in range(rows)]
            start = time.perf_counter()
            out = sweq.advance_ensembles([members] * ensembles, params, steps, rngs)
            samples[name].append(1e6 * (time.perf_counter() - start) / steps)
            for x in out:
                if not isinstance(x, np.ndarray):
                    raise x
    return {name: round(statistics.median(times), 1) for name, times in samples.items()}


def compiler_version(cc):
    """The first line of the compiler's --version, or None."""
    try:
        done = subprocess.run([*cc, "--version"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.splitlines()[0] if done.returncode == 0 and done.stdout else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=3000, help="steps of a 1-row sample")
    parser.add_argument("--rounds", type=int, default=7, help="samples per case and step")
    parser.add_argument("--warm-days", type=float, default=sweq.ModelParams.warm_start_days,
                        help="length of the warm start, in days")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.rounds < 1:
        parser.error("--steps and --rounds must be at least 1")

    default = sweq.STEP
    names = ["c", "numpy"] if use_step("c") == "c" else ["numpy"]
    params = sweq.ModelParams(warm_start_days=args.warm_days)
    result = {"warm_start": {"days": args.warm_days, "s": {}}}
    for name in names:
        use_step(name)
        start = time.perf_counter()
        base = sweq.warm_state.__wrapped__(params)
        result["warm_start"]["s"][name] = round(time.perf_counter() - start, 3)
    print(f"warm start, {args.warm_days:g} days: "
          + ", ".join(f"{s:.3f} s ({name})" for name, s in result["warm_start"]["s"].items()))
    for label, rows, ensembles, rate in CASES:
        steps = args.steps if rows == 1 else max(1, args.steps // 15)
        case = dataclasses.replace(params, plume_rate=rate * params.plume_rate)
        us = step_us(case, base, rows, ensembles, steps, args.rounds, names)
        result[label] = {"rows": rows, "ensembles": ensembles, "steps": steps,
                         "plumes_per_step": case.plumes_per_step,
                         "rounds": args.rounds, "step_us_median": us}
        print(f"step, {ensembles} x {rows} rows, {case.plumes_per_step:g} plumes per row "
              f"and step: " + ", ".join(f"{t:.1f} us ({name})" for name, t in us.items())
              + f" (median of {args.rounds} samples of {steps} steps)")
    cpu, avx512f = cpu_info()
    cc = ckernel.compiler()
    machine = {"nproc": nproc(), "cpu": cpu, "avx512f": avx512f,
               "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
               "numpy": np.__version__, "python": sys.version.split()[0],
               "step": default, "cc": " ".join(cc) or None,
               "cc_version": compiler_version(cc) if cc else None,
               "flags": " ".join(ckernel.FLAGS)}
    result["machine"] = machine
    print(f"nproc {machine['nproc']}, avx512f {machine['avx512f']}, "
          + ", ".join(f"{name}={value}" for name, value in machine["blas_threads"].items())
          + f", step {machine['step']}, cc {machine['cc']} ({machine['cc_version']})")
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
