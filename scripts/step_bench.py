"""Time the model step in process, from the warm state.

    PYTHONPATH=src python scripts/step_bench.py [--steps 3000] [--rounds 7]

Prints the time the warm start took, then the median wall time of one step
of sweq.advance_ensembles at 1 row, at 50 rows and for three 50-row
ensembles in lock-step (plume draws included), and again at 1 and 50 rows
with 10 times the default plume_rate: 10 plumes per row and step, whose
counts numpy draws by its PTRS method. Then one JSON line with the same
numbers and the machine: nproc, the BLAS thread variables, the CPU model
and whether the CPU has avx512f, on which numpy's float64 exp, and so the
model's bits, depend. A 1-row sample takes
--steps steps; a 50-row sample takes a fifteenth of them, at least one.
Timings on a shared machine drift, so compare two trees by running them in
alternation.
"""

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time

import numpy as np

from enkpf import sweq

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


def step_us(params, base, rows, ensembles, steps, rounds):
    """Median microseconds per step of advance_ensembles over rounds samples."""
    members = np.tile(base, (rows, 1))
    samples = []
    for i in range(rounds):
        rngs = [np.random.default_rng([i, row]) for row in range(rows)]
        start = time.perf_counter()
        out = sweq.advance_ensembles([members] * ensembles, params, steps, rngs)
        samples.append(1e6 * (time.perf_counter() - start) / steps)
        for x in out:
            if not isinstance(x, np.ndarray):
                raise x
    return statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=3000, help="steps of a 1-row sample")
    parser.add_argument("--rounds", type=int, default=7, help="samples per case")
    parser.add_argument("--warm-days", type=float, default=sweq.ModelParams.warm_start_days,
                        help="length of the warm start, in days")
    args = parser.parse_args(argv)
    if args.steps < 1 or args.rounds < 1:
        parser.error("--steps and --rounds must be at least 1")

    params = sweq.ModelParams(warm_start_days=args.warm_days)
    start = time.perf_counter()
    base = sweq.warm_state(params)
    result = {"warm_start": {"days": args.warm_days, "s": round(time.perf_counter() - start, 3)}}
    print(f"warm start, {args.warm_days:g} days: {result['warm_start']['s']:.3f} s")
    for label, rows, ensembles, rate in CASES:
        steps = args.steps if rows == 1 else max(1, args.steps // 15)
        case = dataclasses.replace(params, plume_rate=rate * params.plume_rate)
        us = step_us(case, base, rows, ensembles, steps, args.rounds)
        result[label] = {"rows": rows, "ensembles": ensembles, "steps": steps,
                         "plumes_per_step": case.plumes_per_step,
                         "rounds": args.rounds, "step_us_median": round(us, 1)}
        print(f"step, {ensembles} x {rows} rows, {case.plumes_per_step:g} plumes per row "
              f"and step: {us:.1f} us (median of {args.rounds} samples of {steps} steps)")
    cpu, avx512f = cpu_info()
    machine = {"nproc": nproc(), "cpu": cpu, "avx512f": avx512f,
               "blas_threads": {name: os.environ.get(name) for name in BLAS_VARS},
               "numpy": np.__version__, "python": sys.version.split()[0]}
    result["machine"] = machine
    print(f"nproc {machine['nproc']}, avx512f {machine['avx512f']}, "
          + ", ".join(f"{name}={value}" for name, value in machine["blas_threads"].items()))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
