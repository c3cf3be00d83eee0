"""Command-line entry point: run, spinup, and score subcommands.

`run` executes a cycled twin experiment from a config file (all flags
optional; command-line flags override file values). `spinup` writes to CSV
the truth state and ensemble that `run` starts repetition 0 from, and
`score` computes per-field CRPS of a stored ensemble against a stored truth
state. Exit code 0 on success; on failure a single `error: ...` line goes to
stderr and the exit code is nonzero. BLAS runs on one thread, whatever the
environment says, so that its threads cannot change the outputs' bits.
"""

import argparse
import os
import sys

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

from enkpf.config import _EXPERIMENT_KEYS, SCENARIOS, _to_methods, parse_config  # noqa: E402
from enkpf.errors import EnkpfError  # noqa: E402


def _load_config(path, overrides):
    if path is None:
        text = ""
    else:
        with open(path) as fh:
            text = fh.read()
    return parse_config(text, overrides)


def _run_overrides(args):
    """The config keys the flags given set; a flag's dest is its config key."""
    return {
        key: getattr(args, key)
        for key in _EXPERIMENT_KEYS
        if getattr(args, key, None) is not None
    }


def _cmd_run(args):
    from enkpf.experiment import run_experiment

    if args.threads < 1:
        raise EnkpfError("--threads: must be >= 1")
    cfg = _load_config(args.config, _run_overrides(args))
    records, _ = run_experiment(cfg, threads=args.threads)
    print(
        f"wrote {cfg.out_dir}/scores.csv and {cfg.out_dir}/ranks.csv "
        f"({len(records)} records, {cfg.repetitions} repetitions)"
    )
    return 0


def _cmd_spinup(args):
    from enkpf.experiment import start_state
    from enkpf.sweq import save_ensemble_csv, save_state_csv

    cfg = _load_config(args.config, _run_overrides(args))
    truth, members = start_state(cfg, 0)
    os.makedirs(cfg.out_dir, exist_ok=True)
    truth_path = os.path.join(cfg.out_dir, "truth.csv")
    ens_path = os.path.join(cfg.out_dir, "ensemble.csv")
    save_state_csv(truth, truth_path)
    save_ensemble_csv(members, ens_path)
    print(f"wrote {truth_path} and {ens_path} (k={cfg.k})")
    return 0


def _cmd_score(args):
    import numpy as np

    from enkpf.grid import FIELDS, Grid
    from enkpf.scoring import field_crps
    from enkpf.sweq import load_ensemble_csv, load_state_csv

    ens = load_ensemble_csv(args.ensemble)
    truth = load_state_csv(args.truth)
    if ens.shape[1] != truth.size:
        raise EnkpfError("ensemble and truth state have different grid sizes")
    grid = Grid(truth.size // len(FIELDS))
    ens_f, truth_f = grid.split(ens), grid.split(truth)
    # finite values whose differences overflow give an inf CRPS, an error
    with np.errstate(over="ignore", invalid="ignore"):
        crps = {f: field_crps(ens_f[f], truth_f[f]) for f in FIELDS}
    for f, value in crps.items():
        if not np.isfinite(value):
            raise EnkpfError(f"CRPS of field {f} is not finite: the values overflow")
    print("field,crps")
    for f, value in crps.items():
        print(f"{f},{value!r}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enkpf",
        description="cycled twin experiments with localized ensemble filters "
        "on a 1d convection-scale model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a cycled twin experiment")
    p_spin = sub.add_parser("spinup", help="write a spun-up truth state and ensemble")
    for p in (p_run, p_spin):
        p.add_argument("--config", help="config file (flat [section] key = value)")
        p.add_argument("--seed", type=int, dest="base_seed", metavar="SEED", help="base seed")
        p.add_argument("--out", help="output directory")
    p_run.add_argument("--scenario", choices=SCENARIOS, help="timing preset")
    p_run.add_argument(
        "--reps", type=int, dest="repetitions", metavar="REPS", help="number of repetitions"
    )
    p_run.add_argument("--methods", type=_to_methods, help="comma-separated method list")
    p_run.add_argument("--threads", type=int, default=1,
                       help="parallel repetitions (at most one per CPU)")
    p_run.add_argument(
        "--trace", action="store_true", default=None, help="write per-cycle trace CSVs"
    )
    p_run.set_defaults(func=_cmd_run)
    p_spin.set_defaults(func=_cmd_spinup)

    p_score = sub.add_parser("score", help="CRPS of a stored ensemble vs a truth state")
    p_score.add_argument("--ensemble", required=True, help="ensemble CSV")
    p_score.add_argument("--truth", required=True, help="truth state CSV")
    p_score.set_defaults(func=_cmd_score)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EnkpfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
