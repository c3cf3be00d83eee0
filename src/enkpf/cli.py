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
import csv
import os
import sys

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np  # noqa: E402

from enkpf.config import _EXPERIMENT_KEYS, SCENARIOS, _to_methods, parse_config  # noqa: E402
from enkpf.errors import EnkpfError, InputError  # noqa: E402
from enkpf.grid import FIELDS, Grid  # noqa: E402

STATE_HEADER = ["grid_index", *FIELDS]
ENSEMBLE_HEADER = ["member", *STATE_HEADER]


def _grid_rows(x):
    """The STATE_HEADER rows of a (3n,) state: each grid point's field values."""
    fields = Grid(len(x) // len(FIELDS)).split(x)
    table = np.stack(list(fields.values()), axis=1)
    return [[g, *map(repr, row.tolist())] for g, row in enumerate(table)]


def save_state_csv(x, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATE_HEADER)
        writer.writerows(_grid_rows(np.asarray(x, dtype=float)))


def _read_csv_rows(path, header):
    """The data rows of a numeric CSV with the given header line, as an array.

    Every row must hold one finite number per header column; raises
    InputError naming the file, and the line of the first bad row.
    """
    n_cols = len(header)
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise InputError(path, "header must be " + ",".join(header), 1)
        for row in reader:
            if not row:
                continue
            if len(row) != n_cols:
                raise InputError(
                    path, f"expected {n_cols} values, got {len(row)}", reader.line_num
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise InputError(path, "value is not a number", reader.line_num) from None
            if not np.isfinite(values).all():
                raise InputError(path, "value is not finite", reader.line_num)
            rows.append(values)
    if not rows:
        raise InputError(path, "no data rows")
    return np.array(rows)


def _grid_order(path, grid_index):
    """Sort order of a grid_index column, which must hold 0..n-1 once each."""
    order = np.argsort(grid_index)
    if not np.array_equal(grid_index[order], np.arange(grid_index.size)):
        raise InputError(path, "grid_index must list 0..n-1 once each")
    return order


def _state_of(path, rows):
    """The (3n,) state of STATE_HEADER rows, which may come in any grid order."""
    rows = rows[_grid_order(path, rows[:, 0])]
    x = np.empty(len(rows) * len(FIELDS))
    for block, column in zip(Grid(len(rows)).split(x).values(), rows[:, 1:].T):
        block[...] = column
    return x


def load_state_csv(path):
    """The (3n,) state in a CSV written by save_state_csv."""
    return _state_of(path, _read_csv_rows(path, STATE_HEADER))


def save_ensemble_csv(members, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENSEMBLE_HEADER)
        for i, x in enumerate(np.asarray(members, dtype=float)):
            writer.writerows([i, *row] for row in _grid_rows(x))


def load_ensemble_csv(path):
    """A (k, 3n) member array from a CSV written by save_ensemble_csv."""
    data = _read_csv_rows(path, ENSEMBLE_HEADER)
    labels = np.unique(data[:, 0])
    if not np.array_equal(labels, np.arange(labels.size)):
        raise InputError(path, "member labels must be 0..k-1")
    members = [_state_of(path, data[data[:, 0] == i, 1:]) for i in labels]
    if len({x.size for x in members}) != 1:
        raise InputError(path, "members have different grid sizes")
    return np.array(members)


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
    from enkpf.scoring import field_crps

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
