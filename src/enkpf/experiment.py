"""Cycled twin experiments: forecast, observe, score, analyze, repeat.

Each repetition starts from start_state: one spinup trajectory whose first
sample is the truth and whose other k samples are the initial ensemble that
every method shares (`enkpf spinup` writes repetition 0's). It then cycles:
the truth advances one assimilation interval and emits radar-like
observations; every method's one-step-ahead forecast ensemble is scored
against the truth (CRPS per field, relative to the free forecast); each
method then runs its analysis and the analyses are propagated to the next
cycle. The `free` method never sees an observation object at all: its
"analysis" is the forecast, which makes it the climatological baseline.

A numerical failure (blowup, CFL, non-PD innovation, a non-finite analysis)
removes the method for the rest of the repetition from the cycle where it
happens; its later cycles are recorded with empty scores and the other
methods continue.

Every random draw comes from seed_stream(base_seed, rep, cycle, role, unit),
so the full output is a pure function of the config: repetitions can run in a
process pool and still produce byte-identical CSV files. Forecast plume
streams are keyed by member index only and therefore shared across methods,
which pairs the method comparisons member-by-member. So all methods forecast
in lock-step (sweq.advance_ensembles): each step's plumes are drawn and
evaluated once for every method. All methods start from the same spinup
ensemble, so cycle 1 advances one trajectory and gives each method a copy.
The LOCAL methods share one localization plan per cycle (local_plan). A
config checked itself and filled in its timing when it was built, so nothing
here checks it again, and pool workers get it as it was pickled.
"""

import csv
import math
import os
from dataclasses import dataclass
from functools import partial
from multiprocessing import Pool

import numpy as np

from enkpf import sweq
from enkpf.core import ensemble_moments
from enkpf.errors import CflViolation, FilterError, NumericalBlowup
from enkpf.global_filters import adaptive_gamma, enkf_update, pf_weights
from enkpf.grid import FIELDS
from enkpf.local_filters import (
    LocalDiagnostics,
    block_lenkpf_update,
    lenkf_update,
    local_plan,
    naive_lenkpf_update,
)
from enkpf.resampling import balanced_resample, ess
from enkpf.rngstream import seed_stream
from enkpf.scoring import ScoreRecord, _cell, field_crps, rank_of_truth, write_scores_csv
from enkpf.sweq import advance_members, gen_observations, spinup_ensemble

FAILURES = (FilterError, NumericalBlowup, CflViolation)
RANK_TIME_THIN_S = 1800.0
RANK_SPACE_THIN = 10

TRACE_HEADER = [
    "rep", "cycle", "time_s", "method", "truth_rain_mean",
    "forecast_rain_mean", "analysis_rain_mean",
    "gamma_mean", "gamma_min", "gamma_max", "ess_mean",
]


@dataclass(frozen=True)
class TraceRow:
    """Per (cycle, method) diagnostic summary of one repetition."""

    rep: int
    cycle: int
    time_s: float
    method: str
    truth_rain_mean: float
    forecast_rain_mean: float
    analysis_rain_mean: float
    gammas: tuple
    ess_values: tuple


@dataclass
class RepResult:
    rep: int
    records: list
    rank_counts: dict  # (method, field) -> (k + 1,) counts
    trace_rows: list
    failed_at: dict  # method -> cycle of first numerical failure


# Each analysis maps (members, obs, plan, cfg, rng, diag), plan the cycle's
# LocalPlan, to the analysis member array. The filters are looked up in
# this module's namespace at call time, so a name replaced here (as the
# benchmark's tracer does) reaches them all. The global EnKF and EnKPF get
# only HPH' (m, m) of the members: their gains are the anomalies A' times a
# solve with k right-hand sides (global_filters._global_update).


def _enkf_global(members, obs, plan, cfg, rng, diag):
    return enkf_update(members, obs, ensemble_moments(members, obs.h_rows, obs.h_rows), rng)


def _enkpf_global(members, obs, plan, cfg, rng, diag):
    s_oo = ensemble_moments(members, obs.h_rows, obs.h_rows)
    gamma, (out, w, _) = adaptive_gamma(members, obs, s_oo, cfg.ess_band, rng)
    diag.record(gamma, ess(w))
    return out


def _pf_global(members, obs, plan, cfg, rng, diag):
    w = pf_weights(members, obs)
    diag.record(0.0, ess(w))
    idx = balanced_resample(w, rng)
    return members[idx]


def _lenkf(members, obs, plan, cfg, rng, diag):
    return lenkf_update(members, plan, rng)


def _naive_lenkpf(members, obs, plan, cfg, rng, diag):
    return naive_lenkpf_update(members, plan, cfg.ess_band, rng, diagnostics=diag)


def _block_lenkpf(members, obs, plan, cfg, rng, diag):
    return block_lenkpf_update(members, plan, cfg.ess_band, rng, diagnostics=diag)


# The method registry. Its order is part of the output: a method's position
# keys its analysis and rank rng streams. `free` has no analysis: its
# forecast is carried over and it writes no trace row.
ANALYSES = {
    "enkf_global": _enkf_global,
    "lenkf": _lenkf,
    "naive_lenkpf": _naive_lenkpf,
    "block_lenkpf": _block_lenkpf,
    "pf_global": _pf_global,
    "enkpf_global": _enkpf_global,
    "free": None,
}
METHODS = tuple(ANALYSES)
METHOD_IDS = {name: i for i, name in enumerate(METHODS)}
LOCAL = ("lenkf", "naive_lenkpf", "block_lenkpf")


def _forecast(ens, params, steps, rngs):
    """Each method's forecast of its ensemble in ens, or the failure that stopped it.

    Every distinct ensemble array is advanced once, all of them in lock-step
    through sweq.advance_ensembles, so the plumes of a step are drawn and
    evaluated once for all methods. A method holding the same array as an
    earlier one gets its own copy of the forecast.
    """
    arrays = {id(x): x for x in ens.values()}
    advanced = sweq.advance_ensembles(list(arrays.values()), params, steps, rngs)
    advanced = dict(zip(arrays, advanced))
    out = {}
    for m, x in ens.items():
        fc = advanced[id(x)]
        if isinstance(fc, np.ndarray) and any(fc is other for other in out.values()):
            fc = fc.copy()
        out[m] = fc
    return out


def start_state(cfg, rep, base=None):
    """(truth, members) of repetition rep: the k + 1 samples of its spinup
    trajectory from the warm state base (default sweq.warm_state(cfg.model)),
    truth first. All methods of the repetition, and `enkpf spinup` (rep 0),
    start from it.
    """
    rng = seed_stream(cfg.base_seed, rep, 0, "spinup", 0)
    spin = spinup_ensemble(cfg.model, cfg.k + 1, cfg.spinup_days, rng, base)
    return spin[0], spin[1:]


def run_single_rep(cfg, rep, base=None):
    """One repetition of the twin experiment; pure function of (cfg, rep).

    base is the warm state its spinup starts from (see start_state).
    """
    params = cfg.model
    grid = params.grid
    k = cfg.k
    seed = cfg.base_seed
    steps = params.steps(cfg.interval_s)

    truth, members = start_state(cfg, rep, base)
    # the live methods' ensembles, in method order; every method starts from
    # the same spinup array, so cycle 1 advances one trajectory for them all
    ens = dict.fromkeys(cfg.methods, members)
    failed_at = {}

    records = []
    rank_counts = {(m, f): np.zeros(k + 1, dtype=np.int64) for m in cfg.methods for f in FIELDS}
    trace_rows = []

    for cycle in range(1, cfg.n_cycles + 1):
        t_now = cycle * cfg.interval_s
        truth = advance_members(
            truth[None, :], params, steps, [seed_stream(seed, rep, cycle, "truth", 0)]
        )[0]
        obs = gen_observations(truth, params, cfg.r_r, cfg.r_u,
                               seed_stream(seed, rep, cycle, "obs", 0))

        forecasts = {}
        rngs = [seed_stream(seed, rep, cycle, "forecast", i) for i in range(k)]
        for m, fc in _forecast(ens, params, steps, rngs).items():
            if isinstance(fc, FAILURES):
                failed_at[m] = cycle
                del ens[m]
            else:
                forecasts[m] = fc

        truth_f = grid.split(truth)
        forecast_f = {m: grid.split(fc) for m, fc in forecasts.items()}
        # each live forecast scored once; a failed method's scores are empty
        crps = {
            m: {f: field_crps(fc[f], truth_f[f]) for f in FIELDS} for m, fc in forecast_f.items()
        }
        free = crps.get("free", {})
        for m in cfg.methods:
            for f in FIELDS:
                records.append(ScoreRecord(rep, cycle, m, f, crps.get(m, {}).get(f), free.get(f)))

        # every 30 minutes to within half a step (cycle times need not be whole seconds)
        if abs(math.remainder(t_now, RANK_TIME_THIN_S)) < 0.5 * params.dt_s:
            for m in forecasts:
                rng_rank = seed_stream(seed, rep, cycle, "ranks", METHOD_IDS[m])
                for f in FIELDS:
                    fc, tr = forecast_f[m][f], truth_f[f]
                    for g in range(0, grid.n_points, RANK_SPACE_THIN):
                        rank_counts[(m, f)][rank_of_truth(fc[:, g], tr[g], rng_rank)] += 1

        # dropped after the last local analysis: no later global one holds its weights
        local = [m for m in forecasts if m in LOCAL]
        plan = local_plan(obs, grid, cfg.l_m, cfg.block_segment_m) if local else None
        for m in cfg.methods:
            if m not in forecasts:
                continue
            analysis = ANALYSES[m]
            if analysis is None:
                ens[m] = forecasts[m]
                continue
            diag = LocalDiagnostics()
            rng_a = seed_stream(seed, rep, cycle, "analysis", METHOD_IDS[m])
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    out = analysis(forecasts[m], obs, plan, cfg, rng_a, diag)
            except FAILURES:
                out = None
            if local and m == local[-1]:
                plan = None
            # an overflow fails the method here, not in a numpy warning; a NaN analysis
            # would pass the next forecast's CFL check (its wave speed is NaN)
            if out is None or not np.isfinite(out).all():
                failed_at[m] = cycle
                del ens[m]
                continue
            ens[m] = out
            if cfg.trace:
                trace_rows.append(
                    TraceRow(
                        rep, cycle, t_now, m,
                        float(truth_f["r"].mean()),
                        float(forecast_f[m]["r"].mean()),
                        float(grid.split(ens[m])["r"].mean()),
                        tuple(diag.gammas),
                        tuple(diag.ess_values),
                    )
                )

    return RepResult(rep, records, rank_counts, trace_rows, failed_at)


def write_ranks_csv(rank_totals, methods, k, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["method", "field", "rank", "count"])
    for m in methods:
        for f in FIELDS:
            counts = rank_totals[(m, f)]
            for rank in range(k + 1):
                writer.writerow([m, f, rank, int(counts[rank])])


def write_trace_csv(trace_rows, fh):
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(TRACE_HEADER)
    for row in trace_rows:
        gammas = np.asarray(row.gammas)
        esses = np.asarray(row.ess_values)
        has = gammas.size > 0
        writer.writerow(
            [
                row.rep, row.cycle, _cell(row.time_s), row.method,
                _cell(row.truth_rain_mean), _cell(row.forecast_rain_mean),
                _cell(row.analysis_rain_mean),
                _cell(float(gammas.mean()) if has else None),
                _cell(float(gammas.min()) if has else None),
                _cell(float(gammas.max()) if has else None),
                _cell(float(esses.mean()) if esses.size else None),
            ]
        )


def run_experiment(cfg, threads=1):
    """Run all repetitions and write scores.csv / ranks.csv (+ traces).

    Returns (records, rank_totals). Output bytes depend only on the config:
    repetitions are independent seeded jobs whose results are collected in
    repetition order before anything is written.
    """
    os.makedirs(cfg.out_dir, exist_ok=True)
    # one warm start for all repetitions, before a pool forks its workers;
    # looked up on the module at call time, as the analyses' filters are
    job = partial(run_single_rep, cfg, base=sweq.warm_state(cfg.model))
    reps = list(range(cfg.repetitions))
    # never more workers than repetitions or CPUs, whatever --threads asks for
    workers = min(threads, cfg.repetitions, os.cpu_count() or 1)
    if workers > 1:
        with Pool(processes=workers) as pool:
            results = pool.map(job, reps, chunksize=1)
    else:
        results = [job(rep) for rep in reps]
    results.sort(key=lambda res: res.rep)

    records = [rec for res in results for rec in res.records]
    rank_totals = {key: sum(r.rank_counts[key] for r in results) for key in results[0].rank_counts}

    with open(os.path.join(cfg.out_dir, "scores.csv"), "w", newline="") as fh:
        write_scores_csv(records, fh)
    with open(os.path.join(cfg.out_dir, "ranks.csv"), "w", newline="") as fh:
        write_ranks_csv(rank_totals, cfg.methods, cfg.k, fh)
    if cfg.trace:
        for res in results:
            path = os.path.join(cfg.out_dir, f"trace_{res.rep}.csv")
            with open(path, "w", newline="") as fh:
                write_trace_csv(res.trace_rows, fh)
    return records, rank_totals
