import csv
import multiprocessing
import os

import numpy as np
import pytest

import enkpf.config as config
import enkpf.experiment as ex
from enkpf import sweq
from enkpf.config import ExperimentConfig
from enkpf.core import ensemble_moments
from enkpf.errors import ConfigError, FilterError
from enkpf.global_filters import enkpf_update
from enkpf.grid import Grid
from enkpf.local_filters import (
    LocalDiagnostics,
    block_assimilate_one,
    partition_obs_blocks,
)
from enkpf.obs import GaussObs
from enkpf.sweq import ModelParams
from enkpf.taper import TaperSpec

from oracles import read_scores_csv


def tiny_cfg(**kw):
    defaults = dict(
        scenario="custom",
        interval_s=60.0,
        duration_s=300.0,
        k=6,
        l_m=2000.0,
        spinup_days=0.002,
        base_seed=7,
        methods=("lenkf", "naive_lenkpf", "block_lenkpf", "free"),
        model=ModelParams(grid=Grid(24, 500.0), warm_start_days=0.0),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_free_only_run_scores_itself_at_100(tmp_path):
    cfg = tiny_cfg(methods=("free",), out_dir=str(tmp_path))
    records, _ = ex.run_experiment(cfg)
    assert len(records) == 5 * 3  # cycles x fields
    for rec in records:
        assert rec.method == "free"
        assert rec.crps == rec.crps_free
        if rec.crps_free and rec.crps_free > 0:
            assert rec.relative_pct == pytest.approx(100.0)
    back = read_scores_csv(os.path.join(cfg.out_dir, "scores.csv"))
    assert [r.crps for r in back] == [r.crps for r in records]


def test_zero_duration_writes_header_only(tmp_path):
    cfg = tiny_cfg(duration_s=0.0, out_dir=str(tmp_path))
    records, _ = ex.run_experiment(cfg)
    assert records == []
    with open(os.path.join(cfg.out_dir, "scores.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines == ["rep,cycle,method,field,crps,crps_free,relative_pct"]


def test_record_ordering_and_relative_to_free(tmp_path):
    cfg = tiny_cfg(out_dir=str(tmp_path))
    records, _ = ex.run_experiment(cfg)
    assert len(records) == 5 * len(cfg.methods) * 3
    assert (records[0].cycle, records[0].method, records[0].field) == (1, "lenkf", "h")
    assert (records[3].method, records[3].field) == ("naive_lenkpf", "h")
    for rec in records:
        assert rec.crps_free is not None  # free is always present here
        assert rec.crps is not None


def test_threads_do_not_change_output_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    cfg1 = tiny_cfg(repetitions=2, duration_s=120.0, out_dir=out1)
    cfg2 = tiny_cfg(repetitions=2, duration_s=120.0, out_dir=out2)
    ex.run_experiment(cfg1, threads=1)
    ex.run_experiment(cfg2, threads=2)
    for name in ("scores.csv", "ranks.csv"):
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


@pytest.mark.parametrize("threads", [1, 2])
def test_one_warm_start_per_run(tmp_path, monkeypatch, threads):
    # the run computes the warm state once, in the parent process, and every
    # repetition (in a pool worker or not) starts its spinup from it
    log = tmp_path / "warm_state_calls"
    real = sweq.warm_state

    def logged(params):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(params)

    monkeypatch.setattr(sweq, "warm_state", logged)
    model = ModelParams(grid=Grid(24, 500.0), warm_start_days=0.001)
    cfg = tiny_cfg(repetitions=2, duration_s=60.0, model=model, out_dir=str(tmp_path / "out"))
    ex.run_experiment(cfg, threads=threads)
    assert log.read_text().split() == [str(os.getpid())]


@pytest.mark.parametrize(
    "threads, reps, cpus, workers",
    [(5000, 3, 2, [2]), (3, 3, 8, [3]), (5000, 1, 2, []), (2, 3, 1, []), (3, 3, None, [])],
)
def test_pool_is_bounded_by_repetitions_and_cpus(tmp_path, monkeypatch, threads, reps, cpus,
                                                 workers):
    # at most one worker per repetition and per CPU, and no pool for one; the
    # stand-in pool records its size and maps in this process
    sizes = []

    class RecordingPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(ex, "Pool", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = tiny_cfg(methods=("free",), repetitions=reps, duration_s=60.0, out_dir=str(tmp_path))
    records, _ = ex.run_experiment(cfg, threads=threads)
    assert sizes == workers
    assert [rec.rep for rec in records] == [rep for rep in range(reps) for _ in range(3)]


def test_numerical_failure_drops_method_but_not_run(monkeypatch):
    real = ex.ANALYSES["lenkf"]
    calls = {"n": 0}

    def wrapped(members, obs, cfg, rng, diag):
        calls["n"] += 1
        if calls["n"] == 2:
            raise FilterError("synthetic failure")
        return real(members, obs, cfg, rng, diag)

    monkeypatch.setitem(ex.ANALYSES, "lenkf", wrapped)
    cfg = tiny_cfg(methods=("lenkf", "free"))
    res = ex.run_single_rep(cfg, 0)
    assert res.failed_at == {"lenkf": 2}
    lenkf = {(r.cycle, r.field): r for r in res.records if r.method == "lenkf"}
    assert lenkf[(2, "h")].crps is not None  # scored before the failing analysis
    assert lenkf[(3, "h")].crps is None
    assert lenkf[(5, "r")].crps is None
    assert all(r.crps is not None for r in res.records if r.method == "free")


def test_non_finite_analysis_fails_at_its_own_cycle(monkeypatch):
    real = ex.ANALYSES["lenkf"]
    calls = {"n": 0}

    def wrapped(members, obs, cfg, rng, diag):
        calls["n"] += 1
        out = real(members, obs, cfg, rng, diag)
        if calls["n"] == 2:
            out[0, 3] = np.nan
        return out

    monkeypatch.setitem(ex.ANALYSES, "lenkf", wrapped)
    res = ex.run_single_rep(tiny_cfg(methods=("lenkf", "free"), trace=True), 0)
    assert res.failed_at == {"lenkf": 2}
    lenkf = {(r.cycle, r.field): r for r in res.records if r.method == "lenkf"}
    assert all(lenkf[(2, f)].crps is not None for f in ex.FIELDS)
    assert all(lenkf[(c, f)].crps is None for c in (3, 4, 5) for f in ex.FIELDS)
    assert [row.cycle for row in res.trace_rows] == [1]


def spy_forecasts(monkeypatch, k):
    """Record the ensembles of each k-row sweq.advance_ensembles call."""
    calls = []
    real = sweq.advance_ensembles

    def spy(ensembles, params, n_steps, rngs):
        if len(rngs) == k:
            calls.append(list(ensembles))
        return real(ensembles, params, n_steps, rngs)

    monkeypatch.setattr(sweq, "advance_ensembles", spy)
    return calls


def test_cycle_one_advances_one_ensemble_for_all_methods(monkeypatch):
    cfg = tiny_cfg(duration_s=120.0)
    calls = spy_forecasts(monkeypatch, cfg.k)
    seen = {}

    def spy(method, real):
        def analysis(members, obs, cfg, rng, diag):
            seen.setdefault(method, members)
            return real(members, obs, cfg, rng, diag)

        return analysis

    for method in cfg.methods:
        if ex.ANALYSES[method] is not None:
            monkeypatch.setitem(ex.ANALYSES, method, spy(method, ex.ANALYSES[method]))
    ex.run_single_rep(cfg, 0)
    assert [len(ensembles) for ensembles in calls] == [1, len(cfg.methods)]
    # the cycle-1 forecasts: one trajectory, a distinct array for each method
    first = list(seen.values()) + [calls[1][cfg.methods.index("free")]]
    assert len({id(x) for x in first}) == len(cfg.methods)
    assert all(x.tobytes() == first[0].tobytes() for x in first)


def test_failed_forecast_leaves_other_methods_bitwise(tmp_path, monkeypatch):
    # lenkf's cycle-1 analysis hands back a finite but supersonic wind, so
    # its cycle-2 forecast fails the CFL check inside the lock-step advance
    grid = tiny_cfg().model.grid

    def supersonic(members, obs, cfg, rng, diag):
        out = members.copy()
        grid.split(out)["u"][...] = 500.0
        return out

    def free_rows(methods):
        out = tmp_path / "_".join(methods)
        ex.run_experiment(tiny_cfg(methods=methods, out_dir=str(out)))
        lines = (out / "scores.csv").read_text().splitlines()
        return [line for line in lines if ",free," in line]

    alone = free_rows(("free",))
    monkeypatch.setitem(ex.ANALYSES, "lenkf", supersonic)
    calls = spy_forecasts(monkeypatch, tiny_cfg().k)
    with_lenkf = free_rows(("lenkf", "free"))
    assert len(calls[1]) == 2  # lenkf failed in the shared cycle-2 advance
    assert with_lenkf == alone and len(alone) == 5 * 3
    res = ex.run_single_rep(tiny_cfg(methods=("lenkf", "free")), 0)
    assert res.failed_at == {"lenkf": 2}


def test_free_method_never_enters_analysis(monkeypatch):
    seen = []

    def spy(method, real):
        def analysis(members, obs, cfg, rng, diag):
            seen.append(method)
            return real(members, obs, cfg, rng, diag)

        return analysis

    for method, real in ex.ANALYSES.items():
        if real is not None:
            monkeypatch.setitem(ex.ANALYSES, method, spy(method, real))
    cfg = tiny_cfg(methods=("free", "block_lenkpf"), duration_s=120.0)
    ex.run_single_rep(cfg, 0)
    assert set(seen) == {"block_lenkpf"}


def test_method_registry_order_and_validation():
    # the order keys the analysis and rank rng streams: changing it changes
    # every score, so it is pinned here
    pinned = ("enkf_global", "lenkf", "naive_lenkpf", "block_lenkpf", "pf_global", "enkpf_global", "free")  # noqa: E501
    assert ex.METHODS == pinned
    assert ex.METHOD_IDS == {name: i for i, name in enumerate(ex.METHODS)}
    assert config.METHODS is ex.METHODS
    for method in ex.ANALYSES:
        assert tiny_cfg(methods=(method,)).methods == (method,)
    with pytest.raises(ConfigError, match="methods"):
        tiny_cfg(methods=("lenkf", "enkpf_local"))


def test_rank_counts_accumulate_at_thinned_times(tmp_path):
    cfg = tiny_cfg(
        interval_s=600.0, duration_s=3600.0, methods=("block_lenkpf", "free"),
        out_dir=str(tmp_path),
    )
    _, rank_totals = ex.run_experiment(cfg)
    # times 1800 s and 3600 s qualify; grid points 0, 10, 20
    for key, counts in rank_totals.items():
        assert counts.sum() == 2 * 3, key
        assert counts.shape == (cfg.k + 1,)
    with open(os.path.join(cfg.out_dir, "ranks.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "method,field,rank,count"
    assert len(lines) == 1 + 2 * 3 * (cfg.k + 1)


def test_sub_second_cycles_count_ranks_only_on_30_minute_marks(tmp_path):
    # cycle times 0.5, 1, 1.5 and 2 s: none is a 30-minute mark, though
    # round(0.5) is 0 (Python rounds half to even)
    cfg = ExperimentConfig(
        scenario="custom", interval_s=0.5, duration_s=2.0, k=4, methods=("free",),
        spinup_days=0.001, out_dir=str(tmp_path),
        model=ModelParams(grid=Grid(12, 500.0), dt_s=0.5, warm_start_days=0.003),
    )
    ex.run_experiment(cfg)
    with open(os.path.join(cfg.out_dir, "ranks.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * (cfg.k + 1)
    assert sum(int(row["count"]) for row in rows) == 0


def test_rank_totals_sum_the_repetitions(tmp_path):
    cfg = tiny_cfg(
        interval_s=600.0, duration_s=1800.0, methods=("lenkf", "free"), repetitions=2,
        out_dir=str(tmp_path),
    )
    _, rank_totals = ex.run_experiment(cfg)
    per_rep = [ex.run_single_rep(cfg, rep).rank_counts for rep in range(2)]
    assert list(rank_totals) == list(per_rep[0])
    for key, counts in rank_totals.items():
        assert counts.sum() == 2 * 3, key  # one rank time, grid points 0, 10, 20
        assert counts.tolist() == (per_rep[0][key] + per_rep[1][key]).tolist(), key


def test_outputs_do_not_depend_on_the_pool_start_method(tmp_path, monkeypatch):
    # spawned workers inherit nothing from the parent: the warm state and the
    # config reach them only as pickled arguments (forkserver, the Linux
    # default from Python 3.14, is the same in this respect)
    def run(name, threads):
        cfg = tiny_cfg(
            methods=("lenkf", "naive_lenkpf", "free"), duration_s=180.0, repetitions=2,
            out_dir=str(tmp_path / name),
        )
        ex.run_experiment(cfg, threads=threads)
        return [(tmp_path / name / f).read_bytes() for f in ("scores.csv", "ranks.csv")]

    serial = run("serial", 1)
    monkeypatch.setattr(ex, "Pool", multiprocessing.get_context("spawn").Pool)
    assert run("spawn", 2) == serial


def test_trace_rows_cover_every_cycle(tmp_path):
    cfg = tiny_cfg(methods=("naive_lenkpf", "free"), trace=True, out_dir=str(tmp_path))
    res = ex.run_single_rep(cfg, 0)
    rows = [r for r in res.trace_rows if r.method == "naive_lenkpf"]
    assert len(rows) == cfg.n_cycles
    for row in rows:
        assert all(0.0 <= g <= 1.0 for g in row.gammas)
        assert all(e >= 1.0 for e in row.ess_values)
    ex.run_experiment(cfg)
    trace_path = os.path.join(cfg.out_dir, "trace_0.csv")
    with open(trace_path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(ex.TRACE_HEADER)
    assert len(lines) == 1 + cfg.n_cycles


def test_trace_csv_cells_summarize_each_cycles_trace_row(tmp_path):
    # clouds almost everywhere and sharp rain observations, so the sites'
    # gammas differ and the min, mean and max cells are distinct
    methods = ("enkf_global", "lenkf", "naive_lenkpf", "pf_global")
    cfg = tiny_cfg(
        methods=methods, duration_s=180.0, r_r=1e-8, trace=True, out_dir=str(tmp_path),
        model=ModelParams(
            grid=Grid(24, 500.0), h_cloud=89.9, h_rain=89.95, warm_start_days=0.0
        ),
    )
    ex.run_experiment(cfg)
    with open(os.path.join(cfg.out_dir, "trace_0.csv")) as fh:
        cells = list(csv.DictReader(fh))
    rows = ex.run_single_rep(cfg, 0).trace_rows
    assert [(int(c["cycle"]), c["method"]) for c in cells] == [
        (r.cycle, r.method) for r in rows
    ]
    assert {c["method"] for c in cells} == set(methods)
    summaries = ("gamma_mean", "gamma_min", "gamma_max", "ess_mean")
    for c, row in zip(cells, rows):
        assert float(c["time_s"]) == row.time_s
        assert float(c["analysis_rain_mean"]) == row.analysis_rain_mean
        if row.method in ("enkf_global", "lenkf"):
            assert [c[key] for key in summaries] == ["", "", "", ""]
        elif row.method == "pf_global":
            assert [float(c[key]) for key in summaries[:3]] == [0.0, 0.0, 0.0]
            assert float(c["ess_mean"]) == row.ess_values[0]
        else:
            gammas = np.asarray(row.gammas)
            assert gammas.size == 24 and np.ptp(gammas) > 0.0  # one per site
            assert float(c["gamma_min"]) == gammas.min()
            assert float(c["gamma_mean"]) == gammas.mean()
            assert float(c["gamma_max"]) == gammas.max()
            assert float(c["ess_mean"]) == np.mean(row.ess_values)


def test_methods_share_truth_and_observations():
    # identical methods under different names would be redundant; instead
    # check that free ensembles (which never assimilate) agree across method
    # lists, which requires truth/forecast streams independent of the list
    cfg_a = tiny_cfg(methods=("free",), duration_s=120.0, trace=False)
    cfg_b = tiny_cfg(
        methods=("lenkf", "free"), duration_s=120.0, trace=False
    )
    res_a = ex.run_single_rep(cfg_a, 0)
    res_b = ex.run_single_rep(cfg_b, 0)
    free_a = [r.crps for r in res_a.records if r.method == "free"]
    free_b = [r.crps for r in res_b.records if r.method == "free"]
    assert free_a == free_b


def _small_analysis_case():
    cfg = ExperimentConfig(
        l_m=1500.0, ess_band=(0.5, 0.8), block_segment_m=4000.0,
        model=ModelParams(grid=Grid(20, 500.0)),
    )
    grid = cfg.model.grid
    rng = np.random.default_rng(31)
    x = rng.standard_normal((6, grid.dim))
    wet = np.array([3, 4, 5, 12])
    obs = GaussObs(
        rng.standard_normal(20 + wet.size),
        np.concatenate([2 * 20 + np.arange(20), 20 + wet]),
        np.full(20 + wet.size, 0.5),
    )
    return x, obs, cfg


def _direct_enkpf(x, obs, cfg, rng, diag):
    return enkpf_update(x, obs, ensemble_moments(x)[1], 0.5, rng)[0]


def _direct_block(x, obs, cfg, rng, diag):
    taper, grid = TaperSpec(cfg.l_m), cfg.model.grid
    blocks = partition_obs_blocks(obs, taper, grid, cfg.block_segment_m)
    return block_assimilate_one(x, blocks[0], taper, grid, cfg.ess_band, rng, diagnostics=diag)


ANALYSIS_CALLS = {name: fn for name, fn in ex.ANALYSES.items() if fn is not None}
ANALYSIS_CALLS.update(enkpf_update=_direct_enkpf, block_assimilate_one=_direct_block)


@pytest.mark.parametrize("name", sorted(ANALYSIS_CALLS))
def test_analysis_returns_array_and_leaves_forecast_alone(name):
    # run_single_rep reads forecasts[m] again after the analysis, for its trace row
    x, obs, cfg = _small_analysis_case()
    before = x.copy()
    out = ANALYSIS_CALLS[name](x, obs, cfg, np.random.default_rng(5), LocalDiagnostics())
    assert type(out) is np.ndarray
    assert out.shape == x.shape
    assert x.tobytes() == before.tobytes()
