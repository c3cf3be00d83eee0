import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import experiment
from enkpf.cli import load_ensemble_csv, load_state_csv, main, save_state_csv
from enkpf.config import parse_config

from oracles import read_scores_csv


def write_tiny_config(path, out_dir, extra=""):
    path.write_text(
        "[experiment]\n"
        "scenario = custom\n"
        "interval_s = 60\n"
        "duration_s = 180\n"
        "k = 5\n"
        "l = 2000\n"
        "methods = block_lenkpf, free\n"
        "repetitions = 1\n"
        "base_seed = 3\n"
        "spinup_days = 0.002\n"
        f"out = {out_dir}\n"
        f"{extra}"
        "[model]\n"
        "n_points = 24\n"
        "warm_start_days = 0\n"
    )


def test_run_writes_outputs(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "out" / "scores.csv").exists()
    assert (tmp_path / "out" / "ranks.csv").exists()
    out = capsys.readouterr().out
    assert "scores.csv" in out and "1 repetitions" in out
    records = read_scores_csv(tmp_path / "out" / "scores.csv")
    assert len(records) == 3 * 2 * 3  # cycles x methods x fields
    assert {r.method for r in records} == {"block_lenkpf", "free"}


def test_scores_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits the global filters' products over its threads and
    # rounds them differently, so the CLI pins it to one thread whatever the
    # environment asks; the products here are large enough to be split
    src = str(Path(__file__).resolve().parent.parent / "src")
    scores = []
    for threads in ("2", "1"):
        out = tmp_path / threads
        cfg = tmp_path / f"cfg{threads}.ini"
        cfg.write_text(
            "[experiment]\nscenario = custom\ninterval_s = 60\nduration_s = 240\n"
            "methods = enkf_global, enkpf_global, lenkf, free\nk = 50\n"
            f"spinup_days = 0.01\nout = {out}\n"
            "[model]\nn_points = 150\nwarm_start_days = 0.2\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run([sys.executable, "-m", "enkpf.cli", "run", "--config", str(cfg)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        scores.append((out / "scores.csv").read_bytes())
    assert scores[0] == scores[1]


def test_run_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "ignored")
    out_dir = tmp_path / "flagged"
    rc = main(
        [
            "run", "--config", str(cfg), "--methods", "free",
            "--seed", "9", "--out", str(out_dir),
        ]
    )
    assert rc == 0
    records = read_scores_csv(out_dir / "scores.csv")
    assert {r.method for r in records} == {"free"}
    assert not (tmp_path / "ignored").exists()


def test_run_trace_flag(tmp_path):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    assert main(["run", "--config", str(cfg), "--trace"]) == 0
    assert (tmp_path / "out" / "trace_0.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_run_rejects_threads_below_one(tmp_path, capsys, threads):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    assert main(["run", "--config", str(cfg), "--threads", threads]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--threads" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def test_invalid_config_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nk = 1\n")
    assert main(["run", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "k" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("r_r", "nan"),
        ("r_u", "inf"),
        ("interval_s", "nan"),
        ("duration_s", "inf"),
        ("spinup_days", "nan"),
        ("spinup_days", "inf"),
        ("l", "-inf"),
        ("ess_band", "nan, 0.8"),
        ("ess_band", "0.5, inf"),
        ("dt_s", "nan"),
        ("warm_start_days", "inf"),
    ],
)
def test_run_rejects_non_finite_numbers(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    lines = cfg.read_text().splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith(f"{key} =")), None)
    if at is None:  # a key the tiny config leaves at its default
        at = lines.index("[model]") + 1 if key in ("dt_s", "warm_start_days") else 1
        lines.insert(at, "")
    lines[at] = f"{key} = {value}"
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert f"line {at + 1}" in err[0] and repr(key) in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["spinup_days", "warm_start_days"])
def test_run_rejects_step_count_overflow(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    lines = [f"{key} = 1e308" if line.startswith(f"{key} =") else line
             for line in cfg.read_text().splitlines()]
    cfg.write_text("\n".join(lines) + "\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert key in err[0]
    assert not (tmp_path / "out").exists()


def test_run_rejects_duration_above_step_cap(tmp_path, capsys, monkeypatch):
    # 1e300 s is finite but would cycle forever: validation must stop it
    def must_not_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(experiment, "run_experiment", must_not_run)
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace("duration_s = 180", "duration_s = 1e300"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: duration_s: too long")


def test_run_rejects_interval_above_step_cap(tmp_path, capsys):
    # 2e10 steps per cycle and no cycles: still a config error, not a
    # traceback from the repetition that converts the interval to steps
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace("interval_s = 60", "interval_s = 100000000000")
                   .replace("duration_s = 180", "duration_s = 0"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: interval_s: too long")
    assert not (tmp_path / "out").exists()


def test_run_reports_out_of_memory_in_one_line(tmp_path, capsys):
    # a (k + 1, 72) float spinup array of 524 TiB, which no machine allocates
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace("k = 5", "k = 1000000000000"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")


@pytest.mark.parametrize("line", ["spacing_m = 1e300", "plume_width_m = 0"])
def test_run_rejects_plumes_that_break_the_model(tmp_path, capsys, line):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text() + line + "\n")  # the [model] section is last
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model: plume_")
    assert not (tmp_path / "out").exists()


def test_run_reports_model_blowup_in_one_line(tmp_path, capsys):
    # clouds everywhere, rain production at the edge of the float range and
    # unstable rain diffusion blow the warm start up; numpy must not warn on
    # the way
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace(
        "warm_start_days = 0",
        "warm_start_days = 0.01\nh_cloud = 80\nh_rain = 85\nbeta_rain = 1e308\n"
        "rain_geopotential = 0\ndiff_r = 1e10"))
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: non-finite")


@pytest.mark.parametrize("method", [m for m, fn in experiment.ANALYSES.items() if fn])
def test_overflowing_forecast_fails_only_its_method(tmp_path, capsys, method):
    # clouds everywhere and rain production at the edge of the float range:
    # rain reaches about 1e304, finite, but the forecast's covariance overflows
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text().replace(
        "block_lenkpf, free", f"{method}, free").replace(
        "warm_start_days = 0",
        "warm_start_days = 0.01\nh_cloud = 80\nh_rain = 85\nbeta_rain = 1e308\n"
        "rain_geopotential = 0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["run", "--config", str(cfg)]) == 0
    assert capsys.readouterr().err == ""
    records = read_scores_csv(tmp_path / "out" / "scores.csv")
    # the analysis of cycle 1 fails; the method's later forecasts are empty
    for rec in records:
        if rec.method == method:
            assert (rec.crps is None) == (rec.cycle > 1)
        else:
            assert rec.crps is not None
    free_rain = [rec.crps for rec in records if rec.method == "free" and rec.field == "r"]
    assert max(free_rain) > 1e300


def _magnitudes(lo_exp, hi_exp):
    """Positive floats spread evenly over the decades 10^lo_exp..10^hi_exp."""
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(lo_exp, hi_exp))


_POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-308, 1e308]), _magnitudes(-300, 300))
POSITIVE = _POSITIVE.map(repr)
SIGNED = st.one_of(_POSITIVE, _POSITIVE.map(lambda v: -v), st.just(0.0)).map(repr)
UNIT = st.floats(0.0, 1.0)
METHOD_LISTS = st.lists(st.sampled_from(experiment.METHODS), min_size=1, unique=True)
# each key's value as it is written in the config file
FUZZ_EXPERIMENT_KEYS = {
    "r_r": POSITIVE,
    "r_u": POSITIVE,
    "ess_band": st.tuples(UNIT, UNIT).map(lambda pair: "{!r}, {!r}".format(*sorted(pair))),
    "l": POSITIVE,
    "block_segment_m": POSITIVE,
    "methods": METHOD_LISTS.map(", ".join),
    "k": st.integers(2, 6).map(str),
}
FUZZ_OBSERVATION_KEYS = {"sigma_r": POSITIVE, "sigma_u": POSITIVE, "rain_threshold": SIGNED}


@settings(max_examples=25, deadline=None)
@given(
    st.fixed_dictionaries({}, optional=FUZZ_EXPERIMENT_KEYS),
    st.fixed_dictionaries({}, optional=FUZZ_OBSERVATION_KEYS),
)
def test_run_gives_finite_scores_or_one_error_line(experiment_keys, observation_keys):
    # a tiny rainy grid (clouds almost everywhere) and three short cycles;
    # the dynamics keys stay fixed, the analysis and observation keys vary
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.ini"
        cfg.write_text("\n".join([
            "[experiment]", "scenario = custom", "interval_s = 60", "duration_s = 180",
            "spinup_days = 0.001", "base_seed = 3", f"out = {tmp}/out",
            *(f"{key} = {value}" for key, value in experiment_keys.items()),
            "[model]", "n_points = 12", "h_cloud = 89.9", "h_rain = 89.95",
            "warm_start_days = 0.003",
            *(f"{key} = {value}" for key, value in observation_keys.items()),
        ]) + "\n")
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(["run", "--config", str(cfg)])
        assert [str(w.message) for w in caught] == []
        lines = err.getvalue().splitlines()
        if rc == 1:
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            return
        assert rc == 0 and lines == []
        with open(Path(tmp) / "out" / "scores.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                for key in ("crps", "crps_free", "relative_pct"):
                    assert row[key] == "" or math.isfinite(float(row[key])), row


def test_run_rejects_nonpositive_gravity_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text() + "gravity = -10\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: model: gravity")


def test_run_rejects_a_negative_noise_scale_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    cfg.write_text(cfg.read_text() + "sigma_r = -0.1\n")
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: model: sigma_r must be nonnegative"]
    assert not (tmp_path / "out").exists()


def test_missing_config_file_reports_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_spinup_then_score(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    assert main(["spinup", "--config", str(cfg), "--out", str(tmp_path / "spin")]) == 0
    truth = tmp_path / "spin" / "truth.csv"
    members = tmp_path / "spin" / "ensemble.csv"
    assert truth.exists() and members.exists()
    state = load_state_csv(truth)
    ens = load_ensemble_csv(members)
    assert state.shape == (3 * 24,)
    assert ens.shape == (5, 3 * 24)
    capsys.readouterr()

    assert main(["score", "--ensemble", str(members), "--truth", str(truth)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "field,crps"
    fields = [line.split(",")[0] for line in lines[1:]]
    assert fields == ["h", "u", "r"]
    for line in lines[1:]:
        assert float(line.split(",")[1]) >= 0.0


def test_spinup_writes_the_runs_start_state(tmp_path):
    # `enkpf spinup` writes the start of `enkpf run`'s repetition 0
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    assert main(["spinup", "--config", str(cfg), "--out", str(tmp_path / "spin")]) == 0
    truth, members = experiment.start_state(parse_config(cfg.read_text()), 0)
    assert load_state_csv(tmp_path / "spin" / "truth.csv").tobytes() == truth.tobytes()
    assert load_ensemble_csv(tmp_path / "spin" / "ensemble.csv").tobytes() == members.tobytes()


def test_score_grid_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    main(["spinup", "--config", str(cfg), "--out", str(tmp_path / "spin")])
    other = tmp_path / "small.csv"
    save_state_csv(np.concatenate([np.full(8, 90.0), np.zeros(8), np.zeros(8)]), other)
    capsys.readouterr()
    rc = main(
        ["score", "--ensemble", str(tmp_path / "spin" / "ensemble.csv"),
         "--truth", str(other)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_score_reports_an_overflowing_crps_in_one_line(tmp_path, capsys):
    # finite values about 2e308 apart: the h CRPS overflows to inf
    (tmp_path / "truth.csv").write_text(
        "grid_index,h,u,r\n" + "".join(f"{g},-1e308,0,0\n" for g in range(3))
    )
    (tmp_path / "ensemble.csv").write_text(
        "member,grid_index,h,u,r\n"
        + "".join(f"{i},{g},{h},0,0\n" for i, h in enumerate(("0.9e308", "1e308"))
                  for g in range(3))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(
            ["score", "--ensemble", str(tmp_path / "ensemble.csv"),
             "--truth", str(tmp_path / "truth.csv")]
        )
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == ["error: CRPS of field h is not finite: the values overflow"]


@pytest.mark.parametrize(
    "flag, value", [("--reps", "2"), ("--methods", "free"), ("--scenario", "custom")]
)
def test_spinup_has_no_run_only_flags(tmp_path, flag, value):
    cfg = tmp_path / "cfg.ini"
    write_tiny_config(cfg, tmp_path / "out")
    with pytest.raises(SystemExit) as info:
        main(["spinup", "--config", str(cfg), flag, value])
    assert info.value.code == 2
    assert not (tmp_path / "out").exists()


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


TINY_TRUTH = "grid_index,h,u,r\n0,90.0,0.0,0.0\n1,90.1,0.5,0.2\n"
TINY_ENSEMBLE = (
    "member,grid_index,h,u,r\n"
    "0,0,90.0,0.0,0.0\n0,1,90.2,0.1,0.0\n"
    "1,0,90.1,0.2,0.1\n1,1,90.0,0.3,0.3\n"
)


@pytest.mark.parametrize(
    "bad_file, ensemble, truth",
    [
        (
            "ensemble.csv",
            TINY_ENSEMBLE.replace("0,1,90.2,0.1,0.0\n", "0,1,90.2,0.1\n"),
            TINY_TRUTH,
        ),
        ("ensemble.csv", "member,grid_index,h,u,r\n", TINY_TRUTH),
        ("truth.csv", TINY_ENSEMBLE, TINY_TRUTH.replace("0,90.0,0.0,0.0", "0,90.0,,0.0")),
        ("truth.csv", TINY_ENSEMBLE, TINY_TRUTH.replace("0,90.0,0.0,0.0", "0,90.0,nan,0.0")),
        ("truth.csv", TINY_ENSEMBLE, TINY_TRUTH.replace("\n1,", "\n0,")),
        ("ensemble.csv", TINY_ENSEMBLE.replace("1,1,90.0,0.3,0.3\n", ""), TINY_TRUTH),
        ("truth.csv", TINY_ENSEMBLE, TINY_TRUTH.replace("grid_index,h,u,r", "grid_index,r,u,h")),
        ("ensemble.csv", TINY_ENSEMBLE.replace("\n1,", "\n0.5,"), TINY_TRUTH),
        ("ensemble.csv", TINY_ENSEMBLE.replace("\n1,", "\n2,"), TINY_TRUTH),
    ],
    ids=[
        "ragged_ensemble_row", "header_only_ensemble", "empty_truth_cell",
        "nan_truth_cell", "duplicate_grid_index", "members_of_unequal_size",
        "reordered_truth_header", "fractional_member", "member_gap",
    ],
)
def test_score_rejects_malformed_csv(tmp_path, capsys, bad_file, ensemble, truth):
    (tmp_path / "ensemble.csv").write_text(ensemble)
    (tmp_path / "truth.csv").write_text(truth)
    rc = main(
        ["score", "--ensemble", str(tmp_path / "ensemble.csv"),
         "--truth", str(tmp_path / "truth.csv")]
    )
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert bad_file in err[0]
