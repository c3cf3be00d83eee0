import numpy as np
import pytest

from enkpf.cli import main
from enkpf.sweq import load_ensemble_csv, load_state_csv, save_state_csv

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
    ],
    ids=[
        "ragged_ensemble_row", "header_only_ensemble", "empty_truth_cell",
        "nan_truth_cell", "duplicate_grid_index", "members_of_unequal_size",
        "reordered_truth_header",
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
