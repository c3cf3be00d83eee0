import dataclasses
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf.config import ExperimentConfig, parse_config
from enkpf.errors import ConfigError
from enkpf.sweq import MAX_STEPS, ModelParams


def test_empty_text_gives_stock_defaults():
    cfg = parse_config("")
    assert cfg.scenario == "hf"
    assert cfg.interval_s == 300.0
    assert cfg.duration_s == 3600.0
    assert cfg.n_cycles == 12
    assert cfg.k == 50
    assert cfg.l_m == 5000.0
    assert cfg.ess_band == (0.5, 0.8)
    assert cfg.r_r == pytest.approx(0.025**2)
    assert cfg.r_u == pytest.approx(0.0025**2)
    assert cfg.repetitions == 1
    assert cfg.model.grid.n_points == 300
    assert cfg.model.grid.spacing_m == 500.0
    assert cfg.model.h_cloud == 90.02


def test_lf_scenario_timing():
    cfg = parse_config("[experiment]\nscenario = lf\n")
    assert cfg.interval_s == 1800.0
    assert cfg.duration_s == 259200.0
    assert cfg.n_cycles == 144


def test_full_file_roundtrip():
    text = """
# hf run with a smaller model
[experiment]
scenario = hf
methods = naive_lenkpf, free
k = 10
l = 4000
ess_band = 0.4, 0.9
repetitions = 3
base_seed = 99
interval_s = 600
trace = true
out = results

[model]
n_points = 60
alpha_rain = 0.002
"""
    cfg = parse_config(text)
    assert cfg.methods == ("naive_lenkpf", "free")
    assert cfg.k == 10
    assert cfg.l_m == 4000.0
    assert cfg.ess_band == (0.4, 0.9)
    assert cfg.repetitions == 3
    assert cfg.base_seed == 99
    assert cfg.interval_s == 600.0  # explicit value beats the scenario default
    assert cfg.duration_s == 3600.0
    assert cfg.trace is True
    assert cfg.out_dir == "results"
    assert cfg.model.grid.n_points == 60
    assert cfg.model.alpha_rain == 0.002
    assert cfg.model.beta_rain == ExperimentConfig().model.beta_rain


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[experiment]\nwhat = 1\n", "line 2"),
        ("[weird]\n", "line 1"),
        ("k = 5\n", "line 1"),  # key before any section
        ("[experiment]\nk\n", "line 2"),
        ("[experiment]\nk = five\n", "line 2"),
        ("[experiment]\nk = 5\nk = 6\n", "line 3"),
        ("[model]\nn_points = 10\nn_points = 12\n", "line 3"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "text,key",
    [
        ("[experiment]\nk = 1\n", "k"),
        ("[experiment]\ness_band = 0.8, 0.5\n", "ess_band"),
        ("[experiment]\nmethods = lenkf, warp_drive\n", "methods"),
        ("[experiment]\nscenario = custom\n", "interval_s"),
        ("[experiment]\ninterval_s = 7\n", "interval_s"),  # not a dt multiple
        ("[experiment]\nrepetitions = 0\n", "repetitions"),
        ("[experiment]\nl = -2\n", "l"),
        ("[experiment]\nr_r = 0\n", "r_r"),
        ("[model]\nh_rain = 90.0\n", "model"),
        ("[model]\nn_points = 24\nplume_width_m = 0\n", "model: plume_width_m"),
        ("[model]\nn_points = 24\nplume_width_m = -1000\n", "model: plume_width_m"),
        # 1.6e296 and 30 plumes per step on 24 points
        ("[model]\nn_points = 24\nspacing_m = 1e300\n", "model: plume_rate"),
        ("[model]\nn_points = 24\nplume_rate = 0.03\n", "model: plume_rate"),
    ],
)
def test_validation_errors_name_the_key(text, key):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert key in str(info.value)


# spans of MAX_STEPS steps of the default dt_s = 5 s, in each key's unit
CAP_SPANS = {"spinup_days": MAX_STEPS * 5.0 / 86400.0,
             "warm_start_days": MAX_STEPS * 5.0 / 86400.0,
             "interval_s": MAX_STEPS * 5.0,
             "duration_s": MAX_STEPS * 5.0}


@pytest.mark.parametrize("key", sorted(CAP_SPANS))
@pytest.mark.parametrize("scale, rejected", [(1.0001, True), (1e200, True), (0.9999, False)])
def test_step_count_cap_names_the_key(key, scale, rejected):
    section = "model" if key == "warm_start_days" else "experiment"
    text = f"[{section}]\n{key} = {CAP_SPANS[key] * scale!r}\n"
    if not rejected:
        parse_config(text)
        return
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert str(info.value).startswith(f"{key}: too long")


MODEL_KEY_VALUES = {
    **{f.name: getattr(ModelParams(), f.name) * (1 + 2**-10)
       for f in dataclasses.fields(ModelParams) if f.name != "grid"},
    "dt_s": 2.5,  # the hf interval must stay a multiple of dt_s
    "n_points": 60,
    "spacing_m": 250.0,
}


@pytest.mark.parametrize("key", sorted(MODEL_KEY_VALUES))
def test_every_model_key_round_trips(key):
    value = MODEL_KEY_VALUES[key]
    model = parse_config(f"[model]\n{key} = {value!r}\n").model
    default = ModelParams()
    if key in ("n_points", "spacing_m"):
        # the other grid key keeps its default
        assert model.grid == dataclasses.replace(default.grid, **{key: value})
        assert model == dataclasses.replace(default, grid=model.grid)
    else:
        assert getattr(model, key) == value
        assert model == dataclasses.replace(default, **{key: value})


def test_plumes_per_step_up_to_n_points_are_accepted():
    assert parse_config("").model.plumes_per_step == pytest.approx(1.0)
    cfg = parse_config("[model]\nn_points = 24\nplume_rate = 0.02\n")
    assert cfg.model.plumes_per_step == pytest.approx(20.0)


def test_custom_scenario_with_explicit_timing():
    cfg = parse_config(
        "[experiment]\nscenario = custom\ninterval_s = 120\nduration_s = 600\n"
    )
    assert cfg.n_cycles == 5


@pytest.mark.parametrize(
    "scenario, interval_s, duration_s, dt_s, cycles",
    [
        ("custom", 0.1, 1.0, 0.1, 10),  # 1.0 // 0.1 is 9.0 in floating point
        ("custom", 0.1, 0.3, 0.1, 3),  # 0.3 / 0.1 is 2.9999999999999996
        ("custom", 5.0, 8.0, 5.0, 1),  # a part-interval does not count
        ("custom", 120.0, 600.0, 5.0, 5),
        ("hf", None, None, 5.0, 12),
        ("lf", None, None, 5.0, 144),
    ],
)
def test_n_cycles_counts_whole_intervals(scenario, interval_s, duration_s, dt_s, cycles):
    cfg = ExperimentConfig(scenario=scenario, interval_s=interval_s, duration_s=duration_s,
                           model=ModelParams(dt_s=dt_s))
    assert cfg.n_cycles == cycles


def test_overrides_win_and_rescale_scenario():
    cfg = parse_config("[experiment]\nscenario = hf\n", overrides={"scenario": "lf"})
    assert cfg.interval_s == 1800.0
    cfg2 = parse_config("", overrides={"repetitions": 7, "base_seed": 5})
    assert cfg2.repetitions == 7 and cfg2.base_seed == 5
    with pytest.raises(ConfigError):
        parse_config("", overrides={"bogus": 1})


def test_config_checks_itself_when_built():
    cfg = ExperimentConfig(duration_s=0.0, interval_s=300.0)
    assert cfg.n_cycles == 0
    with pytest.raises(ConfigError):
        ExperimentConfig(methods=("free", "free"))


def test_built_config_has_its_scenario_timing():
    cfg = ExperimentConfig()
    assert cfg.interval_s == 300.0
    assert cfg.duration_s == 3600.0
    assert cfg.n_cycles == 12
    lf = ExperimentConfig(scenario="lf", duration_s=7200.0)
    assert (lf.interval_s, lf.duration_s) == (1800.0, 7200.0)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"interval_s": 7.0}, "interval_s:"),  # not a multiple of dt_s
        ({"methods": ("bogus",)}, "methods:"),
        ({"scenario": "custom", "interval_s": 60.0}, "interval_s/duration_s:"),
        ({"k": 1}, "k:"),
        ({"r_r": float("nan")}, "r_r:"),
        ({"r_u": float("nan")}, "r_u:"),
        ({"duration_s": math.nan}, "duration_s: must be nonnegative"),
        ({"spinup_days": math.nan}, "spinup_days: must be nonnegative"),
        ({"k": 4.5}, "k: must be an integer"),
        ({"repetitions": 1.5}, "repetitions: must be an integer"),
        ({"base_seed": 1.5}, "base_seed: must be an integer"),
        # the parser rejects inf for every float key; these were accepted
        ({"r_r": math.inf}, "r_r: observation error variance must be positive and finite"),
        ({"r_u": math.inf}, "r_u: observation error variance must be positive and finite"),
    ],
)
def test_built_config_rejects_what_parse_config_rejects(kwargs, key):
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**kwargs)
    assert str(info.value).startswith(key)


def test_unpickled_config_is_not_checked_again(monkeypatch):
    # pool workers get the config as pickled by the parent, already checked
    cfg = ExperimentConfig(scenario="lf", k=7)
    data = pickle.dumps(cfg)
    monkeypatch.setattr(ExperimentConfig, "__post_init__", lambda self: pytest.fail("checked"))
    assert pickle.loads(data) == cfg


NONNEGATIVE_MODEL_KEYS = ("alpha_rain", "beta_rain", "diff_h", "diff_u", "diff_r", "plume_rate",
                          "plume_amplitude", "sigma_r", "sigma_u", "warm_start_days")
SIGNED_MODEL_KEYS = ("h_rest", "phi_cloud", "rain_geopotential", "rain_threshold")
# the check each model key fails with NaN, reported by key
MODEL_NAN_CHECKS = {**dict.fromkeys(NONNEGATIVE_MODEL_KEYS, "must be nonnegative"),
                    "dt_s": "must be positive",
                    **dict.fromkeys(SIGNED_MODEL_KEYS, "must be finite")}


@pytest.mark.parametrize("key", MODEL_NAN_CHECKS)
def test_negative_model_magnitudes_are_reported_by_key(key):
    check = MODEL_NAN_CHECKS[key]
    # parse_config rejects NaN itself; a config built in Python is checked by key
    with pytest.raises(ValueError, match=f"^{key} {check}"):
        ModelParams(**{key: math.nan})
    if key in SIGNED_MODEL_KEYS:
        with pytest.raises(ValueError, match=f"^{key} must be finite"):
            ModelParams(**{key: -math.inf})
        assert getattr(parse_config(f"[model]\n{key} = -1\n").model, key) == -1.0
        return
    with pytest.raises(ConfigError) as info:
        parse_config(f"[model]\n{key} = -1\n")
    assert str(info.value).startswith(f"model: {key} {check}")
    if check == "must be nonnegative":
        assert getattr(parse_config(f"[model]\n{key} = 0\n").model, key) == 0.0


def test_unknown_scenario_is_reported_as_the_scenario():
    with pytest.raises(ConfigError) as info:
        parse_config("[experiment]\nscenario = foo\n")
    assert str(info.value).startswith("scenario:")
    with pytest.raises(ConfigError, match="^scenario:"):
        ExperimentConfig(scenario="foo")


EXPERIMENT_FLOAT_KEYS = (
    "l", "r_r", "r_u", "interval_s", "duration_s", "spinup_days", "block_segment_m",
)
MODEL_FLOAT_KEYS = (
    "spacing_m", "gravity", "h_rest", "h_cloud", "h_rain", "phi_cloud",
    "rain_geopotential", "alpha_rain", "beta_rain", "diff_h", "diff_u", "diff_r",
    "plume_rate", "plume_amplitude", "plume_width_m", "dt_s", "rain_threshold",
    "sigma_r", "sigma_u", "warm_start_days",
)
NUMBERS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "Infinity", "-NaN", "0", "-0.0", "-1",
                     "1e-308", "1e308", "-1e308"]),
    st.floats().map(repr),  # nan, +-inf, zero, negatives, subnormals, 1e308
    st.floats(min_value=1e-308, max_value=1e308).map(repr),
)


def _numbers_in(obj):
    if isinstance(obj, (bool, str)) or obj is None:
        return []
    if isinstance(obj, (int, float)):
        return [obj]
    if isinstance(obj, tuple):
        return [v for item in obj for v in _numbers_in(item)]
    if dataclasses.is_dataclass(obj):
        return [v for f in dataclasses.fields(obj) for v in _numbers_in(getattr(obj, f.name))]
    raise TypeError(type(obj))


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(EXPERIMENT_FLOAT_KEYS + ("ess_band",)), NUMBERS, max_size=4),
    st.dictionaries(st.sampled_from(MODEL_FLOAT_KEYS), NUMBERS, max_size=4),
    NUMBERS,
)
def test_parse_config_float_keys_give_finite_config_or_config_error(exp, model, second):
    exp_lines = [
        f"{key} = {value}, {second}" if key == "ess_band" else f"{key} = {value}"
        for key, value in exp.items()
    ]
    model_lines = [f"{key} = {value}" for key, value in model.items()]
    text = "\n".join(["[experiment]", *exp_lines, "[model]", *model_lines]) + "\n"
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in _numbers_in(cfg))
