"""Experiment configuration: the self-checking dataclass and the flat-text parser.

Config files are flat `key = value` lines under `[experiment]` and `[model]`
section headers; `#` lines are comments. Unknown sections or keys are errors
(reported with their line number), as are malformed values and inf or nan.
Each `[experiment]` key has one row in _EXPERIMENT_KEYS: its field, converter,
type and rule. An ExperimentConfig checks itself when built, naming the offending
key, and fills in the assimilation interval and total duration from the
scenario (hf: 5 min cycles for 1 hour; lf: 30 min cycles for 3 days; custom:
both must be given explicitly), so an empty file is a valid config.
"""

import dataclasses
import math
import numbers
import os
import re
from collections import namedtuple
from dataclasses import dataclass, field

from enkpf.errors import ConfigError
from enkpf.experiment import METHODS
from enkpf.global_filters import _check_band
from enkpf.sweq import ModelParams

SCENARIOS = ("hf", "lf", "custom")
SCENARIO_TIMING = {"hf": (300.0, 3600.0), "lf": (1800.0, 259200.0)}


@dataclass(frozen=True)
class ExperimentConfig:
    """One twin experiment's settings; checks itself and fills in its timing when built."""

    scenario: str = "hf"
    methods: tuple = ("lenkf", "naive_lenkpf", "block_lenkpf", "free")
    k: int = 50
    l_m: float = 5000.0
    ess_band: tuple = (0.5, 0.8)
    r_r: float = 0.025**2
    r_u: float = 0.0025**2
    interval_s: float | None = None  # None: filled in from the scenario
    duration_s: float | None = None
    repetitions: int = 1
    base_seed: int = 1
    spinup_days: float = 0.02
    block_segment_m: float = 10000.0
    trace: bool = False
    out_dir: str = "out"
    model: ModelParams = field(default_factory=ModelParams)

    def __post_init__(self):
        # the scenario is checked before the timing is filled in from it
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {', '.join(SCENARIOS)}")
        timing = SCENARIO_TIMING.get(self.scenario, (None, None))
        for key, default in zip(("interval_s", "duration_s"), timing):
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
        if self.interval_s is None or self.duration_s is None:
            raise ConfigError("interval_s/duration_s: a custom scenario must set both explicitly")
        for key, row in _EXPERIMENT_KEYS.items():
            value = getattr(self, row.field)
            # a bool passes isinstance for int, so only the bool row takes one
            if row.kind is not None and (not isinstance(value, row.kind)
                                         or isinstance(value, bool) and row.kind is not bool):
                raise ConfigError(f"{key}: {row.kind_rule}")
            if row.test is not None and not row.test(value):
                raise ConfigError(f"{key}: {row.rule}")
        if not self.methods:
            raise ConfigError("methods: at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods: duplicate method")
        try:
            _check_band(self.ess_band)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        steps = self.interval_s / self.model.dt_s
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigError("interval_s: must be a positive multiple of the model dt_s")
        for key, seconds in (("spinup_days", self.spinup_days * 86400.0),
                             ("warm_start_days", self.model.warm_start_days * 86400.0),
                             ("interval_s", self.interval_s),
                             ("duration_s", self.duration_s)):
            try:
                self.model.steps(seconds)
            except ValueError as exc:
                raise ConfigError(f"{key}: too long: {exc}") from None

    @property
    def n_cycles(self):
        # whole intervals to within rounding (1.0 // 0.1 is 9.0): a relative 1e-9, under
        # MAX_STEPS less than a hundredth of a model step; a part-interval never counts
        count = self.duration_s / self.interval_s
        return round(count) if math.isclose(count, round(count)) else math.floor(count)


def _to_bool(raw):
    low = raw.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _to_methods(raw):
    return tuple(part.strip() for part in raw.split(",") if part.strip())


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _to_int(raw):
    """A plain decimal integer: an optional sign, then ASCII digits (int()
    would also take '1_0' and non-ASCII digits)."""
    if not _INTEGER.fullmatch(raw):
        raise ValueError(f"not an integer: {raw!r}")
    return int(raw)


def _to_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _to_pair(raw):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated numbers")
    return (_to_float(parts[0]), _to_float(parts[1]))


_Key = namedtuple("_Key", "field convert kind kind_rule test rule", defaults=(None,) * 4)
# the converter of an integer or a number row, the type a built config's value
# must have (never a bool) and the rule its error states
_INT = (_to_int, numbers.Integral, "must be an integer")
_REAL = (_to_float, numbers.Real, "must be a number")
_VARIANCE = (lambda v: 0 < v < math.inf, "observation error variance must be positive and finite")

# each [experiment] file key: its ExperimentConfig field, the parser's converter,
# the type a built config's value must have with the rule its error states and,
# for a number, the test its value must pass with the rule its error states.
# The scenario is checked first; _check_band checks ess_band; interval_s is
# checked against dt_s. A file rejects inf and nan (_to_float), but Python may
# give l_m and block_segment_m inf (no taper; one block).
_EXPERIMENT_KEYS = {
    "scenario": _Key("scenario", str),
    "methods": _Key("methods", _to_methods, tuple, "must be a tuple of method names"),
    "k": _Key("k", *_INT, lambda v: v >= 2, "ensemble size must be >= 2"),
    "l": _Key("l_m", *_REAL, lambda v: v > 0, "localization half-length must be positive"),
    "ess_band": _Key("ess_band", _to_pair),
    "r_r": _Key("r_r", *_REAL, *_VARIANCE),
    "r_u": _Key("r_u", *_REAL, *_VARIANCE),
    "interval_s": _Key("interval_s", *_REAL),
    "duration_s": _Key("duration_s", *_REAL, lambda v: v >= 0, "must be nonnegative"),
    "repetitions": _Key("repetitions", *_INT, lambda v: v >= 1, "must be >= 1"),
    "base_seed": _Key("base_seed", *_INT, lambda v: 0 <= v < 2**64,
                      "must fit in an unsigned 64-bit integer"),
    "spinup_days": _Key("spinup_days", *_REAL, lambda v: v >= 0, "must be nonnegative"),
    "block_segment_m": _Key("block_segment_m", *_REAL, lambda v: v > 0, "must be positive"),
    "trace": _Key("trace", _to_bool, bool, "must be true or false"),
    "out": _Key("out_dir", str, (str, os.PathLike), "must be a path"),
}

_MODEL_KEYS = {"n_points": _to_int, "spacing_m": _to_float} | {
    f.name: _to_float for f in dataclasses.fields(ModelParams) if f.name != "grid"
}


def parse_config(text, overrides=None):
    """Parse flat `[section]` / `key = value` text into an ExperimentConfig.

    overrides maps experiment-section key names to already-typed values and
    wins over the file (used for command-line flags); it is applied before
    the scenario timing defaults are resolved.
    """
    sections = {"experiment": {}, "model": {}}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in sections:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = name
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if current is None:
            raise ConfigError("key outside a [section]", line=lineno)
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        table = _EXPERIMENT_KEYS if current == "experiment" else _MODEL_KEYS
        if key not in table:
            raise ConfigError(f"unknown key {key!r} in [{current}]", line=lineno)
        if key in sections[current]:
            raise ConfigError(f"duplicate key {key!r}", line=lineno)
        convert = table[key].convert if current == "experiment" else table[key]
        try:
            sections[current][key] = convert(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}", line=lineno) from exc

    model_kw = dict(sections["model"])
    grid_kw = {key: model_kw.pop(key) for key in ("n_points", "spacing_m") if key in model_kw}
    try:
        if grid_kw:
            model_kw["grid"] = dataclasses.replace(ModelParams().grid, **grid_kw)
        model = ModelParams(**model_kw)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    exp_kw = {}
    for key, value in (sections["experiment"] | (overrides or {})).items():
        if key not in _EXPERIMENT_KEYS:  # the file's keys were checked above
            raise ConfigError(f"unknown key {key!r} in overrides")
        exp_kw[_EXPERIMENT_KEYS[key].field] = value
    return ExperimentConfig(model=model, **exp_kw)
