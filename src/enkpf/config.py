"""Experiment configuration: the self-checking dataclass and the flat-text parser.

Config files are flat `key = value` lines under `[experiment]` and `[model]`
section headers; `#` lines are comments. Unknown sections or keys are errors
(reported with their line number), as are malformed values. An
ExperimentConfig checks itself when built, naming the offending key, and
fills in the assimilation interval and total duration from the scenario (hf:
5 min cycles for 1 hour; lf: 30 min cycles for 3 days; custom: both must be
given explicitly), so an empty file is a valid config.
"""

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

from enkpf.errors import ConfigError
from enkpf.experiment import METHODS
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
        if not self.methods:
            raise ConfigError("methods: at least one method is required")
        for m in self.methods:
            if m not in METHODS:
                raise ConfigError(f"methods: unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("methods: duplicate method")
        for key in ("k", "repetitions", "base_seed"):
            if not isinstance(getattr(self, key), numbers.Integral):
                raise ConfigError(f"{key}: must be an integer")
        if self.k < 2:
            raise ConfigError("k: ensemble size must be >= 2")
        if not self.l_m > 0:
            raise ConfigError("l: localization half-length must be positive")
        lo, hi = self.ess_band
        if not 0.0 < lo <= hi <= 1.0:
            raise ConfigError("ess_band: need 0 < lo <= hi <= 1")
        for key in ("r_r", "r_u"):
            if not 0 < getattr(self, key) < math.inf:
                raise ConfigError(f"{key}: observation error variance must be positive and finite")
        timing = SCENARIO_TIMING.get(self.scenario, (None, None))
        for key, default in zip(("interval_s", "duration_s"), timing):
            if getattr(self, key) is None:
                object.__setattr__(self, key, default)
        if self.interval_s is None or self.duration_s is None:
            raise ConfigError("interval_s/duration_s: a custom scenario must set both explicitly")
        if self.interval_s <= 0:
            raise ConfigError("interval_s: must be positive")
        steps = self.interval_s / self.model.dt_s
        if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
            raise ConfigError("interval_s: must be a positive multiple of the model dt_s")
        if not self.duration_s >= 0:
            raise ConfigError("duration_s: must be nonnegative")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if not 0 <= self.base_seed < 2**64:
            raise ConfigError("base_seed: must fit in an unsigned 64-bit integer")
        if not self.spinup_days >= 0:
            raise ConfigError("spinup_days: must be nonnegative")
        for key, seconds in (("spinup_days", self.spinup_days * 86400.0),
                             ("warm_start_days", self.model.warm_start_days * 86400.0),
                             ("interval_s", self.interval_s),
                             ("duration_s", self.duration_s)):
            try:
                self.model.steps(seconds)
            except ValueError as exc:
                raise ConfigError(f"{key}: too long: {exc}") from None
        if not self.block_segment_m > 0:
            raise ConfigError("block_segment_m: must be positive")

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


_EXPERIMENT_KEYS = {
    "scenario": str,
    "methods": _to_methods,
    "k": int,
    "l": _to_float,
    "ess_band": _to_pair,
    "r_r": _to_float,
    "r_u": _to_float,
    "interval_s": _to_float,
    "duration_s": _to_float,
    "repetitions": int,
    "base_seed": int,
    "spinup_days": _to_float,
    "block_segment_m": _to_float,
    "trace": _to_bool,
    "out": str,
}

_MODEL_KEYS = {"n_points": int, "spacing_m": _to_float} | {
    f.name: _to_float for f in dataclasses.fields(ModelParams) if f.name != "grid"
}

_FIELD_FOR_KEY = {"l": "l_m", "out": "out_dir"}


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
        try:
            sections[current][key] = table[key](raw)
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

    raw_exp = dict(sections["experiment"])
    for key, value in (overrides or {}).items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key {key!r} in overrides")
        raw_exp[key] = value
    exp_kw = {_FIELD_FOR_KEY.get(key, key): value for key, value in raw_exp.items()}
    return ExperimentConfig(model=model, **exp_kw)
