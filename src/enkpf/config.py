"""Experiment configuration: dataclass, flat-text parser, validation.

Config files are flat `key = value` lines under `[experiment]` and `[model]`
section headers; `#` lines are comments. Unknown sections or keys are errors
(reported with their line number), as are malformed values. Validation
messages name the offending key. An empty file is a valid config: every field
has a default, with the assimilation interval and total duration filled in
from the scenario (hf: 5 min cycles for 1 hour; lf: 30 min cycles for 3
days; custom: both must be given explicitly).
"""

import dataclasses
import math
from dataclasses import dataclass, field

from enkpf.errors import ConfigError
from enkpf.experiment import METHODS
from enkpf.grid import GridGeometry
from enkpf.sweq import ModelParams

SCENARIOS = ("hf", "lf", "custom")
SCENARIO_TIMING = {"hf": (300.0, 3600.0), "lf": (1800.0, 259200.0)}


@dataclass(frozen=True)
class ExperimentConfig:
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

    def resolved(self):
        """Fill scenario timing defaults; returns a fully timed config."""
        interval, duration = self.interval_s, self.duration_s
        if self.scenario in SCENARIO_TIMING:
            default_interval, default_duration = SCENARIO_TIMING[self.scenario]
            interval = default_interval if interval is None else interval
            duration = default_duration if duration is None else duration
        if interval is None or duration is None:
            raise ConfigError(
                "interval_s/duration_s: a custom scenario must set both explicitly"
            )
        return dataclasses.replace(self, interval_s=interval, duration_s=duration)

    def validated(self):
        """Resolved copy that passed validate_config (ConfigError otherwise)."""
        return validate_config(self)

    @property
    def n_cycles(self):
        return int(self.duration_s // self.interval_s)


def validate_config(cfg):
    """Raise ConfigError (naming the key) on any constraint violation.

    Returns the config with its scenario timing resolved; the scenario is
    checked before the timing is filled in from it.
    """
    if cfg.scenario not in SCENARIOS:
        raise ConfigError(f"scenario: must be one of {', '.join(SCENARIOS)}")
    if not cfg.methods:
        raise ConfigError("methods: at least one method is required")
    for m in cfg.methods:
        if m not in METHODS:
            raise ConfigError(f"methods: unknown method {m!r}")
    if len(set(cfg.methods)) != len(cfg.methods):
        raise ConfigError("methods: duplicate method")
    if cfg.k < 2:
        raise ConfigError("k: ensemble size must be >= 2")
    if not cfg.l_m > 0:
        raise ConfigError("l: localization half-length must be positive")
    lo, hi = cfg.ess_band
    if not 0.0 < lo <= hi <= 1.0:
        raise ConfigError("ess_band: need 0 < lo <= hi <= 1")
    if cfg.r_r <= 0 or cfg.r_u <= 0:
        raise ConfigError("r_r/r_u: observation error variances must be positive")
    cfg = cfg.resolved()
    if cfg.interval_s <= 0:
        raise ConfigError("interval_s: must be positive")
    steps = cfg.interval_s / cfg.model.dt_s
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 or round(steps) < 1:
        raise ConfigError("interval_s: must be a positive multiple of the model dt_s")
    if cfg.duration_s < 0:
        raise ConfigError("duration_s: must be nonnegative")
    if cfg.repetitions < 1:
        raise ConfigError("repetitions: must be >= 1")
    if not 0 <= cfg.base_seed < 2**64:
        raise ConfigError("base_seed: must fit in an unsigned 64-bit integer")
    if cfg.spinup_days < 0:
        raise ConfigError("spinup_days: must be nonnegative")
    for key, seconds in (("spinup_days", cfg.spinup_days * 86400.0),
                         ("warm_start_days", cfg.model.warm_start_days * 86400.0),
                         ("duration_s", cfg.duration_s)):
        try:
            cfg.model.steps(seconds)
        except ValueError as exc:
            raise ConfigError(f"{key}: too long: {exc}") from None
    if not cfg.block_segment_m > 0:
        raise ConfigError("block_segment_m: must be positive")
    return cfg


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

_MODEL_KEYS = {
    "n_points": int,
    "spacing_m": _to_float,
    "gravity": _to_float,
    "h_rest": _to_float,
    "h_cloud": _to_float,
    "h_rain": _to_float,
    "phi_cloud": _to_float,
    "rain_geopotential": _to_float,
    "alpha_rain": _to_float,
    "beta_rain": _to_float,
    "diff_h": _to_float,
    "diff_u": _to_float,
    "diff_r": _to_float,
    "plume_rate": _to_float,
    "plume_amplitude": _to_float,
    "plume_width_m": _to_float,
    "dt_s": _to_float,
    "rain_threshold": _to_float,
    "sigma_r": _to_float,
    "sigma_u": _to_float,
    "warm_start_days": _to_float,
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
    n_points = model_kw.pop("n_points", None)
    spacing = model_kw.pop("spacing_m", None)
    try:
        if n_points is not None or spacing is not None:
            model_kw["geometry"] = GridGeometry(
                n_points if n_points is not None else 300,
                spacing if spacing is not None else 500.0,
            )
        model = ModelParams(**model_kw)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc

    raw_exp = dict(sections["experiment"])
    for key, value in (overrides or {}).items():
        if key not in _EXPERIMENT_KEYS:
            raise ConfigError(f"unknown key {key!r} in overrides")
        raw_exp[key] = value
    exp_kw = {_FIELD_FOR_KEY.get(key, key): value for key, value in raw_exp.items()}
    return ExperimentConfig(model=model, **exp_kw).validated()
