"""Modified 1D shallow-water convection model and radar-like observations.

Three fields on a periodic grid: fluid height h, wind u, rain r. Convection
is triggered by small random wind plumes; where h exceeds the cloud threshold
the geopotential switches to a reduced constant (conditional instability),
and above the higher rain threshold convergence produces rain, which adds to
the geopotential and eventually kills the cloud. Explicit Euler time stepping
with centered differences; advection of h is in flux form, so total mass is
conserved to round-off by telescoping (the diffusion stencil telescopes too).

Only the cloud threshold (90.02), the domain (150 km at 500 m), and the plume
rate (8e-5 per meter per minute) are externally fixed; the remaining
constants are tunable configuration with defaults chosen so that clouds form,
rain, and decay on a roughly half-hour timescale.

The observation generator mimics radar: rain is observed everywhere through
a square-root transform with additive Gaussian noise and truncation at zero,
wind only where the observed rain reaches the rain threshold.
"""

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from enkpf.errors import CflViolation, InputError, NumericalBlowup
from enkpf.grid import GridGeometry, StateLayout
from enkpf.obs import GaussObs


@dataclass(frozen=True)
class ModelParams:
    geometry: GridGeometry = GridGeometry(300, 500.0)
    gravity: float = 10.0
    h_rest: float = 90.0
    h_cloud: float = 90.02  # cloud formation threshold (h_c)
    h_rain: float = 90.2  # rain production threshold (h_r)
    phi_cloud: float = 899.77  # reduced geopotential inside clouds
    rain_geopotential: float = 300.0  # weight of rain in the geopotential
    alpha_rain: float = 0.0012  # rain removal rate, 1/s
    beta_rain: float = 3.5  # rain production per unit convergence
    diff_h: float = 10000.0  # explicit centered stepping needs diff >= g*h*dt/2
    diff_u: float = 10000.0
    diff_r: float = 200.0
    plume_rate: float = 8e-5  # arrivals per meter per minute
    plume_amplitude: float = 0.005
    plume_width_m: float = 1000.0
    dt_s: float = 5.0
    rain_threshold: float = 0.005  # r_c, shared by generator and wind gating
    sigma_r: float = 0.1
    sigma_u: float = 0.0025
    warm_start_days: float = 2.0  # deterministic approach to the attractor

    def __post_init__(self):
        if not self.h_rain > self.h_cloud > 0:
            raise ValueError("need h_rain > h_cloud > 0")
        if min(self.alpha_rain, self.beta_rain, self.diff_h, self.diff_u,
               self.diff_r, self.plume_rate, self.warm_start_days) < 0:
            raise ValueError("rates and diffusivities must be nonnegative")
        if self.dt_s <= 0:
            raise ValueError("dt_s must be positive")

    @property
    def layout(self):
        return StateLayout(self.geometry)


@dataclass(frozen=True)
class ModelState:
    h: np.ndarray
    u: np.ndarray
    r: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        for name in ("h", "u", "r"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if not (self.h.shape == self.u.shape == self.r.shape) or self.h.ndim != 1:
            raise ValueError("h, u, r must be 1d arrays of equal length")

    def to_vector(self):
        return np.concatenate([self.h, self.u, self.r])

    @classmethod
    def from_vector(cls, vec, t=0.0):
        vec = np.asarray(vec, dtype=float)
        n = vec.shape[0] // 3
        return cls(vec[:n].copy(), vec[n : 2 * n].copy(), vec[2 * n :].copy(), t)


def rest_state(params):
    n = params.geometry.n_points
    return ModelState(np.full(n, params.h_rest), np.zeros(n), np.zeros(n), 0.0)


_WARM_SEED = 12345  # fixed: the warm state is part of the model definition


@lru_cache(maxsize=8)
def _warm_vector(params):
    if params.warm_start_days == 0.0 or params.plume_rate == 0.0:
        # without plume forcing the rest state is an exact fixed point
        return rest_state(params).to_vector()
    steps = int(round(params.warm_start_days * 86400.0 / params.dt_s))
    rng = np.random.Generator(np.random.Philox(_WARM_SEED))
    vec = rest_state(params).to_vector()[None, :]
    return advance_members(vec, params, steps, [rng])[0]


def warm_state(params):
    """Climatological base state: warm_start_days of free run from rest.

    Deterministic in params (the plume stream is a fixed internal seed), so
    every repetition and worker process shares the same base climate. Cached
    per parameter set.
    """
    return ModelState.from_vector(_warm_vector(params).copy())


def _dx_centered(f, dx):
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)


def _laplacian(f, dx):
    return (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / (dx * dx)


def _check_cfl(h, u, params):
    speed = np.abs(u) + np.sqrt(params.gravity * np.maximum(h, 0.0))
    c_max = float(speed.max())
    if c_max > 0 and params.dt_s > params.geometry.spacing_m / c_max:
        raise CflViolation(
            f"dt={params.dt_s}s exceeds CFL bound "
            f"{params.geometry.spacing_m / c_max:.3f}s (max speed {c_max:.2f} m/s)"
        )


def _check_finite(h, u, r, t):
    for name, f in (("h", h), ("u", u), ("r", r)):
        bad = ~np.isfinite(f)
        if bad.any():
            where = np.argwhere(bad)[0]
            raise NumericalBlowup(
                f"non-finite {name} at grid index {where[-1]} (t={t:.1f}s)",
                grid_index=int(where[-1]),
                time=t,
            )


def _plume_forcing(u_new, params, rngs, dt):
    """Add Poisson-arriving wind plumes in place; one rng per trajectory row."""
    lam = params.plume_rate * params.geometry.domain_m * dt / 60.0
    rows, centers, signs = [], [], []
    for i, rng in enumerate(rngs):
        count = int(rng.poisson(lam))
        if count:
            rows.extend([i] * count)
            centers.append(rng.uniform(0.0, params.geometry.domain_m, count))
            # symmetric signs keep the net momentum input zero in expectation
            signs.append(np.where(rng.uniform(size=count) < 0.5, -1.0, 1.0))
    if not rows:
        return
    centers = np.concatenate(centers)
    signs = np.concatenate(signs)
    length = params.geometry.domain_m
    xg = np.arange(params.geometry.n_points) * params.geometry.spacing_m
    delta = np.mod(xg[None, :] - centers[:, None] + 0.5 * length, length) - 0.5 * length
    w = params.plume_width_m
    bumps = (
        signs[:, None] * params.plume_amplitude * np.exp(-(delta * delta) / (2 * w * w))
    )
    np.add.at(u_new, np.asarray(rows), bumps)


def _step_fields(h, u, r, params, rngs, t):
    """One explicit step on (rows, n) field arrays; rngs has one entry per row."""
    dx = params.geometry.spacing_m
    dt = params.dt_s
    _check_cfl(h, u, params)

    phi = np.where(h > params.h_cloud, params.phi_cloud, params.gravity * h)
    phi = phi + params.rain_geopotential * r
    dudx = _dx_centered(u, dx)
    u_new = u + dt * (-u * dudx - _dx_centered(phi, dx) + params.diff_u * _laplacian(u, dx))
    _plume_forcing(u_new, params, rngs, dt)

    h_new = h + dt * (-_dx_centered(u * h, dx) + params.diff_h * _laplacian(h, dx))

    production = np.where((h > params.h_rain) & (dudx < 0.0), -params.beta_rain * dudx, 0.0)
    r_new = r + dt * (
        -u * _dx_centered(r, dx)
        + params.diff_r * _laplacian(r, dx)
        - params.alpha_rain * r
        + production
    )
    np.maximum(r_new, 0.0, out=r_new)

    _check_finite(h_new, u_new, r_new, t + dt)
    return h_new, u_new, r_new


def model_step(state, params, rng):
    """Advance one model time step (dt_s); deterministic given the rng state."""
    h, u, r = _step_fields(
        state.h[None, :], state.u[None, :], state.r[None, :], params, [rng], state.t
    )
    return ModelState(h[0], u[0], r[0], state.t + params.dt_s)


def advance_members(members, params, n_steps, rngs):
    """Advance a (k, 3n) ensemble array n_steps; member i uses rngs[i].

    Dynamics are vectorized across members; plume forcing stays member-wise
    through the per-member rng streams. Returns a new (k, 3n) array.
    """
    members = np.asarray(members, dtype=float)
    k = members.shape[0]
    n = params.geometry.n_points
    if members.shape[1] != 3 * n or len(rngs) != k:
        raise ValueError("members/rngs inconsistent with the model geometry")
    h = members[:, :n].copy()
    u = members[:, n : 2 * n].copy()
    r = members[:, 2 * n :].copy()
    t = 0.0
    for _ in range(n_steps):
        h, u, r = _step_fields(h, u, r, params, rngs, t)
        t += params.dt_s
    return np.concatenate([h, u, r], axis=1)


def spinup_ensemble(params, k, separation_days, rng):
    """Free-run climatological (k, 3n) ensemble: one long trajectory, sampled evenly.

    Starts from the warm climatological base state, burns in one separation
    interval, then records k states separation_days apart. separation 0
    returns k copies of the base state (degenerate, used by tests).
    """
    if k < 2:
        raise ValueError("need k >= 2 members")
    steps = int(round(separation_days * 86400.0 / params.dt_s))
    vec = warm_state(params).to_vector()[None, :]
    members = np.empty((k, vec.shape[1]))
    vec = advance_members(vec, params, steps, [rng])  # burn-in
    for i in range(k):
        if i > 0:
            vec = advance_members(vec, params, steps, [rng])
        members[i] = vec[0]
    return members


@dataclass(frozen=True)
class RadarObs:
    """Radar-like observations: rain everywhere, wind only at rainy returns."""

    y_r: np.ndarray
    wet_idx: np.ndarray  # grid points with y_r >= rain threshold
    y_u: np.ndarray  # wind observations at wet_idx
    rain_threshold: float
    sigma_r: float
    sigma_u: float


def gen_observations(state, params, rng):
    """Skewed, truncated rain observations plus wind at rainy points.

    Per point: y_r = 0 when r <= r_c or when the noise pushes the square-root
    amplitude negative; otherwise y_r = (sqrt(r - r_c) + eps/2)^2 with
    eps ~ N(0, sigma_r^2). Wind is observed with N(0, sigma_u^2) noise exactly
    where the *observed* rain reaches r_c.
    """
    r = state.r
    n = r.shape[0]
    eps = rng.standard_normal(n) * params.sigma_r
    above = r > params.rain_threshold
    amp = np.sqrt(np.where(above, r - params.rain_threshold, 0.0)) + 0.5 * eps
    y_r = np.where(above & (amp > 0.0), amp * amp, 0.0)
    wet = np.flatnonzero(y_r >= params.rain_threshold)
    y_u = state.u[wet] + rng.standard_normal(wet.size) * params.sigma_u
    return RadarObs(y_r, wet, y_u, params.rain_threshold, params.sigma_r, params.sigma_u)


def obs_to_gauss(radar, assumed_r_r, assumed_r_u):
    """Package radar observations as linear-Gaussian for assimilation.

    All n rain values (zeros included) observe the rain block with variance
    assumed_r_r; wind values observe the wind block with variance assumed_r_u.
    Column convention matches the (h, u, r) state stacking.
    """
    n = radar.y_r.shape[0]
    rain_cols = 2 * n + np.arange(n)
    wind_cols = n + radar.wet_idx
    y = np.concatenate([radar.y_r, radar.y_u])
    h_rows = np.concatenate([rain_cols, wind_cols])
    r_diag = np.concatenate(
        [np.full(n, assumed_r_r), np.full(radar.wet_idx.size, assumed_r_u)]
    )
    return GaussObs(y, h_rows, r_diag)


STATE_HEADER = ["grid_index", "h", "u", "r"]
ENSEMBLE_HEADER = ["member", "grid_index", "h", "u", "r"]


def save_state_csv(state, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(STATE_HEADER)
        for g in range(state.h.shape[0]):
            writer.writerow(
                [g, repr(float(state.h[g])), repr(float(state.u[g])), repr(float(state.r[g]))]
            )


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


def load_state_csv(path, t=0.0):
    data = _read_csv_rows(path, STATE_HEADER)
    data = data[_grid_order(path, data[:, 0])]
    return ModelState(data[:, 1], data[:, 2], data[:, 3], t)


def save_ensemble_csv(members, path):
    members = np.asarray(members)
    n = members.shape[1] // 3
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ENSEMBLE_HEADER)
        for i, row in enumerate(members):
            for g in range(n):
                writer.writerow(
                    [i, g, repr(float(row[g])), repr(float(row[n + g])), repr(float(row[2 * n + g]))]
                )


def load_ensemble_csv(path):
    """A (k, 3n) member array from a CSV written by save_ensemble_csv."""
    data = _read_csv_rows(path, ENSEMBLE_HEADER)
    members = []
    for i in np.unique(data[:, 0]):
        rows = data[data[:, 0] == i]
        rows = rows[_grid_order(path, rows[:, 1])]
        members.append(np.concatenate([rows[:, 2], rows[:, 3], rows[:, 4]]))
    if len({row.size for row in members}) != 1:
        raise InputError(path, "members have different grid sizes")
    return np.array(members)
