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

States are plain (3n,) vectors and ensembles (k, 3n) arrays, laid out as
enkpf.grid.StateLayout says; this module reads and writes the fields only
through StateLayout.split.

advance_ensembles is the one step loop. It advances several ensembles whose
member i draws its plumes from the same generator in lock-step: each step
draws and evaluates the plumes once and adds them to every ensemble, which
is how the experiment forecasts all its methods. advance_members is its
one-ensemble case. One call makes every array it steps with once: each
ensemble's fields live in a padded (3, rows, n + 2) buffer, and a step
writes them into a spare one that then takes their place. A step copies the
halo columns from the interior's edges, so the periodic neighbours f[i+1]
and f[i-1] are views made once (_Ring). The step's temporaries are shared
by the ensembles, and every ufunc writes into them.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from enkpf.errors import CflViolation, InputError, NumericalBlowup
from enkpf.grid import FIELDS, GridGeometry, StateLayout, default_layout
from enkpf.obs import GaussObs

# The most model steps one span may take: 10**7 steps are about 579 days at
# the default dt_s = 5, some 190 times the lf run. A longer span is a typo,
# not an experiment, and would run for days before failing.
MAX_STEPS = 10**7


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
        if not self.gravity > 0:
            raise ValueError("gravity must be positive")
        if not self.plume_width_m > 0:
            raise ValueError("plume_width_m must be positive")
        # more arrivals per step than grid points is no longer small plumes
        # (the default is one per step on 300 points)
        n = self.geometry.n_points
        if not self.plumes_per_step <= n:
            raise ValueError(
                f"plume_rate: {self.plumes_per_step!r} plumes per step "
                f"(plume_rate * n_points * spacing_m * dt_s / 60) exceeds n_points = {n}"
            )

    @property
    def layout(self):
        return StateLayout(self.geometry)

    @property
    def plumes_per_step(self):
        """Mean number of plume arrivals on the whole ring in one dt_s step."""
        return self.plume_rate * self.geometry.domain_m * self.dt_s / 60.0

    def steps(self, seconds):
        """The whole number of dt_s steps nearest to a span of seconds.

        Raises ValueError when the count exceeds MAX_STEPS or is not finite
        (a huge span or a tiny dt_s).
        """
        count = seconds / self.dt_s
        if not count <= MAX_STEPS:
            raise ValueError(
                f"{seconds!r} s is more than MAX_STEPS = {MAX_STEPS} steps of {self.dt_s!r} s"
            )
        return int(round(count))


def rest_state(params):
    """The (3n,) state at rest: h = h_rest, no wind, no rain."""
    x = np.zeros(params.layout.dim)
    params.layout.split(x)["h"][...] = params.h_rest
    return x


_WARM_SEED = 12345  # fixed: the warm state is part of the model definition


@lru_cache(maxsize=8)
def warm_state(params):
    """Climatological base state: warm_start_days of free run from rest.

    Deterministic in params (the plume stream is a fixed internal seed), so
    every repetition and worker process shares the same base climate. Cached
    per parameter set, so the (3n,) vector returned is read-only.
    """
    x = rest_state(params)
    # without plume forcing the rest state is an exact fixed point
    if params.warm_start_days != 0.0 and params.plume_rate != 0.0:
        steps = params.steps(params.warm_start_days * 86400.0)
        rng = np.random.Generator(np.random.Philox(_WARM_SEED))
        x = advance_members(x[None, :], params, steps, [rng])[0]
    x.flags.writeable = False
    return x


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
        if not np.isfinite(f).all():
            where = np.argwhere(~np.isfinite(f))[0]
            raise NumericalBlowup(
                f"non-finite {name} at grid index {where[-1]} (t={t:.1f}s)",
                grid_index=int(where[-1]),
                time=t,
            )


def _plume_bumps(params, rngs, xg):
    """One step's Poisson-arriving wind plumes; one rng per trajectory row.

    Draws each row's plume count, centers and signs in turn and returns the
    rows and the bumps in arrival order, each bump a signed Gaussian wind
    increment over the n grid points. xg holds their coordinates in meters.
    """
    lam = params.plumes_per_step
    length = params.geometry.domain_m
    rows, centers, sign_draws = [], [], []
    for i, rng in enumerate(rngs):
        count = int(rng.poisson(lam))
        if count:
            rows.extend([i] * count)
            centers.append(rng.uniform(0.0, length, count))
            sign_draws.append(rng.uniform(size=count))
    if not rows:
        return rows, ()
    # symmetric signs keep the net momentum input zero in expectation
    amplitude = params.plume_amplitude
    signed = np.where(np.concatenate(sign_draws) < 0.5, -amplitude, amplitude)
    # the signed distance np.mod(offset, length) - length / 2 from each center:
    # grid points and centers lie in [0, length), so offset lies within
    # (-length / 2, 3 length / 2) and one wrap either way is np.mod's result.
    # np.mod gives the same bits but is slower: 287 against 73 us for 50
    # bumps on 300 points (2-core Xeon, numpy 2.4)
    offset = xg - np.concatenate(centers)[:, None] + 0.5 * length
    offset[offset >= length] -= length
    offset[offset < 0.0] += length  # may round up to length, as np.mod does
    delta = offset - 0.5 * length
    w = params.plume_width_m
    bumps = signed[:, None] * np.exp(-(delta * delta) / (2 * w * w))
    return rows, bumps


class _Ring:
    """A (..., n) periodic array stored in a (..., n + 2) buffer with halos.

    Columns 0 and n + 1 of the buffer are halos, copies of the interior's
    last and first columns once wrap() has run, so the interior's periodic
    neighbours f[i+1] and f[i-1] are fixed views: plus and minus.
    """

    def __init__(self, lead, n):
        padded = np.empty((*lead, n + 2))
        self.mid = padded[..., 1:-1]
        self.plus = padded[..., 2:]
        self.minus = padded[..., :-2]
        # (halo, edge) pairs: f[-1] is f[n - 1] and f[n] is f[0]
        self._halos = (
            (padded[..., :1], padded[..., -2:-1]),
            (padded[..., -1:], padded[..., 1:2]),
        )

    def wrap(self):
        for halo, edge in self._halos:
            np.copyto(halo, edge)


class _Fields(_Ring):
    """One ensemble's (h, u, r), a (3, rows, n) ring, and the views a step reads."""

    def __init__(self, rows, n):
        super().__init__((3, rows), n)
        self.h, self.u, self.r = self.mid
        self.h_p, self.u_p, self.r_p = self.plus
        self.h_m, self.u_m, self.r_m = self.minus


class _Work:
    """The (rows, n) temporaries of a step, shared by the ensembles of one call.

    phi and u*h are one (2, rows, n) ring; flags is three bool arrays: the
    two masks of a step, then all three hold the finite check of (h, u, r).
    """

    def __init__(self, rows, n):
        self.flux = _Ring((2, rows), n)
        self.phi, self.uh = self.flux.mid
        self.phi_p, self.uh_p = self.flux.plus
        self.phi_m, self.uh_m = self.flux.minus
        self.dudx, self.neg_u, self.a, self.b, self.production = np.empty((5, rows, n))
        self.flags = np.empty((3, rows, n), dtype=bool)
        self.mask, self.mask2 = self.flags[0], self.flags[1]


def _dynamics(src, dst, work, params):
    """One explicit step from src to dst (_Fields), without the plume forcing.

    Centered differences (f[i+1] - f[i-1]) / (2 dx) and the diffusion stencil
    (f[i+1] - 2 f[i] + f[i-1]) / dx^2 read their neighbours from the rings'
    halos. Every element goes through the ufuncs of the original np.roll
    stencils in their order, written into work's buffers, so trajectories are
    bitwise those of tests/oracles.py:roll_advance. The new h and r do not
    read the new u, so the plumes may be added after them.
    """
    dx = params.geometry.spacing_m
    dt = params.dt_s
    two_dx = 2.0 * dx
    dx2 = dx * dx
    src.wrap()
    h, u, r = src.h, src.u, src.r
    # max|u| + sqrt(g max h) is never below the fastest wave speed, since
    # rounding is monotone; only when it breaks the CFL bound does the exact
    # check run, which decides and words the error
    bound = max(float(u.max()), -float(u.min())) + math.sqrt(
        params.gravity * max(float(h.max()), 0.0)
    )
    if not (bound == 0.0 or dt <= dx / bound):
        _check_cfl(h, u, params)

    dudx, neg_u, a, b, mask = work.dudx, work.neg_u, work.a, work.b, work.mask
    # phi = where(h > h_cloud, phi_cloud, gravity * h) + rain_geopotential * r
    phi = work.phi
    np.multiply(h, params.gravity, phi)
    np.greater(h, params.h_cloud, mask)
    np.copyto(phi, params.phi_cloud, where=mask)
    np.multiply(r, params.rain_geopotential, a)
    np.add(phi, a, phi)
    np.multiply(u, h, work.uh)
    work.flux.wrap()
    np.subtract(src.u_p, src.u_m, dudx)
    np.divide(dudx, two_dx, dudx)
    # u_new = u + dt * (-u * dudx - (phi_p - phi_m) / two_dx
    #                   + diff_u * ((u_p - 2 u + u_m) / dx2))
    np.negative(u, neg_u)
    np.multiply(neg_u, dudx, a)
    np.subtract(work.phi_p, work.phi_m, b)
    np.divide(b, two_dx, b)
    np.subtract(a, b, a)
    _diffusion(u, src.u_p, src.u_m, dx2, params.diff_u, b)
    np.add(a, b, a)
    np.multiply(a, dt, a)
    np.add(u, a, dst.u)

    # h_new = h + dt * (-((uh_p - uh_m) / two_dx) + diff_h * ((h_p - 2 h + h_m) / dx2))
    np.subtract(work.uh_p, work.uh_m, a)
    np.divide(a, two_dx, a)
    np.negative(a, a)
    _diffusion(h, src.h_p, src.h_m, dx2, params.diff_h, b)
    np.add(a, b, a)
    np.multiply(a, dt, a)
    np.add(h, a, dst.h)

    # production = where((h > h_rain) & (dudx < 0), -beta_rain * dudx, 0)
    production = work.production
    np.greater(h, params.h_rain, mask)
    np.less(dudx, 0.0, work.mask2)
    np.logical_and(mask, work.mask2, mask)
    production.fill(0.0)
    np.multiply(dudx, -params.beta_rain, production, where=mask)
    # r_new = r + dt * (-u * ((r_p - r_m) / two_dx) + diff_r * ((r_p - 2 r + r_m) / dx2)
    #                   - alpha_rain * r + production), then clipped at 0
    np.subtract(src.r_p, src.r_m, a)
    np.divide(a, two_dx, a)
    np.multiply(neg_u, a, a)
    _diffusion(r, src.r_p, src.r_m, dx2, params.diff_r, b)
    np.add(a, b, a)
    np.multiply(r, params.alpha_rain, b)
    np.subtract(a, b, a)
    np.add(a, production, a)
    np.multiply(a, dt, a)
    np.add(r, a, dst.r)
    np.maximum(dst.r, 0.0, out=dst.r)


def _diffusion(f, f_p, f_m, dx2, diff, out):
    """out = diff * ((f_p - 2 f + f_m) / dx2)."""
    np.multiply(f, 2.0, out)
    np.subtract(f_p, out, out)
    np.add(out, f_m, out)
    np.divide(out, dx2, out)
    np.multiply(out, diff, out)


def advance_ensembles(ensembles, params, n_steps, rngs):
    """Advance several (k, 3n) ensemble arrays n_steps in lock-step.

    Member i of every ensemble uses rngs[i]. Each step draws and evaluates
    the plumes once, then runs the dynamics of every live ensemble and adds
    the plumes to it one bump at a time in arrival order, so every trajectory
    is bitwise the one it takes when advanced alone with its own generators
    of the same streams. Returns a list with one entry per ensemble: the new
    (k, 3n) array, or the CflViolation or NumericalBlowup that stopped it;
    the other ensembles carry on.

    Every array of the integration is made here, once: one _Fields ring per
    ensemble and one spare. An ensemble's step reads its ring and writes the
    spare, which becomes its ring, while the ring it read becomes the spare
    of the next. The step's temporaries are one _Work shared by all.
    """
    layout = params.layout
    n = params.geometry.n_points
    rows = len(rngs)
    # each ensemble's ring, or the failure that stopped it; the inputs are
    # copied in, so they are never written
    states = []
    for members in ensembles:
        members = np.asarray(members, dtype=float)
        if members.shape[-1] != layout.dim or rows != len(members):
            raise ValueError("members/rngs inconsistent with the model geometry")
        fields = _Fields(rows, n)
        for view, block in zip((fields.h, fields.u, fields.r), layout.split(members).values()):
            view[...] = block
        states.append(fields)
    spare = _Fields(rows, n)
    work = _Work(rows, n)
    live = list(range(len(states)))
    xg = np.arange(n) * params.geometry.spacing_m
    t = 0.0
    # a field that overflows or goes NaN is reported by _check_finite as a
    # NumericalBlowup; numpy's warnings on the way there would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(n_steps):
            if not live:
                break
            bump_rows, bumps = _plume_bumps(params, rngs, xg)
            t += params.dt_s
            for j in live:
                try:
                    _dynamics(states[j], spare, work, params)
                    # one bump at a time, in arrival order, as np.add.at adds them;
                    # np.add.at gives the same bits but is slower (2-core Xeon,
                    # numpy 2.4): 9.1 against 2.7 us at 1 row, 255 against 62 us
                    # at 50 rows
                    for row, bump in zip(bump_rows, bumps):
                        spare.u[row] += bump
                    if not np.isfinite(spare.mid, work.flags).all():
                        _check_finite(spare.h, spare.u, spare.r, t)
                except (CflViolation, NumericalBlowup) as exc:
                    states[j] = exc
                    # the loop goes on over the list it started with
                    live = [i for i in live if i != j]
                else:
                    states[j], spare = spare, states[j]
    # pack each ensemble's fields into its output, releasing them as it goes
    for j in live:
        fields = states[j]
        states[j] = out = np.empty((rows, layout.dim))
        for block, view in zip(layout.split(out).values(), (fields.h, fields.u, fields.r)):
            block[...] = view
    return states


def advance_members(members, params, n_steps, rngs):
    """Advance a (k, 3n) ensemble array n_steps; member i uses rngs[i].

    The one-ensemble case of advance_ensembles, which raises the
    CflViolation or NumericalBlowup that stops it. Returns a new (k, 3n)
    array.
    """
    (out,) = advance_ensembles([members], params, n_steps, rngs)
    if not isinstance(out, np.ndarray):
        raise out
    return out


def spinup_ensemble(params, k, separation_days, rng, base=None):
    """Free-run climatological (k, 3n) ensemble: one long trajectory, sampled evenly.

    Starts from base, by default the warm climatological base state
    warm_state(params), burns in one separation interval, then records k
    states separation_days apart. separation 0 returns k copies of the base
    state (degenerate, used by tests).
    """
    if k < 2:
        raise ValueError("need k >= 2 members")
    steps = params.steps(separation_days * 86400.0)
    vec = (warm_state(params) if base is None else base)[None, :]
    members = np.empty((k, vec.shape[1]))
    for i in range(k):
        # the first advance is the burn-in
        vec = advance_members(vec, params, steps, [rng])
        members[i] = vec[0]
    return members


@dataclass(frozen=True)
class RadarObs:
    """Radar-like observations: rain everywhere, wind only at rainy returns."""

    y_r: np.ndarray
    wet_idx: np.ndarray  # grid points with y_r >= rain threshold
    y_u: np.ndarray  # wind observations at wet_idx


def gen_observations(x, params, rng):
    """Skewed, truncated rain observations plus wind at rainy points.

    Per point: y_r = 0 when r <= r_c or when the noise pushes the square-root
    amplitude negative; otherwise y_r = (sqrt(r - r_c) + eps/2)^2 with
    eps ~ N(0, sigma_r^2). Wind is observed with N(0, sigma_u^2) noise exactly
    where the *observed* rain reaches r_c. x is the (3n,) true state.
    NumericalBlowup names the first observation that is not finite.
    """
    fields = params.layout.split(x)
    r = fields["r"]
    n = r.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        eps = rng.standard_normal(n) * params.sigma_r
        above = r > params.rain_threshold
        amp = np.sqrt(np.where(above, r - params.rain_threshold, 0.0)) + 0.5 * eps
        rainy = np.flatnonzero(above & (amp > 0.0))
        y_r = np.zeros(n)
        y_r[rainy] = amp[rainy] * amp[rainy]
        wet = np.flatnonzero(y_r >= params.rain_threshold)
        y_u = fields["u"][wet] + rng.standard_normal(wet.size) * params.sigma_u
    for name, values, points in (("y_r", y_r, np.arange(n)), ("y_u", y_u, wet)):
        bad = points[~np.isfinite(values)]
        if bad.size:
            raise NumericalBlowup(f"non-finite {name} at grid index {bad[0]}", int(bad[0]))
    return RadarObs(y_r, wet, y_u)


def obs_to_gauss(radar, assumed_r_r, assumed_r_u):
    """Package radar observations as linear-Gaussian for assimilation.

    All n rain values (zeros included) observe the rain block with variance
    assumed_r_r; wind values observe the wind block with variance assumed_r_u.
    """
    n = radar.y_r.shape[0]
    layout = default_layout(n)
    cols = layout.split(np.arange(layout.dim))
    rain_cols = cols["r"]
    wind_cols = cols["u"][radar.wet_idx]
    y = np.concatenate([radar.y_r, radar.y_u])
    h_rows = np.concatenate([rain_cols, wind_cols])
    r_diag = np.concatenate(
        [np.full(n, assumed_r_r), np.full(radar.wet_idx.size, assumed_r_u)]
    )
    return GaussObs(y, h_rows, r_diag)


STATE_HEADER = ["grid_index", *FIELDS]
ENSEMBLE_HEADER = ["member", *STATE_HEADER]


def _grid_rows(x):
    """The STATE_HEADER rows of a (3n,) state: each grid point's field values."""
    fields = default_layout(len(x) // len(FIELDS)).split(x)
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
    for block, column in zip(default_layout(len(rows)).split(x).values(), rows[:, 1:].T):
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
    members = [_state_of(path, data[data[:, 0] == i, 1:]) for i in np.unique(data[:, 0])]
    if len({x.size for x in members}) != 1:
        raise InputError(path, "members have different grid sizes")
    return np.array(members)
