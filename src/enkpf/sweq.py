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
enkpf.grid.Grid says; this module reads and writes the fields only through
Grid.split.

advance_ensembles is the one step loop. It advances several ensembles whose
member i draws its plumes from the same generator in lock-step: the plumes
of a step are drawn and evaluated once and added to every ensemble, which
is how the experiment forecasts all its methods. advance_members is its
one-ensemble case. One call makes every array it steps with once: each
ensemble's fields live in a (3, rows, n + 2) buffer, each row between two
halo columns, and a step writes them into a spare buffer that then takes
their place, and wraps it: copies each row's edge columns into its halos.
A step's ufuncs make contiguous passes over whole fields, halos included;
f[i+1] and f[i-1] are such a span shifted by one point (_span). The step's
work buffers are shared by the ensembles, and the step is a closure that
binds them, its constants and its ufuncs once per call (_bind_step).

The plumes come from one generator, _plume_steps, which draws them a chunk
of steps ahead, about 256 plumes and at most 1,024 steps, so memory does
not grow with the steps. The draws are those of per-step calls:
rng.poisson(lam), then, if it drew a count, rng.uniform(0.0, L, count) for
the centers and rng.uniform(size=count) for the signs. For 0 < lam < 10
they are decoded from one block of rng.random doubles per row: numpy's
poisson multiplies doubles until the product falls to exp(-lam),
uniform(0.0, L) is 0.0 + L * U and uniform() is U. For lam >= 10 numpy's
poisson is the PTRS method, and the per-step calls are made as they are.
When _plume_steps leaves a chunk (its steps ran out, the loop closed it or
an error left the loop), it sets every generator back to its state at the
chunk's start and advances it by the draws of the steps it yielded, so it
ends where per-step calls leave it, also when every ensemble stops early:
spinup_ensemble takes one generator through all its spans. A chunk's bumps
are evaluated in one pass, each element as before; exp skips arguments
below -746, whose result is +0.0 anyway, where numpy's exp is slow.
Trajectories and generators are bitwise those of tests/oracles.py
(roll_advance, plume_draws). On a 2-core Xeon (numpy 2.4, AVX-512) a step
from the warm state took a median of 53 us at 1 row and 0.96 ms at 50
rows, against 68 us and 1.35 ms with a strided pass per row
(scripts/step_bench.py, BENCH_flatstep.json).
"""

import csv
import math
from contextlib import closing
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from enkpf.errors import CflViolation, InputError, NumericalBlowup
from enkpf.grid import FIELDS, Grid
from enkpf.obs import GaussObs

# The most model steps one span may take: 10**7 steps are about 579 days at
# the default dt_s = 5, some 190 times the lf run. A longer span is a typo,
# not an experiment, and would run for days before failing.
MAX_STEPS = 10**7


@dataclass(frozen=True)
class ModelParams:
    grid: Grid = Grid(300)
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
        for key in ("alpha_rain", "beta_rain", "diff_h", "diff_u", "diff_r", "plume_rate",
                    "plume_amplitude", "sigma_r", "sigma_u", "warm_start_days"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be nonnegative")
        if not self.dt_s > 0:
            raise ValueError("dt_s must be positive")
        # signed keys: NaN would read every point dry or blow up the warm start
        for key in ("h_rest", "phi_cloud", "rain_geopotential", "rain_threshold"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if not self.gravity > 0:
            raise ValueError("gravity must be positive")
        if not self.plume_width_m > 0:
            raise ValueError("plume_width_m must be positive")
        # more arrivals per step than grid points is no longer small plumes
        # (the default is one per step on 300 points)
        n = self.grid.n_points
        if not self.plumes_per_step <= n:
            raise ValueError(
                f"plume_rate: {self.plumes_per_step!r} plumes per step "
                f"(plume_rate * n_points * spacing_m * dt_s / 60) exceeds n_points = {n}"
            )

    @property
    def plumes_per_step(self):
        """Mean number of plume arrivals on the whole ring in one dt_s step."""
        return self.plume_rate * self.grid.domain_m * self.dt_s / 60.0

    def steps(self, seconds):
        """The whole number of dt_s steps nearest to a span of seconds.

        Raises ValueError when the count is negative, exceeds MAX_STEPS or
        is not finite (a huge span or a tiny dt_s).
        """
        count = seconds / self.dt_s
        if count < 0:
            raise ValueError(f"{seconds!r} s is a negative span")
        if not count <= MAX_STEPS:
            raise ValueError(
                f"{seconds!r} s is more than MAX_STEPS = {MAX_STEPS} steps of {self.dt_s!r} s"
            )
        return int(round(count))


def rest_state(params):
    """The (3n,) state at rest: h = h_rest, no wind, no rain."""
    x = np.zeros(params.grid.dim)
    params.grid.split(x)["h"][...] = params.h_rest
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
    if c_max > 0 and params.dt_s > params.grid.spacing_m / c_max:
        raise CflViolation(
            f"dt={params.dt_s}s exceeds CFL bound "
            f"{params.grid.spacing_m / c_max:.3f}s (max speed {c_max:.2f} m/s)"
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


# A chunk of steps draws and evaluates about _CHUNK_PLUMES plumes ahead, in at
# most _CHUNK_STEPS steps. At the defaults (300 points, one plume per row and
# step) a 1-row chunk is about 256 steps with 600 KB of bumps, a 50-row chunk
# 5 steps; the cap keeps a near-zero plume rate from drawing huge blocks.
_CHUNK_PLUMES = 256
_CHUNK_STEPS = 1024


def _row_plumes(rng, lam, length, steps):
    """One row's plumes over its next steps, as per-step calls draw them.

    A step's calls are rng.poisson(lam) and, when it drew a count, then
    rng.uniform(0.0, length, count) for the centers and
    rng.uniform(size=count) for the signs. Returns the steps' counts, the
    centers and sign draws of their plumes in arrival order, and how many
    doubles were taken from rng, which may be more than the calls take; or
    None where the calls themselves were made.
    """
    if not 0.0 < lam < 10.0:
        # numpy draws a count of mean 10 or more by the PTRS method, which is
        # not replayed here, and one of mean 0 draws nothing
        counts, centers, signs = [], [], []
        for _ in range(steps):
            count = int(rng.poisson(lam))
            counts.append(count)
            if count:
                centers.append(rng.uniform(0.0, length, count))
                signs.append(rng.uniform(size=count))
        return counts, np.concatenate([[], *centers]), np.concatenate([[], *signs]), None
    # below 10, poisson(lam) takes doubles U until their running product
    # falls to exp(-lam), uniform(0.0, length) is 0.0 + length * U and
    # uniform() is U, all of them the doubles rng.random gives, in turn: so
    # a step takes 3 count + 1 doubles, and a block of them replays the calls
    enlam = math.exp(-lam)
    block = int(steps * (3.0 * lam + 1.0) * 1.25) + 16
    draws = rng.random(block).tolist()
    counts, centers, signs = [], [], []
    pos = 0
    while len(counts) < steps:
        try:
            prod = draws[pos]
            end = pos + 1
            while prod > enlam:
                prod *= draws[end]
                end += 1
            count = end - pos - 1
            if end + 2 * count > len(draws):
                raise IndexError
        except IndexError:
            # the block ends within this step: draw on, and decode it again
            draws += rng.random(block).tolist()
            continue
        counts.append(count)
        pos = end + 2 * count
        if count:
            centers += draws[end:end + count]
            signs += draws[end + count:pos]
    return counts, 0.0 + length * np.array(centers), np.array(signs), len(draws)


def _bumps(params, xg, centers, sign_draws):
    """The signed Gaussian wind increments of plumes, one (n,) row per plume.

    centers and sign_draws are the plumes' draws; xg holds the grid points'
    coordinates in meters. Each element goes through the operations of the
    plume forcing in tests/oracles.py:roll_advance, in their order, so the
    bits are the same.
    """
    length = params.grid.domain_m
    w = params.plume_width_m
    # the signed distance np.mod(offset, length) - length / 2 from each center:
    # grid points and centers lie in [0, length), so offset lies within
    # (-length / 2, 3 length / 2) and one wrap either way is np.mod's result.
    # np.mod gives the same bits but is slower: 287 against 73 us for 50
    # bumps on 300 points (2-core Xeon, numpy 2.4)
    out = np.subtract(xg, centers[:, None])
    np.add(out, 0.5 * length, out)
    mask = np.greater_equal(out, length)
    np.subtract(out, length, out, where=mask)
    np.less(out, 0.0, mask)
    np.add(out, length, out, where=mask)  # may round up to length, as np.mod does
    np.subtract(out, 0.5 * length, out)
    np.multiply(out, out, out)
    np.negative(out, out)
    np.divide(out, 2 * w * w, out)
    # exp is +0.0 below -745.14, where numpy's exp is slow (15 ns an
    # argument at -800, 4 ns at -inf, 1 ns at -1; AVX-512, numpy 2.4): it
    # skips the arguments below -746, which are set to +0.0. 256 bumps of
    # 300 points took 313 us so, against 717 us for exp of every argument
    np.greater_equal(out, -746.0, mask)
    np.exp(out, out, where=mask)
    np.logical_not(mask, mask)
    np.copyto(out, 0.0, where=mask)
    # symmetric signs keep the net momentum input zero in expectation
    amplitude = params.plume_amplitude
    np.multiply(np.where(sign_draws < 0.5, -amplitude, amplitude)[:, None], out, out)
    return out


def _plume_steps(params, rngs, n_steps):
    """Yield each of n_steps steps' plume bumps: its (row, bump) pairs.

    Draws every row's plumes a chunk of steps ahead (_row_plumes) and
    evaluates all their bumps in one pass (_bumps); a step's pairs come in
    arrival order: the rows in turn, each row's plumes as drawn. The step
    loop may stop within a chunk, so on leaving one (its steps ran out, or
    on close() or an error) every generator is set to where per-step calls
    leave it after the steps yielded. At lam = 0, where poisson(0) draws
    nothing, the generators keep their values.
    """
    lam, length = params.plumes_per_step, params.grid.domain_m
    chunk = min(_CHUNK_STEPS, max(1, int(_CHUNK_PLUMES / max(lam * len(rngs), 1.0))))
    xg = np.arange(params.grid.n_points) * params.grid.spacing_m
    for done in range(0, n_steps, chunk):
        steps = min(chunk, n_steps - done)
        saved = [rng.bit_generator.state for rng in rngs]
        drawn = [_row_plumes(rng, lam, length, steps) for rng in rngs]
        counts = np.array([row[0] for row in drawn], dtype=np.intp)
        # each plume's step, and the order that sorts the plumes by step,
        # keeping the rows' order within a step
        order = np.argsort(np.repeat(np.tile(np.arange(steps), len(drawn)), counts.ravel()),
                           kind="stable")
        rows = np.repeat(np.arange(len(drawn)), counts.sum(axis=1))[order]
        centers = np.concatenate([row[1] for row in drawn])[order]
        sign_draws = np.concatenate([row[2] for row in drawn])[order]
        pairs = list(zip(rows.tolist(), _bumps(params, xg, centers, sign_draws)))
        ends = np.cumsum(counts.sum(axis=0)).tolist()
        started = 0
        try:
            for start, end in zip([0, *ends], ends):
                started += 1
                yield pairs[start:end]
        finally:
            for rng, state, (row_counts, _, _, taken) in zip(rngs, saved, drawn):
                if taken is None:
                    if started < len(row_counts):
                        rng.bit_generator.state = state
                        _row_plumes(rng, lam, length, started)
                else:
                    used = started + 3 * sum(row_counts[:started])
                    if used != taken:
                        rng.bit_generator.state = state
                        rng.random(used)
        # the chunk's bumps go before the next chunk's are made
        pairs = None


def _buffer(fields, rows, n):
    """A new, unwritten (fields, rows, n + 2) buffer: rows between halo columns."""
    return np.empty((fields, rows, n + 2))


def _span(buf, first, count, shift=0):
    """Fields first .. first + count - 1 of a _buffer as one contiguous 1-D
    view: from the first interior point of the one to the last interior
    point of the other, moved shift points along. Once each row's halos
    hold its wrapped edge values, shifts 1 and -1 give every interior point
    its periodic neighbours f[i+1] and f[i-1]. The view takes in the halo
    columns between rows, where elementwise ufuncs make values that nothing
    reads before the next wrap overwrites them.
    """
    flat = buf[first:first + count].reshape(-1)
    return flat[1 + shift:flat.size - 1 + shift]


def _bind_step(params, rows, n):
    """The model step of one integration, with its constants, work buffers
    and ufuncs bound once, so that a step looks nothing up.

    Returns step and fields. fields(members) packs the (rows, 3n) members
    into a new (3, rows, n + 2) buffer of h, u and r and wraps it (fields()
    leaves it unwritten); it returns the buffer and the views a step takes.
    step(src, dst, bumps, t) advances the fields src into dst: the explicit
    dynamics, each (row, bump) pair of bumps added to dst's u in turn, as
    np.add.at adds them, dst's wrap, and the finite check, whose
    NumericalBlowup names the time t.

    Every ufunc makes one contiguous pass, over whole fields or, where it
    reads neighbours, over a _span of one to three fields: the centered
    differences (f[i+1] - f[i-1]) / (2 dx) of u and r, and of phi and u*h,
    are one pass each, and so is each stage of the diffusion stencils
    (f[i+1] - 2 f[i] + f[i-1]) / dx^2 of h, u and r, which start the
    tendencies in dst. phi and u*h made on src's wrapped halos are the
    wrapped values of their edges, so they need no wrap. Every element goes
    through the ufuncs of the original np.roll stencils in their order, up
    to the order of an add's operands and d - x taken for d + (-x), which
    IEEE arithmetic rounds alike: trajectories are bitwise those of
    tests/oracles.py:roll_advance. The new h and r do not read the new u, so
    the plumes may be added last. The CFL bound and the finite check read
    interior points and freshly wrapped halos only.
    """
    dx, dt, gravity = params.grid.spacing_m, params.dt_s, params.gravity
    # the ufuncs' scalar operands as 0-d arrays, made once: a ufunc converts
    # a Python float on every call, 0.4 of the 1.3 us an add of 300 points
    # takes (2-core Xeon, numpy 2.4)
    (step_dt, two_dx, dx2, two, zero, g, h_cloud, h_rain, phi_cloud, rain_geopotential,
     diff_h, diff_u, diff_r, alpha_rain, neg_beta_rain) = map(np.array, (
        dt, 2.0 * dx, dx * dx, 2.0, 0.0, gravity, params.h_cloud, params.h_rain,
        params.phi_cloud, params.rain_geopotential, params.diff_h, params.diff_u,
        params.diff_r, params.alpha_rain, -params.beta_rain))

    # three work buffers of two fields, shared by the ensembles: phi and u*h;
    # du/dx and dr/dx; dphi/dx and d(u*h)/dx. After the differences phi's
    # slot holds products and u*h's -u; dphi/dx's holds a product before
    # them, and the production once the u tendency has read dphi/dx
    fluxes, grads, diffs = (_buffer(2, rows, n) for _ in range(3))
    (phi, uh), (dudx, drdx), (dphidx, duhdx) = (b.reshape(2, -1) for b in (fluxes, grads, diffs))
    a, neg_u, production = phi, uh, dphidx
    flux_p, flux_m = _span(fluxes, 0, 2, 1), _span(fluxes, 0, 2, -1)
    grad, diff = _span(grads, 0, 2), _span(diffs, 0, 2)
    clear_production = production.fill
    # the two masks of a step, then the finite check of dst's three fields
    flags = np.empty((3, rows, n + 2), dtype=bool)
    (mask, mask2, _), all_flags = flags.reshape(3, -1), flags.reshape(-1)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    negative, greater, less, logical_and = np.negative, np.greater, np.less, np.logical_and
    maximum, copyto, isfinite, sqrt = np.maximum, np.copyto, np.isfinite, math.sqrt
    largest, smallest, all_true = np.maximum.reduce, np.minimum.reduce, np.logical_and.reduce
    to_float, larger = float, max

    def fields(members=None):
        buf = _buffer(3, rows, n)
        # copying edges to halos wraps each row: columns 0 and n + 1 get its
        # last and first interior columns (both column 1 when n is 1)
        halos = buf[..., ::n + 1]
        edges = buf[..., n:0:1 - n] if n > 1 else np.broadcast_to(buf[..., 1:2], halos.shape)
        if members is not None:
            for view, block in zip(buf[..., 1:-1], params.grid.split(members).values()):
                view[...] = block
            copyto(halos, edges)
        # the buffer, all of it flat; h, u and r as one span and its
        # neighbours; h, u and r; u and r's neighbours; the wrap; u's rows
        return (buf, buf.reshape(-1), *(_span(buf, 0, 3, shift) for shift in (0, 1, -1)),
                *buf.reshape(3, -1), _span(buf, 1, 2, 1), _span(buf, 1, 2, -1),
                halos, edges, list(buf[1, :, 1:-1]))

    def step(src, dst, bumps, t):
        buf, _, hur, hur_p, hur_m, h, u, r, ur_p, ur_m, _, _, _ = src
        new_buf, new_flat, new, _, _, new_h, new_u, new_r, _, _, halos, edges, new_u_rows = dst
        # max|u| + sqrt(g max h) is never below the fastest wave speed, since
        # rounding is monotone; only when it breaks the CFL bound does the
        # exact check run, which decides and words the error
        bound = larger(to_float(largest(u, None)), -to_float(smallest(u, None))) + sqrt(
            gravity * larger(to_float(largest(h, None)), 0.0)
        )
        if not (bound == 0.0 or dt <= dx / bound):
            _check_cfl(buf[0, :, 1:-1], buf[1, :, 1:-1], params)

        # phi = where(h > h_cloud, phi_cloud, gravity * h) + rain_geopotential * r
        multiply(h, g, phi)
        greater(h, h_cloud, mask)
        copyto(phi, phi_cloud, where=mask)
        multiply(r, rain_geopotential, dphidx)
        add(phi, dphidx, phi)
        multiply(u, h, uh)
        subtract(ur_p, ur_m, grad)
        divide(grad, two_dx, grad)
        subtract(flux_p, flux_m, diff)
        divide(diff, two_dx, diff)
        # diff_f * ((f_p - 2 f + f_m) / dx2) for f = h, u and r, into dst
        multiply(hur, two, new)
        subtract(hur_p, new, new)
        add(new, hur_m, new)
        divide(new, dx2, new)
        multiply(new_h, diff_h, new_h)
        multiply(new_u, diff_u, new_u)
        multiply(new_r, diff_r, new_r)

        # u: -u * dudx - dphidx, plus the diffusion
        negative(u, neg_u)
        multiply(neg_u, dudx, a)
        subtract(a, dphidx, a)
        add(new_u, a, new_u)
        # h: -duhdx plus the diffusion
        subtract(new_h, duhdx, new_h)
        # production = where((h > h_rain) & (dudx < 0), -beta_rain * dudx, 0)
        greater(h, h_rain, mask)
        less(dudx, zero, mask2)
        logical_and(mask, mask2, mask)
        clear_production(0.0)
        multiply(dudx, neg_beta_rain, production, where=mask)
        # r: -u * drdx plus the diffusion, - alpha_rain * r + production
        multiply(neg_u, drdx, a)
        add(new_r, a, new_r)
        multiply(r, alpha_rain, a)
        subtract(new_r, a, new_r)
        add(new_r, production, new_r)
        # f_new = f + dt * tendency, and r_new clipped at 0
        multiply(new, step_dt, new)
        add(hur, new, new)
        maximum(new_r, zero, out=new_r)

        # one bump at a time, in arrival order, as np.add.at adds them;
        # np.add.at gives the same bits but is slower (2-core Xeon, numpy
        # 2.4): 9.1 against 2.7 us at 1 row, 255 against 62 us at 50 rows
        for row, bump in bumps:
            add(new_u_rows[row], bump, new_u_rows[row])
        copyto(halos, edges)
        if not all_true(isfinite(new_flat, all_flags), None):
            _check_finite(*new_buf[..., 1:-1], t)

    return step, fields


def advance_ensembles(ensembles, params, n_steps, rngs):
    """Advance several (k, 3n) ensemble arrays n_steps in lock-step.

    Member i of every ensemble uses rngs[i]. The plumes of a step are drawn
    and evaluated once (_plume_steps, a chunk of steps ahead); each live
    ensemble then takes the step and adds them one bump at a time in arrival
    order, so every trajectory is bitwise the one it takes when advanced
    alone with its own generators of the same streams. Every generator is
    left where per-step draws leave it, also on an error: after the plumes
    of each step that some ensemble started. Returns a list with one entry
    per ensemble: the new (k, 3n) array, or the CflViolation or
    NumericalBlowup that stopped it; the other ensembles carry on.

    Every array of the integration is made here, once: one (3, rows, n + 2)
    field buffer per ensemble and one spare. An ensemble's step reads its
    buffer and writes the spare, which becomes its buffer, while the one it
    read becomes the spare of the next. The step's work buffers are shared
    by all (_bind_step).
    """
    grid = params.grid
    n = grid.n_points
    rows = len(rngs)
    step, fields = _bind_step(params, rows, n)
    # each ensemble's fields, or the failure that stopped it; the inputs are
    # copied in, so they are never written
    states = []
    for members in ensembles:
        members = np.asarray(members, dtype=float)
        if members.shape[-1] != grid.dim or not rows or rows != len(members):
            raise ValueError("members/rngs inconsistent with the model geometry")
        states.append(fields(members))
    spare = fields()
    live = list(range(len(states)))
    dt = params.dt_s
    t = 0.0
    # a field that overflows or goes NaN is reported by _check_finite as a
    # NumericalBlowup; numpy's warnings on the way there would only repeat it
    with (np.errstate(over="ignore", invalid="ignore", divide="ignore"),
          closing(_plume_steps(params, rngs, n_steps if live else 0)) as plumes):
        for bumps in plumes:
            t += dt
            for j in live:
                try:
                    step(states[j], spare, bumps, t)
                except (CflViolation, NumericalBlowup) as exc:
                    states[j] = exc
                    # the loop goes on over the list it started with
                    live = [i for i in live if i != j]
                else:
                    states[j], spare = spare, states[j]
            # the step's bumps go before the next chunk's are made
            bumps = None
            if not live:
                break
    # unpack each ensemble's fields into its output, releasing them as it goes
    for j in live:
        buf = states[j][0]
        states[j] = out = np.empty((rows, grid.dim))
        for block, view in zip(grid.split(out).values(), buf[..., 1:-1]):
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
    fields = params.grid.split(x)
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
    grid = Grid(n)
    cols = grid.split(np.arange(grid.dim))
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
    fields = Grid(len(x) // len(FIELDS)).split(x)
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
    for block, column in zip(Grid(len(rows)).split(x).values(), rows[:, 1:].T):
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
    labels = np.unique(data[:, 0])
    if not np.array_equal(labels, np.arange(labels.size)):
        raise InputError(path, "member labels must be 0..k-1")
    members = [_state_of(path, data[data[:, 0] == i, 1:]) for i in labels]
    if len({x.size for x in members}) != 1:
        raise InputError(path, "members have different grid sizes")
    return np.array(members)
