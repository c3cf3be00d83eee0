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
wind only where the observed rain reaches the rain threshold. It returns
them as the GaussObs every analysis reads.

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

The step is compiled C where a C compiler works: enkpf/_step.c, built and
loaded by enkpf.ckernel on first use (in a run, by the warm start, in the
parent before a pool forks), and checked against the numpy step on a
fixed state before it is used (_agrees). It makes the numpy step's
operations per element in their order, so the bits are the same, and
reports the new extremes of u and h and whether a value is not finite;
the CFL and finite checks that word the errors stay here. Elsewhere, or
with ENKPF_STEP=numpy, the numpy step runs (_bind_numpy_step): its ufuncs
make contiguous passes over whole fields, halos included; f[i+1] and
f[i-1] are such a span shifted by one point (_span). STEP tells which step
this process runs, "c" or "numpy".

The plumes come from one generator, _plume_steps, and stay in numpy, whose
exp the compiled step does not reproduce. Each row draws its own per block
of four steps (_plume_block): rng.poisson(lam, 4) for the steps' counts,
then rng.random(2 * total), whose first total doubles U place the centers
at L * U and whose others are the sign draws. A row draws its blocks from
the first step of each call, and a block that runs past the last step is
dropped, so a member's trajectory does not depend on the rows or ensembles
advanced with it. _plume_steps draws a chunk of whole blocks ahead, about
256 plumes, and evaluates their bumps in passes of about as many, so
memory does not grow with the steps or the plume rate; exp skips the
arguments below -708, whose results are subnormal or zero, where numpy's
exp is slow. Trajectories and generators are bitwise those of
tests/oracles.py (roll_advance, plume_draws). On a 2-core Xeon (gcc 12,
numpy 2.4, AVX-512) a step from the warm state, plumes included, took
about 12 us at 1 row and 0.43 ms at 50 rows with the compiled step,
against 29 us and 0.60 ms with the numpy step (scripts/step_bench.py,
BENCH_ckernel.json).
"""

import bisect
import csv
import ctypes
import dataclasses
import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from enkpf import ckernel
from enkpf.errors import CflViolation, InputError, NumericalBlowup
from enkpf.grid import FIELDS, Grid
from enkpf.obs import GaussObs

# The most model steps one span may take: 10**7 steps are about 579 days at
# the default dt_s = 5, some 190 times the lf run. A longer span is a typo,
# not an experiment, and would run for days before failing.
MAX_STEPS = 10**7


# the sign each float key of ModelParams must have; the others may have either
_SIGNS = {
    **dict.fromkeys(("gravity", "h_cloud", "h_rain", "plume_width_m", "dt_s"), "positive"),
    **dict.fromkeys(("alpha_rain", "beta_rain", "diff_h", "diff_u", "diff_r", "plume_rate",
                     "plume_amplitude", "sigma_r", "sigma_u", "warm_start_days"), "nonnegative"),
}


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
        # each float key by name: its sign, which NaN fails, then finite,
        # which inf fails, and NaN in a key of either sign, where it would
        # read every point dry or blow up the warm start
        for key in (f.name for f in dataclasses.fields(self) if f.name != "grid"):
            value, sign = getattr(self, key), _SIGNS.get(key)
            if sign == "positive" and not value > 0 or sign == "nonnegative" and not value >= 0:
                raise ValueError(f"{key} must be {sign}")
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite")
        if not self.h_rain > self.h_cloud:
            raise ValueError("need h_rain > h_cloud")
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


# A row draws its plumes a block of _BLOCK_STEPS steps at a time, and a
# chunk of whole blocks, about _CHUNK_PLUMES plumes and at least one block,
# is drawn and evaluated ahead. 4 divides the hf and lf cycles (60 and 360
# steps of the default dt_s) and the 34,560-step warm start, so no draws
# are discarded there. At the defaults (300 points, one plume per row and
# step) a 1-row chunk is 256 steps with 600 KB of bumps, a 50-row chunk one
# block of 200 plumes; at near-zero rates a chunk is at most 256 steps.
_BLOCK_STEPS = 4
_CHUNK_PLUMES = 256


def _plume_block(rng, lam, length):
    """One row's plumes over its next _BLOCK_STEPS steps: the steps' counts,
    and the centers and sign draws of their plumes in arrival order.

    The draws are rng.poisson(lam, _BLOCK_STEPS), then rng.random(2 * total):
    the first total doubles U place the centers at length * U, the others
    are the sign draws.
    """
    counts = rng.poisson(lam, _BLOCK_STEPS)
    # summed as a list: counts.sum() takes longer than both draws
    total = sum(counts.tolist())
    draws = rng.random(2 * total)
    return counts, length * draws[:total], draws[total:]


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
    # below -708 exp is under 3.3e-308, then subnormal and +0.0, and numpy's
    # exp is slow there (108 ns an argument between -745 and -708, 15 ns at
    # -800, 1 ns at -1; AVX-512, numpy 2.4); such a tail moves nothing, so
    # the arguments below -708 are skipped and set to +0.0
    np.greater_equal(out, -708.0, mask)
    np.exp(out, out, where=mask)
    np.logical_not(mask, mask)
    np.copyto(out, 0.0, where=mask)
    # symmetric signs keep the net momentum input zero in expectation
    amplitude = params.plume_amplitude
    np.multiply(np.where(sign_draws < 0.5, -amplitude, amplitude)[:, None], out, out)
    return out


def _plume_steps(params, rngs, n_steps):
    """Yield each of n_steps steps' plume bumps, in arrival order: the rows
    the bumps go to, an (nb,) intp array; the (nb, n) bumps; and the
    addresses of the two, for the compiled step.

    Each row draws its plumes block by block from the first step
    (_plume_block), so they do not depend on the other rows; a block that
    runs past n_steps is drawn whole, and its plumes of the later steps are
    dropped. A chunk's blocks are drawn at once, and the bumps of its
    plumes evaluated (_bumps) in passes of whole steps and about
    _CHUNK_PLUMES plumes, so memory stays bounded at high plume rates. A
    step's plumes come in arrival order: the rows in turn, each row's
    plumes as drawn, and its rows and bumps are contiguous slices of the
    pass's.
    """
    lam, length = params.plumes_per_step, params.grid.domain_m
    blocks = max(1, int(_CHUNK_PLUMES / (_BLOCK_STEPS * max(lam * len(rngs), 1.0))))
    xg = np.arange(params.grid.n_points) * params.grid.spacing_m
    row_bytes = xg.nbytes
    for done in range(0, n_steps, blocks * _BLOCK_STEPS):
        steps = min(blocks * _BLOCK_STEPS, n_steps - done)
        drawn = [_plume_block(rng, lam, length)
                 for rng in rngs for _ in range(-(-steps // _BLOCK_STEPS))]
        counts = np.concatenate([block[0] for block in drawn]).reshape(len(rngs), -1)
        # each plume's row, and the order that sorts the plumes by step,
        # keeping the rows' order within a step, up to the last step yielded;
        # bounds[s] is the number of plumes before step s
        rows = np.repeat(np.arange(len(rngs), dtype=np.intp), counts.sum(axis=1))
        bounds = [0, *np.cumsum(counts[:, :steps].sum(axis=0)).tolist()]
        order = np.argsort(np.repeat(np.tile(np.arange(counts.shape[1]), len(rngs)),
                                     counts.ravel()), kind="stable")[:bounds[-1]]
        rows = rows[order]
        centers = np.concatenate([block[1] for block in drawn])[order]
        sign_draws = np.concatenate([block[2] for block in drawn])[order]
        first = 0
        while first < steps:
            # a pass ends with the first step that brings it to _CHUNK_PLUMES
            stop = min(bisect.bisect_left(bounds, bounds[first] + _CHUNK_PLUMES, first + 1), steps)
            start = bounds[first]
            bumps = _bumps(params, xg, centers[start:bounds[stop]], sign_draws[start:bounds[stop]])
            rows_at, bumps_at = rows.ctypes.data, bumps.ctypes.data
            for lo, hi in zip(bounds[first:stop], bounds[first + 1:stop + 1]):
                yield (rows[lo:hi], bumps[lo - start:hi - start],
                       rows_at + lo * rows.itemsize, bumps_at + (lo - start) * row_bytes)
            # the pass's bumps go before the next pass's are made
            first, bumps = stop, None


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


def _wrap_views(buf):
    """The halo columns of a _buffer and the edge columns whose values they
    take: copying edges to halos wraps each row. Columns 0 and n + 1 get the
    row's last and first interior columns (both column 1 when n is 1)."""
    n = buf.shape[-1] - 2
    halos = buf[..., ::n + 1]
    return halos, buf[..., n:0:1 - n] if n > 1 else np.broadcast_to(buf[..., 1:2], halos.shape)


def _fields_buffer(params, rows, members):
    """A new (3, rows, n + 2) _buffer of the (rows, 3n) members' h, u and r,
    wrapped; unwritten when members is None."""
    buf = _buffer(3, rows, params.grid.n_points)
    if members is not None:
        for view, block in zip(buf[..., 1:-1], params.grid.split(members).values()):
            view[...] = block
        np.copyto(*_wrap_views(buf))
    return buf


def _bind_numpy_step(params, rows, n):
    """The model step of one integration in numpy, with its constants, work
    buffers and ufuncs bound once, so that a step looks nothing up.

    Returns step and fields. fields(members) packs the (rows, 3n) members
    into a new (3, rows, n + 2) buffer of h, u and r and wraps it (fields()
    leaves it unwritten); it returns the buffer and the views a step takes.
    step(src, dst, bumps, t) advances the fields src into dst: the explicit
    dynamics, each of a _plume_steps step's bumps added to its row of dst's
    u in turn, as np.add.at adds them, dst's wrap, and the finite check,
    whose NumericalBlowup names the time t.

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
        buf = _fields_buffer(params, rows, members)
        # the buffer, all of it flat; h, u and r as one span and its
        # neighbours; h, u and r; u and r's neighbours; the wrap; u's rows
        return (buf, buf.reshape(-1), *(_span(buf, 0, 3, shift) for shift in (0, 1, -1)),
                *buf.reshape(3, -1), _span(buf, 1, 2, 1), _span(buf, 1, 2, -1),
                *_wrap_views(buf), list(buf[1, :, 1:-1]))

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
        bump_rows, bump_values = bumps[:2]
        for row, bump in zip(bump_rows.tolist(), bump_values):
            add(new_u_rows[row], bump, new_u_rows[row])
        copyto(halos, edges)
        if not all_true(isfinite(new_flat, all_flags), None):
            _check_finite(*new_buf[..., 1:-1], t)

    return step, fields


def _bind_c_step(params, rows, n, kernel):
    """_bind_numpy_step's step and fields for the compiled step, kernel
    (_step.c, loaded by enkpf.ckernel), which runs the same operations in
    the same order and so gives the same bits.

    fields returns the buffer, its address, and its stats: max u, min u and
    max h, which the kernel writes for each buffer it makes and from which
    the next step's CFL bound is made. Each buffer's address is taken once,
    here, and a step passes plain ints. Errors are raised as the numpy step
    raises them, by _check_cfl and _check_finite on the buffers.
    """
    dx, dt, gravity = params.grid.spacing_m, params.dt_s, params.gravity
    # the kernel's constants, in _step.c's order, and its work space for a
    # row's phi and u*h; the partial keeps both alive
    constants = (ctypes.c_double * 13)(
        dt, 2.0 * dx, dx * dx, gravity, params.h_cloud, params.h_rain, params.phi_cloud,
        params.rain_geopotential, params.diff_h, params.diff_u, params.diff_r,
        params.alpha_rain, -params.beta_rain)
    run = partial(kernel, constants, rows, n, (ctypes.c_double * (2 * n + 4))())
    sqrt, larger = math.sqrt, max

    def fields(members=None):
        buf = _fields_buffer(params, rows, members)
        stats = (ctypes.c_double * 3)()
        if members is not None:
            # NaN propagates, as in the numpy step's bound
            stats[:] = (float(np.max(buf[1])), float(np.min(buf[1])), float(np.max(buf[0])))
        return buf, buf.ctypes.data, stats

    def step(src, dst, bumps, t):
        buf, at, stats = src
        new_buf, new_at, new_stats = dst
        # as in the numpy step: the exact check runs where the bound fails
        bound = larger(stats[0], -stats[1]) + sqrt(gravity * larger(stats[2], 0.0))
        if not (bound == 0.0 or dt <= dx / bound):
            _check_cfl(buf[0, :, 1:-1], buf[1, :, 1:-1], params)
        bump_rows, _, rows_at, bumps_at = bumps
        if run(at, new_at, rows_at, bumps_at, len(bump_rows), new_stats):
            _check_finite(*new_buf[..., 1:-1], t)

    return step, fields


def _agrees(kernel):
    """Whether a step of kernel gives the numpy step's bytes, and the stats
    of its result, on a fixed wet state of two rows of 7 points with three
    bumps."""
    params, rows = ModelParams(grid=Grid(7)), 2
    rng = np.random.default_rng(0)
    members = np.concatenate([params.h_rest + rng.normal(0.0, 0.2, (rows, 7)),
                              rng.normal(0.0, 1.0, (rows, 7)),
                              rng.exponential(0.02, (rows, 7))], axis=1)
    bump_rows, bumps = np.array([1, 0, 1], dtype=np.intp), rng.normal(0.0, 0.01, (3, 7))
    plumes = (bump_rows, bumps, bump_rows.ctypes.data, bumps.ctypes.data)
    out = []
    for step, fields in (_bind_numpy_step(params, rows, 7), _bind_c_step(params, rows, 7, kernel)):
        dst = fields()
        step(fields(members), dst, plumes, params.dt_s)
        out.append(dst)
    (numpy_buf, *_), (buf, _, stats) = out
    return (buf.tobytes() == numpy_buf.tobytes()
            and list(stats) == [buf[1].max(), buf[1].min(), buf[0].max()])


@lru_cache(maxsize=None)
def _kernel():
    """The compiled step, _step.c's enkpf_step, or None where the numpy step
    runs: where ENKPF_STEP=numpy, or the kernel cannot be built or loaded
    or does not give the numpy step's bits (_agrees). Decided on first use,
    so in the parent of a pool before it forks."""
    if os.environ.get("ENKPF_STEP") == "numpy":
        return None
    library = ckernel.load()
    if library is None:
        return None
    # enkpf_step(constants, rows, n, work, src, dst, bump_rows, bumps, n_bumps, stats)
    kernel = library.enkpf_step
    kernel.restype, kernel.argtypes = ctypes.c_int, (
        ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p)
    return kernel if _agrees(kernel) else None


def __getattr__(name):
    # STEP: "c" or "numpy", the step this process runs
    if name == "STEP":
        return "numpy" if _kernel() is None else "c"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def advance_ensembles(ensembles, params, n_steps, rngs):
    """Advance several (k, 3n) ensemble arrays n_steps in lock-step.

    Member i of every ensemble uses rngs[i]. The plumes of a step are drawn
    and evaluated once (_plume_steps, a chunk of steps ahead); each live
    ensemble then takes the step and adds them one bump at a time in arrival
    order. A row's plumes are its generator's alone, so every trajectory is
    bitwise the one it takes when advanced alone, or with other rows, with
    its own generator of the same stream. Returns a list with one entry per
    ensemble: the new (k, 3n) array, or the CflViolation or NumericalBlowup
    that stopped it; the other ensembles carry on. Where every ensemble
    stops early, the generators are left somewhere within the chunk drawn.

    Every array of the integration is made here, once: one (3, rows, n + 2)
    field buffer per ensemble and one spare. An ensemble's step reads its
    buffer and writes the spare, which becomes its buffer, while the one it
    read becomes the spare of the next. The numpy step's work buffers are
    shared by all (_bind_numpy_step); the compiled step needs only room
    for one row's phi and u*h.
    """
    grid = params.grid
    n = grid.n_points
    rows = len(rngs)
    kernel = _kernel()
    step, fields = (_bind_numpy_step(params, rows, n) if kernel is None
                    else _bind_c_step(params, rows, n, kernel))
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for bumps in _plume_steps(params, rngs, n_steps if live else 0):
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


def gen_observations(x, params, r_r, r_u, rng):
    """Radar-like observations of the (3n,) true state x, as the GaussObs
    every analysis reads: skewed, truncated rain at all n points, then wind
    at rainy points, with assumed error variances r_r and r_u.

    Per point: y_r = 0 when r <= r_c or when the noise pushes the square-root
    amplitude negative; otherwise y_r = (sqrt(r - r_c) + eps/2)^2 with
    eps ~ N(0, sigma_r^2). Wind is observed with N(0, sigma_u^2) noise exactly
    where the *observed* rain reaches r_c. The rain values (zeros included)
    come first, observing the rain block; the wind values observe the wind
    block. NumericalBlowup names the first observation that is not finite.
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
    cols = params.grid.split(np.arange(params.grid.dim))
    return GaussObs(np.concatenate([y_r, y_u]), np.concatenate([cols["r"], cols["u"][wet]]),
                    np.concatenate([np.full(n, r_r), np.full(wet.size, r_u)]))


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
