"""Reference implementations, kept as test oracles for the production code,
and the stand-ins the tests substitute for its gamma search and resampling.

The package computes the EnKPF through one path: search_gamma for gamma and
the mixture weights at it, and _enkpf_rows_update for both update stages.
The functions here evaluate the same quantities the textbook way, forming
the stage-1 gain, the factored spread matrix Q and the weight covariance
HQH' + R/(1-gamma) explicitly, so the tests can compare the two.
enkpf_perturbations draws through production's own stage-2 gain
(_enkpf_rows_machinery), so a covariance check of its draws checks that
gain.

enkpf_update is the global EnKPF at a fixed gamma from p_cols = P[:, H]
(d, m) of any P, tapered or not, as the package's global filters first ran:
production's set-up (_setup), the weights at gamma (gamma_weights) and
production's resampling and rows update (systematic_indices,
_enkpf_rows_update) on all d rows, with d right-hand sides in every solve.
The package's enkf_update and adaptive_gamma take only HPH' and solve in
ensemble coordinates on the members' own P; fed the untapered P[:, H] of the
same members, this oracle must give their weights and indices bit for bit
and their analyses up to rounding, and it is the global update of the tests
that need an arbitrary or a tapered P. gamma_weights gives the mixture
weights at a fixed gamma from production's checks and weight formulas
(_checked_pf_log_likelihood, _mixture_weights).

kalman_gain is the plain EnKF gain on the full P; the package forms it only
on the rows an update touches (global_filters._enkf_rows), or for the
members' anomalies (global_filters._global_update). stochastic_enkf is the
textbook stochastic EnKF with that gain on a dense P, drawing its
perturbations first from rng as every EnKPF does: the EnKPF at gamma = 1 on
any P must equal it bit for bit. crps_empirical is
the CRPS of one ensemble at one point; the package only computes its mean
over a field (scoring.field_crps). distance_m is the circular distance in
meters between grid points, which the package forms only in its local plan
(local_filters.local_plan). window_size counts the grid points within a
taper length scale l of a point, the sites that one observation reaches,
and block_w_cols gives the columns a block update leaves alone:
the complement of u and v, which the package never forms.

taper_matrix and tapered_covariance build the full d x d taper and tapered
covariance as sparse matrices, and taper_block cuts a dense block out of the
taper; the package only ever forms dense blocks of them (tapered_cov_block),
from weights gathered by its local plan. rank_histogram, scores_csv_text and read_scores_csv
are the small scoring helpers the tests read outputs back with.

roll_advance is the model step as first written, with np.roll stencils and
the plume forcing in its plain form: each step's plumes of all rows added
at once by np.add.at; sweq.advance_members must stay bitwise equal to it.
plume_draws makes one row's plume draws, a block of steps at a time, as
roll_advance makes them; the package draws a chunk of blocks at once for
every row and must take the same events from each generator.

permute_fixed_points is the block filter's fixed-point permutation as first
written; the package gets it as resampling.reorder_to_match against the
identity, which must stay equal to it. reorder_to_match_reference is
reorder_to_match before it returned prev_idx for a permutation of it, and
systematic_indices_reference is systematic_indices as first written, one
binary search of the pointers in the cumulative weights.

site_loop is the site loop of the LEnKF (ess_lo None: gamma = 1 at every
site) and of the NAIVE-LEnKPF as first written: one _local_enkpf per site in
site order, recording the gamma and ESS it returns, the site's slices cut
with np.ix_, and the FilterError naming the site. The package's
lenkf_update runs one EnKF rows update per site, and its
naive_lenkpf_update screens every site at gamma = 0 at once, sweeps, and
gathers; each must equal it byte for byte, diagnostics and errors included.

EagerGammaWeightSolver is the package's weight solver as first written, a
class that builds the eigendecomposition in its constructor and takes every
gamma's weights, gamma = 0 included, from it; search_gamma_reference is the
gamma search as first written, which asks such a solver for the ESS at
gamma = 0 and at each midpoint and returns gamma alone. The package's
search_gamma must reach the same gamma and return, at 0 < gamma < 1, the
solver's weights at it byte for byte; at gamma = 0 it returns the
particle-filter weights, equal to the solver's up to rounding.

fixed_gamma and identity_resample stand in for search_gamma and for the
resampling call: a test monkeypatches fixed_gamma, which returns its gamma
with the weights at it (gamma_weights), into local_filters, and
identity_resample in place of systematic_indices in global_filters or in
local_filters, to force gamma or to keep every member in place, and still
runs the production update. Like the package, they and
enkpf_weights pass weights and resampling indices as plain (k,) arrays.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from enkpf import global_filters
from enkpf.core import _chol
from enkpf.errors import FilterError
from enkpf.global_filters import (
    _checked_pf_log_likelihood,
    _enkpf_rows_machinery,
    _enkpf_rows_update,
    _eps_draws,
    _mixture_weights,
    _setup,
)
from enkpf.grid import FIELDS
from enkpf.local_filters import _local_enkpf
from enkpf.resampling import ess, weights_from_log
from enkpf.scoring import ScoreRecord, rank_of_truth, write_scores_csv
from enkpf.sweq import _BLOCK_STEPS as PLUME_BLOCK
from enkpf.taper import gaspari_cohn, tapered_cov_block


def kalman_gain(cov, h_rows, r_diag):
    """Kalman gain K = P H'(H P H' + R)^{-1} for a selector H and diagonal R.

    cov is the dense (d, d) P; h_rows[j] is the state column observed
    by obs j; r_diag holds the m observation error variances. Returns a
    (d, m) array. Raises FilterError if the innovation covariance is not
    positive definite.
    """
    h_rows = np.asarray(h_rows)
    r_diag = np.asarray(r_diag, dtype=float)
    m = h_rows.shape[0]
    if r_diag.shape != (m,):
        raise FilterError("r_diag length must match number of observations")
    if np.any(r_diag <= 0):
        raise FilterError("observation error variances must be positive")
    p_cols = np.asarray(cov, dtype=float)[:, h_rows]
    factor = _chol(p_cols[h_rows] + np.diag(r_diag), "innovation covariance")
    return sla.cho_solve((factor, True), p_cols.T).T


def stochastic_enkf(ens, obs, cov, rng):
    """x_i + K (y - H x_i + sqrt(r) eta_i) for a dense (d, d) P, with K
    kalman_gain and eta the (k, m) normals rng draws first."""
    x = np.asarray(ens, dtype=float)
    eta = rng.standard_normal((x.shape[0], obs.m))
    perturbed = obs.y - obs.project(x) + eta * np.sqrt(obs.r_diag)
    return x + perturbed @ kalman_gain(cov, obs.h_rows, obs.r_diag).T


def crps_empirical(values, truth):
    """CRPS of an empirical ensemble forecast against a scalar truth."""
    x = np.atleast_1d(np.asarray(values, dtype=float))
    if x.size == 0:
        raise ValueError("empty ensemble")
    if x.ndim != 1 or not np.isfinite(x).all() or not np.isfinite(truth):
        raise ValueError("values must be a finite 1d array and truth finite")
    k = x.size
    term1 = np.mean(np.abs(x - truth))
    term2 = np.sum(np.abs(x[:, None] - x[None, :])) / (2.0 * k * k)
    return float(term1 - term2)


def distance_m(grid, i, j):
    """Circular distance in meters between grid points i and j (arrays ok)."""
    return grid.ring_offset(i, j) * grid.spacing_m


def window_size(l_m, grid):
    """Number of grid points within the length scale l_m of a point (2l/dx + 1
    at defaults)."""
    pts = np.arange(grid.n_points)
    return int(np.count_nonzero(distance_m(grid, pts, 0) <= l_m))


def block_w_cols(block, grid):
    """The state columns outside u and v of an ObservationBlock, ascending."""
    return np.setdiff1d(np.arange(grid.dim), np.concatenate([block.u, block.v]))


def _roll_dx(f, dx):
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)


def _roll_laplacian(f, dx):
    return (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / (dx * dx)


def _roll_plumes(u_new, params, plumes):
    """Add one step's plumes to u_new; plumes holds each row's (centers, sign draws)."""
    rows = np.repeat(np.arange(len(plumes)), [centers.size for centers, _ in plumes])
    if not rows.size:
        return
    centers = np.concatenate([centers for centers, _ in plumes])
    signs = np.where(np.concatenate([draws for _, draws in plumes]) < 0.5, -1.0, 1.0)
    length = params.grid.domain_m
    xg = np.arange(params.grid.n_points) * params.grid.spacing_m
    delta = np.mod(xg[None, :] - centers[:, None] + 0.5 * length, length) - 0.5 * length
    w = params.plume_width_m
    arg = -(delta * delta) / (2 * w * w)
    # the tail below exp(-708), subnormal or zero, is taken as +0.0
    bumps = signs[:, None] * params.plume_amplitude * np.where(arg >= -708.0, np.exp(arg), 0.0)
    np.add.at(u_new, rows, bumps)


def plume_draws(rng, lam, length, steps):
    """One row's plume counts, centers and sign draws over `steps` steps.

    The row draws per block of PLUME_BLOCK steps: poisson(lam, PLUME_BLOCK)
    for the counts, then random(2 * total), the centers length * U of the
    first total doubles and the others the sign draws. A last block that
    runs past `steps` is drawn whole, and its later steps' plumes dropped.
    """
    counts, centers, signs = [], [np.empty(0)], [np.empty(0)]
    for _ in range(-(-steps // PLUME_BLOCK)):
        block = rng.poisson(lam, PLUME_BLOCK)
        total = int(block.sum())
        draws = rng.random(2 * total)
        counts += block.tolist()
        centers.append(length * draws[:total])
        signs.append(draws[total:])
    kept = sum(counts[:steps])
    return counts[:steps], np.concatenate(centers)[:kept], np.concatenate(signs)[:kept]


def _per_step(counts, centers, signs):
    """plume_draws' output split into each step's (centers, sign draws)."""
    ends = np.cumsum(counts, dtype=int)
    return [(centers[end - count:end], signs[end - count:end])
            for count, end in zip(counts, ends)]


def roll_advance(members, params, n_steps, rngs):
    """sweq.advance_members without its checks, stepping with np.roll."""
    fields = params.grid.split(np.asarray(members, dtype=float))
    h, u, r = fields["h"].copy(), fields["u"].copy(), fields["r"].copy()
    dx = params.grid.spacing_m
    dt = params.dt_s
    lam, length = params.plumes_per_step, params.grid.domain_m
    for step in range(n_steps):
        if step % PLUME_BLOCK == 0:
            block = [_per_step(*plume_draws(rng, lam, length, min(PLUME_BLOCK, n_steps - step)))
                     for rng in rngs]
        phi = np.where(h > params.h_cloud, params.phi_cloud, params.gravity * h)
        phi = phi + params.rain_geopotential * r
        dudx = _roll_dx(u, dx)
        u_new = u + dt * (-u * dudx - _roll_dx(phi, dx) + params.diff_u * _roll_laplacian(u, dx))
        _roll_plumes(u_new, params, [row[step % PLUME_BLOCK] for row in block])
        h_new = h + dt * (-_roll_dx(u * h, dx) + params.diff_h * _roll_laplacian(h, dx))
        production = np.where((h > params.h_rain) & (dudx < 0.0), -params.beta_rain * dudx, 0.0)
        r_new = r + dt * (
            -u * _roll_dx(r, dx)
            + params.diff_r * _roll_laplacian(r, dx)
            - params.alpha_rain * r
            + production
        )
        np.maximum(r_new, 0.0, out=r_new)
        h, u, r = h_new, u_new, r_new
    out = np.empty_like(np.asarray(members, dtype=float))
    fields = params.grid.split(out)
    fields["h"][...], fields["u"][...], fields["r"][...] = h, u, r
    return out


class EagerGammaWeightSolver:
    """EnKPF mixture weights at any gamma from one eigendecomposition of
    R^{-1/2} S R^{-1/2}, made in the constructor (see
    global_filters._mixture_weights)."""

    def __init__(self, s_oo, r_diag, innov0):
        r_diag = np.asarray(r_diag, dtype=float)
        innov0 = np.atleast_2d(np.asarray(innov0, dtype=float))
        self.k = innov0.shape[0]
        m = r_diag.shape[0]
        if m == 0:
            self.lam = np.zeros(0)
            self.z2 = np.zeros((self.k, 0))
            return
        inv_sqrt_r = 1.0 / np.sqrt(r_diag)
        with np.errstate(over="ignore", invalid="ignore"):
            s_white = inv_sqrt_r[:, None] * np.asarray(s_oo, dtype=float) * inv_sqrt_r
            if not np.isfinite(s_white).all():
                raise FilterError("whitened innovation covariance is not finite")
            lam, u = sla.eigh(s_white)
            self.z2 = ((innov0 * inv_sqrt_r) @ u) ** 2
        if not math.isfinite(self.z2.max()):  # z2 >= 0, and max propagates NaN
            raise FilterError("whitened innovations are not finite")
        self.lam = np.clip(lam, 0.0, None)

    def log_weights(self, gamma):
        if gamma == 1.0 or self.z2.shape[1] == 0:
            return np.zeros(self.k)
        g_lam = gamma * self.lam
        c = 1.0 / (g_lam * self.lam + (g_lam + 1.0) ** 2 / (1.0 - gamma))
        log_w = -0.5 * (self.z2 @ c)
        return log_w - log_w.max()

    def weights(self, gamma):
        return weights_from_log(self.log_weights(gamma))

    def ess(self, gamma):
        return ess(self.weights(gamma))


def search_gamma_reference(solver, lo_frac, k):
    """Smallest gamma with solver.ess(gamma) >= lo_frac * k, by 10-step
    bisection on [0, 1] after a test of gamma = 0."""
    target = lo_frac * k
    if solver.ess(0.0) >= target:
        return 0.0
    lo_g, hi_g = 0.0, 1.0
    for _ in range(10):
        mid = 0.5 * (lo_g + hi_g)
        if solver.ess(mid) >= target:
            hi_g = mid
        else:
            lo_g = mid
    return hi_g


def gamma_weights(s_oo, r_diag, innov0, gamma):
    """The EnKPF mixture weights at a fixed gamma: uniform at gamma = 1, else
    checked (_checked_pf_log_likelihood) and, at gamma = 0, where c_j = 1 and
    U is orthogonal, the particle-filter weights, made without an eigh."""
    k = innov0.shape[0]
    if gamma == 1.0:
        return np.full(k, 1.0 / k)
    log_pf, s_white = _checked_pf_log_likelihood(s_oo, r_diag, innov0)
    if gamma == 0.0:
        return weights_from_log(log_pf)
    return _mixture_weights(s_white, innov0, r_diag)(gamma)


def enkpf_update(ens, obs, p_cols, gamma, rng):
    """Full EnKPF analysis for a fixed gamma, from p_cols = P[:, H] (d, m).

    Returns the arrays (analysis (k, d), weights alpha (k,), indices (k,)). At
    gamma = 1 the particle stage is skipped: the update is the EnKF rows
    update, the weights are uniform and the indices are the identity. For
    gamma < 1 the indices are global_filters.systematic_indices of the
    mixture weights for the drawn uniform u, looked up at call time so that
    a test may replace it.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    x, innov0, eta, er, u = _setup(ens, obs, rng)
    want = (x.shape[1], obs.m)
    if np.shape(p_cols) != want:
        raise ValueError(f"p_cols must be P[:, H] of shape {want}, not {np.shape(p_cols)}")
    s_oo = p_cols[obs.h_rows]
    alpha = gamma_weights(s_oo, obs.r_diag, innov0, gamma)
    idx = np.arange(x.shape[0]) if gamma == 1.0 else global_filters.systematic_indices(alpha, u)
    x_a = _enkpf_rows_update(x, innov0, obs.r_diag, p_cols, s_oo, gamma, eta, er, idx)
    return x_a, alpha, idx


def fixed_gamma(gamma):
    """A search_gamma that returns gamma, and the weights at it, whatever the
    weights."""
    return lambda s_oo, r_diag, innov0, lo_frac: (
        gamma, gamma_weights(s_oo, r_diag, innov0, gamma))


def identity_resample(alpha, u):
    """A systematic_indices(alpha, u) that keeps every member in its slot."""
    return np.arange(alpha.shape[0])


def permute_fixed_points(idx):
    """Rearrange an index vector to maximize #{i : I(i) = i}, keeping counts.

    Every member j with N_j >= 1 is placed at its own slot j first (this
    attains the maximum sum_j min(N_j, 1) fixed points); remaining copies
    fill the free slots in ascending order.
    """
    k = idx.shape[0]
    counts = np.bincount(idx, minlength=k)
    out = np.full(k, -1, dtype=np.intp)
    selected = counts > 0
    out[selected] = np.flatnonzero(selected)
    counts[selected] -= 1
    leftovers = np.repeat(np.arange(k, dtype=np.intp), counts)
    out[out < 0] = leftovers
    return out


def reorder_to_match_reference(idx, prev_idx):
    """resampling.reorder_to_match by greedy matching alone."""
    k = idx.shape[0]
    counts = np.bincount(idx, minlength=k)
    out = np.full(k, -1, dtype=np.intp)
    order = np.argsort(prev_idx, kind="stable")
    wanted = prev_idx[order]
    group_start = np.searchsorted(wanted, wanted)
    granted = np.arange(k) - group_start < counts[wanted]
    out[order[granted]] = wanted[granted]
    used = np.bincount(wanted[granted], minlength=k)
    out[out < 0] = np.repeat(np.arange(k, dtype=np.intp), counts - used)
    return out


def systematic_indices_reference(alpha, u):
    """resampling.systematic_indices of one (k,) weight vector by binary search,
    in the sorted cumulative weights clipped at 1 and set to 1 from the last
    positive weight on, of pointers kept below 1."""
    k = alpha.shape[0]
    cum = np.minimum(np.cumsum(alpha), 1.0)
    positive = np.flatnonzero(alpha > 0.0)
    cum[positive[-1] if positive.size else k - 1:] = 1.0
    return np.searchsorted(cum, np.minimum((u + np.arange(k)) / k, np.nextafter(1.0, 0.0)),
                           side="right")


def site_loop(ens, plan, rng, ess_lo=None, diagnostics=None):
    """The LEnKF (ess_lo None) or NAIVE-LEnKPF one site at a time (see the module docstring)."""
    obs = plan.obs
    x, innov0, eta_all, er_all, u_shared = _setup(ens, obs, rng)
    k, d = x.shape
    p_cross = tapered_cov_block(x, np.arange(d), obs.h_rows, plan.w_cross)
    s_full = p_cross[obs.h_rows, :]
    identity = np.arange(k)

    out = x.copy()
    idx = identity
    for g, (cols, size) in enumerate(zip(plan.site_cols, plan.sizes)):
        sel = plan.windows[g, :size]
        if sel.size == 0:
            idx = identity
            continue
        args = (x[:, cols], innov0[:, sel], obs.r_diag[sel], p_cross[np.ix_(cols, sel)],
                s_full[np.ix_(sel, sel)], eta_all[:, sel], er_all[:, sel])
        try:
            if ess_lo is None:  # the local EnKF: gamma = 1, the identity indices
                out[:, cols] = _enkpf_rows_update(*args[:5], 1.0, *args[5:], identity)
                idx = identity
            else:
                out[:, cols], idx, gamma, ess_value = _local_enkpf(*args, ess_lo, u_shared, idx)
                if diagnostics is not None:
                    diagnostics.record(gamma, ess_value)
        except FilterError as exc:
            raise FilterError(f"site {g}: {exc}") from exc
    return out


@dataclass(frozen=True)
class QFactor:
    """Factored spread matrix Q = gamma^{-1} K_gamma R K_gamma'.

    Stored as (k_gamma, r_diag, gamma); supports products Q z and exact draws
    e = gamma^{-1/2} K_gamma (sqrt(r) * eta) with eta standard normal. The
    gamma = 0 limit is Q = 0 (scale stored as 0, no division).
    """

    k_gamma: np.ndarray
    r_diag: np.ndarray
    gamma: float

    @property
    def scale(self):
        return 0.0 if self.gamma == 0.0 else self.gamma**-0.5

    def matvec(self, z):
        if self.gamma == 0.0:
            return np.zeros(self.k_gamma.shape[0])
        w = self.r_diag * (self.k_gamma.T @ z)
        return (self.k_gamma @ w) / self.gamma

    def draw(self, eta_raw):
        """Map (n, m) standard normals to n draws from N(0, Q)."""
        return self.scale * (eta_raw * np.sqrt(self.r_diag)) @ self.k_gamma.T


@dataclass(frozen=True)
class EnkpfIntermediate:
    """First-stage output: centers nu (k, d), factored Q, and gamma."""

    nu: np.ndarray
    q_factor: QFactor
    gamma: float


def enkpf_stage1(ens, obs, P, gamma):
    """Gamma-dampened Kalman stage: nu_i = x_i + K(gamma P)(y - Hx_i).

    Returns the mixture centers and Q = gamma^{-1} K(gamma P) R K(gamma P)'
    in factored form. gamma = 0 is the exact limit nu = x, Q = 0.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    x = np.asarray(ens, dtype=float)
    k, d = x.shape
    obs.check_dim(d)
    m = obs.m
    if m == 0 or gamma == 0.0:
        k_gamma = np.zeros((d, m))
        return EnkpfIntermediate(x.copy(), QFactor(k_gamma, obs.r_diag, gamma), gamma)
    p_cols = P[:, obs.h_rows]
    factor = _chol(gamma * p_cols[obs.h_rows] + np.diag(obs.r_diag),
                   "stage-1 innovation covariance")
    k_gamma = gamma * sla.cho_solve((factor, True), p_cols.T).T
    nu = x + (obs.y - obs.project(x)) @ k_gamma.T
    return EnkpfIntermediate(nu, QFactor(k_gamma, obs.r_diag, gamma), gamma)


def enkpf_weights(inter, obs):
    """Mixture weights alpha_i ~ N(y; H nu_i, HQH' + R/(1-gamma)).

    gamma = 1 returns uniform weights by convention (the 1/(1-gamma) variance
    diverges and the particle stage is skipped).
    """
    k = inter.nu.shape[0]
    if inter.gamma == 1.0 or obs.m == 0:
        return np.full(k, 1.0 / k)
    a = inter.q_factor.k_gamma[obs.h_rows]
    if inter.gamma == 0.0:
        hqh = np.zeros((obs.m, obs.m))
    else:
        hqh = (a * obs.r_diag) @ a.T / inter.gamma
    sigma_w = hqh + np.diag(obs.r_diag / (1.0 - inter.gamma))
    factor = _chol(sigma_w, "weight covariance")
    resid = obs.y - inter.nu[:, obs.h_rows]
    half = sla.cho_solve((factor, True), resid.T)
    log_w = -0.5 * np.sum(resid.T * half, axis=0)
    return weights_from_log(log_w)


def enkpf_perturbations(P, obs, gamma, n_draws, rng):
    """n draws of eps ~ N(0, P^{a,gamma}) without forming the covariance.

    Uses production's gains for the rows of P; eta is drawn before e_R.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("perturbation draws are defined for 0 < gamma < 1")
    p_ro = P[:, obs.h_rows]
    k_ro, a, k2_ro = _enkpf_rows_machinery(obs.r_diag, p_ro, p_ro[obs.h_rows], gamma)
    eta = rng.standard_normal((n_draws, obs.m))
    er = rng.standard_normal((n_draws, obs.m))
    return _eps_draws(k_ro, a, k2_ro, obs.r_diag, gamma, eta, er)


def taper_matrix(grid, l_m):
    """Full d x d taper as a sparse CSR matrix (banded on the ring)."""
    n = grid.n_points
    # Weight depends only on grid offset; build one row of offsets and shift it.
    offsets = np.arange(n)
    w_row = gaspari_cohn(distance_m(grid, offsets, 0), l_m)
    cols_in_support = offsets[w_row > 0.0]
    rows, cols, vals = [], [], []
    for c_block in range(len(FIELDS)):
        for r_block in range(len(FIELDS)):
            for off in cols_in_support:
                i = np.arange(n)
                j = (i + off) % n
                rows.append(r_block * n + i)
                cols.append(c_block * n + j)
                vals.append(np.full(n, w_row[off]))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(grid.dim, grid.dim))


def taper_block(grid, l_m, cols_a, cols_b):
    """Dense (|a|, |b|) block of taper_matrix between two column sets."""
    return taper_matrix(grid, l_m)[np.ix_(cols_a, cols_b)].toarray()


def tapered_covariance(members, grid, l_m):
    """Tapered sample covariance (X'X/(k-1) Schur-multiplied by the taper), sparse.

    members: (k, d) ensemble array. Only entries inside the taper support are
    stored; everything else is exactly zero by construction.
    """
    members = np.asarray(members, dtype=float)
    k = members.shape[0]
    if k < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    w = taper_matrix(grid, l_m).tocoo()
    anoms = members - members.mean(axis=0)
    # Evaluate the sample covariance only at stored taper entries.
    cov_vals = np.einsum("ki,ki->i", anoms[:, w.row], anoms[:, w.col]) / (k - 1)
    out = sp.csr_matrix((cov_vals * w.data, (w.row, w.col)), shape=w.shape)
    return out


def rank_histogram(member_fields, truth_fields, times_s, rng,
                   space_thin=10, time_thin_s=1800.0):
    """Counts of truth ranks over thinned (time, grid point) samples.

    member_fields: (T, k, n); truth_fields: (T, n); times_s: (T,) simulated
    times. Keeps times that are multiples of time_thin_s and every
    space_thin-th grid point. Returns a (k + 1)-vector of counts.
    """
    member_fields = np.asarray(member_fields, dtype=float)
    truth_fields = np.asarray(truth_fields, dtype=float)
    times_s = np.asarray(times_s, dtype=float)
    t_keep = np.flatnonzero(np.mod(np.round(times_s), round(time_thin_s)) == 0)
    if t_keep.size == 0:
        raise ValueError("time thinning removed every sample")
    k = member_fields.shape[1]
    counts = np.zeros(k + 1, dtype=np.int64)
    points = np.arange(0, member_fields.shape[2], space_thin)
    for ti in t_keep:
        for g in points:
            counts[rank_of_truth(member_fields[ti, :, g], truth_fields[ti, g], rng)] += 1
    return counts


def scores_csv_text(records):
    buf = io.StringIO()
    write_scores_csv(records, buf)
    return buf.getvalue()


def read_scores_csv(path):
    """Read scores.csv back into a list of ScoreRecords (relative recomputed)."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(
                ScoreRecord(
                    rep=int(row["rep"]),
                    cycle=int(row["cycle"]),
                    method=row["method"],
                    field=row["field"],
                    crps=float(row["crps"]) if row["crps"] else None,
                    crps_free=float(row["crps_free"]) if row["crps_free"] else None,
                )
            )
    return records
