"""Reference implementations, kept as test oracles for the production code,
and the stand-ins the tests substitute for its gamma search and resampling.

The package computes the EnKPF through one path: GammaWeightSolver for the
mixture weights and _enkpf_rows_update for both update stages. The functions
here evaluate the same quantities the textbook way, forming the stage-1 gain,
the factored spread matrix Q and the weight covariance HQH' + R/(1-gamma)
explicitly, so the tests can compare the two. enkpf_perturbations draws
through production's own stage-2 gain (_enkpf_rows_machinery), so a
covariance check of its draws checks that gain.

kalman_gain is the plain EnKF gain on the full P; the package forms it only
on the rows an update touches (global_filters._enkf_rows). crps_empirical is
the CRPS of one ensemble at one point; the package only computes its mean
over a field (scoring.field_crps). window_size counts the grid points a
LocalWindowSpec covers, and block_w_cols gives the columns a block update
leaves alone: the complement of u and v, which the package never forms.

taper_matrix and tapered_covariance build the full d x d taper and tapered
covariance as sparse matrices; the package only ever forms dense blocks of
them (tapered_cov_block). rank_histogram, scores_csv_text and read_scores_csv
are the small scoring helpers the tests read outputs back with.

roll_advance is the model step as first written, with np.roll stencils and
the plume forcing in its original form; sweq.advance_members must stay
bitwise equal to it.

permute_fixed_points is the block filter's fixed-point permutation as first
written; the package gets it as resampling.reorder_to_match against the
identity, which must stay equal to it.

fixed_gamma and identity_resample stand in for search_gamma and for the
resampling call: a test monkeypatches fixed_gamma into local_filters, and
identity_resample in place of balanced_resample in global_filters or of
systematic_indices in local_filters, to force gamma or to keep every member
in place, and still runs the production update. Like the package, they and
enkpf_weights pass weights and resampling indices as plain (k,) arrays.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from enkpf.core import _chol, _p_slices
from enkpf.errors import FilterError
from enkpf.global_filters import _enkpf_rows_machinery, _eps_draws
from enkpf.grid import FIELDS
from enkpf.resampling import weights_from_log
from enkpf.scoring import ScoreRecord, rank_of_truth, write_scores_csv
from enkpf.taper import gaspari_cohn


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
    p_cols, s_oo = _p_slices(cov, h_rows)
    factor = _chol(s_oo + np.diag(r_diag), "innovation covariance")
    return sla.cho_solve(factor, p_cols.T).T


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


def window_size(window, geometry):
    """Number of grid points within window.radius_m of a point (2*radius/dx + 1
    at defaults)."""
    pts = np.arange(geometry.n_points)
    return int(np.count_nonzero(geometry.distance_m(pts, 0) <= window.radius_m))


def block_w_cols(block, layout):
    """The state columns outside u and v of an ObservationBlock, ascending."""
    return np.setdiff1d(np.arange(layout.dim), np.concatenate([block.u, block.v]))


def _roll_dx(f, dx):
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dx)


def _roll_laplacian(f, dx):
    return (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / (dx * dx)


def _roll_plumes(u_new, params, rngs):
    lam = params.plumes_per_step
    rows, centers, signs = [], [], []
    for i, rng in enumerate(rngs):
        count = int(rng.poisson(lam))
        if count:
            rows.extend([i] * count)
            centers.append(rng.uniform(0.0, params.geometry.domain_m, count))
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


def roll_advance(members, params, n_steps, rngs):
    """sweq.advance_members without its checks, stepping with np.roll."""
    fields = params.layout.split(np.asarray(members, dtype=float))
    h, u, r = fields["h"].copy(), fields["u"].copy(), fields["r"].copy()
    dx = params.geometry.spacing_m
    dt = params.dt_s
    for _ in range(n_steps):
        phi = np.where(h > params.h_cloud, params.phi_cloud, params.gravity * h)
        phi = phi + params.rain_geopotential * r
        dudx = _roll_dx(u, dx)
        u_new = u + dt * (-u * dudx - _roll_dx(phi, dx) + params.diff_u * _roll_laplacian(u, dx))
        _roll_plumes(u_new, params, rngs)
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
    fields = params.layout.split(out)
    fields["h"][...], fields["u"][...], fields["r"][...] = h, u, r
    return out


def fixed_gamma(gamma):
    """A search_gamma that returns gamma whatever the weights."""
    return lambda solver, lo_frac, k: gamma


def identity_resample(alpha, rng):
    """A balanced_resample(alpha, rng) or systematic_indices(alpha, u) that
    keeps every member in its slot and draws nothing."""
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
    p_cols, s_oo = _p_slices(P, obs.h_rows)
    factor = _chol(gamma * s_oo + np.diag(obs.r_diag), "stage-1 innovation covariance")
    k_gamma = gamma * sla.cho_solve(factor, p_cols.T).T
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
    half = sla.cho_solve(factor, resid.T)
    log_w = -0.5 * np.sum(resid.T * half, axis=0)
    return weights_from_log(log_w)


def enkpf_perturbations(P, obs, gamma, n_draws, rng):
    """n draws of eps ~ N(0, P^{a,gamma}) without forming the covariance.

    Uses production's gains for the rows of P; eta is drawn before e_R.
    """
    if gamma == 1.0:
        raise ValueError("perturbation draws are defined for gamma < 1")
    p_ro, s_oo = _p_slices(P, obs.h_rows)
    k_ro, a, k2_ro = _enkpf_rows_machinery(obs.r_diag, p_ro, s_oo, gamma)
    eta = rng.standard_normal((n_draws, obs.m))
    er = rng.standard_normal((n_draws, obs.m))
    return _eps_draws(k_ro, a, k2_ro, obs.r_diag, gamma, eta, er)


def taper_matrix(layout, spec):
    """Full d x d taper as a sparse CSR matrix (banded on the ring)."""
    n = layout.geometry.n_points
    # Weight depends only on grid offset; build one row of offsets and shift it.
    offsets = np.arange(n)
    w_row = gaspari_cohn(layout.geometry.distance_m(offsets, 0), spec.length_scale_m)
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
    return sp.csr_matrix((vals, (rows, cols)), shape=(layout.dim, layout.dim))


def tapered_covariance(members, layout, spec):
    """Tapered sample covariance (X'X/(k-1) Schur-multiplied by the taper), sparse.

    members: (k, d) ensemble array. Only entries inside the taper support are
    stored; everything else is exactly zero by construction.
    """
    members = np.asarray(members, dtype=float)
    k = members.shape[0]
    if k < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    w = taper_matrix(layout, spec).tocoo()
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
