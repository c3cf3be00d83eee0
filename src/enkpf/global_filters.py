"""Global analysis updates: stochastic EnKF, particle-filter weights, and the
ensemble Kalman particle filter (EnKPF) with adaptive gamma.

The EnKPF interpolates between the stochastic EnKF (gamma = 1) and a pure
particle filter (gamma = 0). Stage 1 applies a gamma-dampened Kalman update
producing centers nu_i; stage 2 weights the resulting Gaussian mixture against
the remaining likelihood power, resamples, and adds perturbations drawn from
the analysis covariance without ever forming it.

There is one EnKPF path, shared by the global and the localized filters:
GammaWeightSolver gives the mixture weights for any gamma (search_gamma picks
gamma from them), and _enkpf_rows_update applies both stages to an arbitrary
subset of state rows given the relevant covariance slices. enkpf_update and
adaptive_gamma call it on all rows of the plain or tapered P; the localized
filters call it per site or block, which is what keeps the global/local
reduction tests exact. At gamma = 1 it is the stochastic EnKF, and
_enkf_rows is the one place that update is written: enkf_update, the LEnKF
and every gamma = 1 site or block go through it. Weights and resampling
indices are plain (k,) arrays (see enkpf.resampling). All observation
operators are column selectors with diagonal R, so every solve is m x m.
"""

import math

import numpy as np
import scipy.linalg as sla

from enkpf.core import _chol, _p_slices
from enkpf.errors import FilterError
from enkpf.resampling import balanced_resample, ess, weights_from_log

__all__ = [
    "GammaWeightSolver",
    "adaptive_gamma",
    "enkf_update",
    "enkpf_update",
    "pf_weights",
]


def enkf_update(ens, obs, P, rng):
    """Stochastic EnKF analysis: x_i + K(P)(y - Hx_i + eps_i), eps_i ~ N(0, R).

    P is supplied by the caller (plain or tapered sample covariance). Each
    member gets its own observation perturbation; one (k, m) standard-normal
    block is drawn from rng, making the update bit-reproducible per seed.
    """
    x = np.asarray(ens, dtype=float)
    k, d = x.shape
    obs.check_dim(d)
    if obs.m == 0:
        return x.copy()
    p_cols, s_oo = _p_slices(P, obs.h_rows)
    eta_raw = rng.standard_normal((k, obs.m))
    return _enkf_rows(x, obs.y - obs.project(x), obs.r_diag, p_cols, s_oo, eta_raw)


def _enkf_rows(x_rows, innov0, r_diag, p_ro, s_oo, eta_raw):
    """Stochastic EnKF on a subset of rows: x + (y - Hx + sqrt(r) eta) K'.

    x_rows (k, p) background rows, innov0 (k, m) = y - Hx, eta_raw (k, m)
    standard normals; K = P_ro (S + R)^{-1} from the slices p_ro (p, m) and
    s_oo (m, m). FilterError if S + R is not positive definite or the
    update overflows.
    """
    factor = _chol(s_oo + np.diag(r_diag), "innovation covariance")
    gain = sla.cho_solve(factor, p_ro.T).T
    with np.errstate(over="ignore", invalid="ignore"):
        rows = x_rows + (innov0 + eta_raw * np.sqrt(r_diag)) @ gain.T
    if not np.isfinite(rows).all():
        raise FilterError("EnKF update is not finite")
    return rows


def pf_weights(ens, obs):
    """Particle-filter weights alpha_i proportional to the likelihood l(y | x_i).

    Computed in log space with max-subtraction. A member whose squared
    innovation overflows gets log-likelihood -inf, i.e. weight 0.
    """
    x = np.asarray(ens, dtype=float)
    obs.check_dim(x.shape[1])
    innov = obs.y - obs.project(x)
    with np.errstate(over="ignore"):
        log_w = -0.5 * np.sum(innov * innov / obs.r_diag, axis=1)
    return weights_from_log(log_w)


class GammaWeightSolver:
    """EnKPF mixture weights as a function of gamma for one background/obs pair.

    A single eigendecomposition of R^{-1/2} S R^{-1/2} (S = obs-space
    background covariance) reduces every subsequent weight query to one
    O(k m) product:

        log alpha_i(gamma) = -0.5 sum_j z_ij^2 c_j(gamma) + const,
        c_j = 1 / (gamma lam_j^2 + (gamma lam_j + 1)^2 / (1 - gamma)),

    with z_i = U' R^{-1/2} (y - H x_i). Algebraically identical to the direct
    mixture weights N(y; H nu_i, HQH' + R/(1-gamma)) at the same gamma; this is
    what makes per-site adaptive gamma affordable. Every EnKPF resamples with
    these weights.
    """

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
        # a denominator that overflows gives c_j = 0, its exact limit
        c = 1.0 / (g_lam * self.lam + (g_lam + 1.0) ** 2 / (1.0 - gamma))
        log_w = -0.5 * (self.z2 @ c)
        return log_w - log_w.max()

    def weights(self, gamma):
        return weights_from_log(self.log_weights(gamma))

    def ess(self, gamma):
        return ess(self.weights(gamma))


def _check_band(ess_band):
    lo, hi = ess_band
    if not 0.0 < lo <= hi <= 1.0:
        raise ValueError("ess_band must satisfy 0 < lo <= hi <= 1")
    return lo, hi


def search_gamma(solver, lo_frac, k):
    """Smallest gamma with ESS >= lo_frac * k, by 10-step bisection on [0, 1].

    gamma = 0 is the preferred outcome and is checked first. The bisection
    keeps the invariant ESS(hi) >= target (ESS at gamma = 1 is k by the
    uniform-weight convention, so the initial bracket is valid); the returned
    endpoint therefore always satisfies the floor. Deterministic: weight
    evaluation consumes no randomness.

    Only the lower end lo of an ess_band (lo, hi) enters here. The upper end
    is validated (_check_band) but never enforced: an ESS above hi * k is
    accepted, so hi is at most a soft target.
    """
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


def _eps_draws(k_ro, a, k2_ro, r_diag, gamma, eta_raw, er_raw):
    """Analysis perturbations (I - K2 H) e_Q + K2 e_R for pre-drawn normals.

    e_Q = gamma^{-1/2} K_gamma (sqrt(r) eta) restricted to the updated rows,
    e_R ~ N(0, R/(1-gamma)). gamma = 0 gives exact zeros.
    """
    if gamma == 0.0:
        return np.zeros((eta_raw.shape[0], k_ro.shape[0]))
    sqrt_r = np.sqrt(r_diag)
    scaled = gamma**-0.5 * (eta_raw * sqrt_r)
    e_q_rows = scaled @ k_ro.T
    he_q = scaled @ a.T
    e_r = er_raw * (sqrt_r / np.sqrt(1.0 - gamma))
    return e_q_rows + (e_r - he_q) @ k2_ro.T


def _enkpf_rows_machinery(r_diag, p_ro, s_oo, gamma):
    """Gains shared by the mean and perturbation paths, for gamma in [0, 1).

    Returns (k_ro, a, k2_ro): row-restricted stage-1 gain K(gamma P) on the
    requested rows, its obs-space block A = H K(gamma P), and the
    row-restricted second-stage gain K((1-gamma) Q).
    """
    m = r_diag.shape[0]
    p = p_ro.shape[0]
    if gamma == 0.0 or m == 0:
        z = np.zeros((p, m))
        return z, np.zeros((m, m)), z
    factor = _chol(gamma * s_oo + np.diag(r_diag), "stage-1 innovation covariance")
    k_ro = gamma * sla.cho_solve(factor, p_ro.T).T
    a = gamma * sla.cho_solve(factor, s_oo).T
    hqh = (a * r_diag) @ a.T / gamma
    qh_ro = (k_ro * r_diag) @ a.T / gamma
    s2 = (1.0 - gamma) * hqh + np.diag(r_diag)
    factor2 = _chol(s2, "stage-2 innovation covariance")
    k2_ro = (1.0 - gamma) * sla.cho_solve(factor2, qh_ro.T).T
    return k_ro, a, k2_ro


def _enkpf_rows_update(x_rows, innov0, r_diag, p_ro, s_oo, gamma, eta_raw, er_raw, idx):
    """Row-restricted EnKPF final update given pre-drawn noise and indices.

    x_rows (k, p): background values of the rows being updated; innov0
    (k, m): y - Hx of the background; p_ro (p, m), s_oo (m, m): covariance
    slices (tapered or plain). gamma = 1 is the EnKF (_enkf_rows): nothing is
    resampled, so idx must be the identity and er_raw is not used.
    Returns the (k, p) analysis rows.
    """
    if gamma == 0.0 or r_diag.shape[0] == 0:
        return x_rows[idx]
    if gamma == 1.0:
        return _enkf_rows(x_rows, innov0, r_diag, p_ro, s_oo, eta_raw)
    k_ro, a, k2_ro = _enkpf_rows_machinery(r_diag, p_ro, s_oo, gamma)
    nu_rows = x_rows + innov0 @ k_ro.T
    resid = innov0 - innov0 @ a.T
    mu_rows = nu_rows + resid @ k2_ro.T
    eps = _eps_draws(k_ro, a, k2_ro, r_diag, gamma, eta_raw, er_raw)
    return mu_rows[idx] + eps


def _enkpf_at(x, obs, p_ro, s_oo, solver, gamma, rng):
    """EnKPF analysis of all rows at gamma, resampling with solver's weights.

    Draws eta, then e_R, then (for gamma < 1) the resampling uniform, in that
    order. At gamma = 1 the weights are uniform and the indices the identity.
    """
    k = x.shape[0]
    eta_raw = rng.standard_normal((k, obs.m))
    er_raw = rng.standard_normal((k, obs.m))
    if gamma == 1.0:
        alpha, idx = np.full(k, 1.0 / k), np.arange(k)
    else:
        alpha = solver.weights(gamma)
        idx = balanced_resample(alpha, rng)
    x_a = _enkpf_rows_update(
        x, obs.y - obs.project(x), obs.r_diag, p_ro, s_oo, gamma, eta_raw, er_raw, idx
    )
    return x_a, alpha, idx


def enkpf_update(ens, obs, P, gamma, rng):
    """Full EnKPF analysis for a fixed gamma.

    Returns the arrays (analysis (k, d), weights alpha (k,), indices (k,)). At
    gamma = 1 the particle stage is skipped: the update is the EnKF rows
    update, bitwise equal to enkf_update with the same rng, the weights are
    uniform and the indices are the identity. For gamma < 1 the indices are
    a balanced resample of the mixture weights.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    x = np.asarray(ens, dtype=float)
    obs.check_dim(x.shape[1])
    p_ro, s_oo = _p_slices(P, obs.h_rows)
    solver = GammaWeightSolver(s_oo, obs.r_diag, obs.y - obs.project(x))
    return _enkpf_at(x, obs, p_ro, s_oo, solver, gamma, rng)


def adaptive_gamma(ens, obs, P, ess_band, rng):
    """Choose gamma by ESS bisection, then run the EnKPF at that gamma.

    ess_band = (lo, hi) fractions of k: gamma is the smallest value (up to
    the 2^-10 bisection resolution) whose mixture ESS reaches lo * k, with
    gamma = 0 preferred when the plain particle weights already qualify. hi
    is validated but not enforced (see search_gamma). The weights that pick
    gamma are the weights resampled, so their ESS is at least lo * k.
    Returns (gamma, (analysis, alpha, idx)) with the arrays of enkpf_update.
    """
    lo, _ = _check_band(ess_band)
    x = np.asarray(ens, dtype=float)
    obs.check_dim(x.shape[1])
    p_ro, s_oo = _p_slices(P, obs.h_rows)
    solver = GammaWeightSolver(s_oo, obs.r_diag, obs.y - obs.project(x))
    gamma = search_gamma(solver, lo, x.shape[0])
    return gamma, _enkpf_at(x, obs, p_ro, s_oo, solver, gamma, rng)
