"""Global analysis updates: stochastic EnKF, particle-filter weights, and the
ensemble Kalman particle filter (EnKPF) with adaptive gamma.

The EnKPF interpolates between the stochastic EnKF (gamma = 1) and a pure
particle filter (gamma = 0). Stage 1 applies a gamma-dampened Kalman update
producing centers nu_i; stage 2 weights the resulting Gaussian mixture against
the remaining likelihood power, resamples, and adds perturbations drawn from
the analysis covariance without ever forming it.

There is one EnKPF path, shared by the global and the localized filters:
search_gamma turns an analysis's covariance slices and innovations into
gamma and the mixture weights at it, and _enkpf_rows_update applies both
stages to any subset of state rows given the covariance slices. The
particle weights are one expression, _pf_log_likelihood, which pf_weights
shares with the EnKPF at gamma = 0; the one eigh of _mixture_weights (0 <
gamma < 1) is made only when gamma = 0 will not do. Every EnKPF starts from
one set-up, _setup, which draws eta, e_R and the resampling uniform u.

enkf_update and adaptive_gamma update all rows on the members' own sample
covariance P = A'A/(k-1), A the (k, d) anomalies, given s_oo = HPH' (m, m),
in ensemble coordinates (_global_update): with G = A[:, H]/(k-1), P[:, H] =
A'G, so every gain is A' times a (k, m) solve for G, and
_enkpf_rows_update, run on k zero rows with G for P[:, H], returns the (k,
k) weights W of the analysis x[idx] + W A. Each solve has k
right-hand sides, not d, and no (d, m) array is formed. The localized
filters pass tapered slices of P to the same _enkpf_rows_update. At gamma =
1 it is the stochastic EnKF, written once in _enkf_rows: the weights are
uniform, e_R and u go unused. Below it the members are resampled
(systematic_indices) with the weights that came with gamma. The paper's
filters only choose gamma adaptively, so there is no entry point at a fixed
gamma other than 1. Weights and indices are plain (k,) arrays (see
enkpf.resampling). Every observation operator is a column selector with
diagonal R, so every solve is m x m.
"""

import math

import numpy as np

from enkpf.core import _cho_solve, _chol, _eigh
from enkpf.errors import FilterError
from enkpf.resampling import ess, systematic_indices, weights_from_log

__all__ = ["adaptive_gamma", "enkf_update", "pf_weights"]


def enkf_update(ens, obs, s_oo, rng):
    """Stochastic EnKF analysis: x_i + K(P)(y - Hx_i + eps_i), eps_i ~ N(0, R).

    The EnKPF at gamma = 1 on the members' sample covariance P, given s_oo =
    HPH' (m, m), in ensemble coordinates (_global_update). Each member gets
    its own observation perturbation, from the first (k, m) standard-normal
    block that _setup draws from rng (its e_R and u go unused), making the
    update bit-reproducible per seed.
    """
    x, innov0, eta, er, _ = _setup(ens, obs, rng)
    return _global_update(x, obs, innov0, _s_oo(s_oo, x, obs), 1.0, eta, er,
                          np.arange(x.shape[0]))


def _enkf_rows(x_rows, perturbed, p_ro, factor):
    """Stochastic EnKF on a subset of rows: x + (y - Hx + sqrt(r) eta) K', for
    x_rows (k, p), perturbed (k, m) = y - Hx + sqrt(r) eta, and K = P_ro (S +
    R)^{-1} from p_ro (p, m) and factor, the _chol factor of S + R.
    FilterError if the update overflows."""
    gain = _cho_solve(factor, p_ro.T).T
    with np.errstate(over="ignore", invalid="ignore"):
        rows = x_rows + perturbed @ gain.T
    if not np.isfinite(rows).all():
        raise FilterError("EnKF update is not finite")
    return rows


def _pf_log_likelihood(innov, r_diag):
    """Particle-filter log-likelihoods -0.5 sum_j innov_ij^2 / r_j of the (k, m)
    innovations y - Hx_i: the one place particle weights are computed. A
    member whose squared innovation overflows gets -inf."""
    with np.errstate(over="ignore"):
        return -0.5 * np.sum(innov * innov / r_diag, axis=1)


def pf_weights(ens, obs):
    """Particle-filter weights alpha_i proportional to the likelihood l(y | x_i).

    Computed in log space with max-subtraction. A member whose squared
    innovation overflows gets log-likelihood -inf, i.e. weight 0.
    """
    x = np.asarray(ens, dtype=float)
    obs.check_dim(x.shape[1])
    return weights_from_log(_pf_log_likelihood(obs.y - obs.project(x), obs.r_diag))


def _checked_pf_log_likelihood(s_oo, r_diag, innov0):
    """(particle-filter log-likelihoods, R^{-1/2} S R^{-1/2}) of a weighted
    analysis. FilterError if either is not finite: the two checks every
    EnKPF below gamma = 1 makes, whatever its gamma."""
    inv_sqrt_r = 1.0 / np.sqrt(r_diag)
    with np.errstate(over="ignore", invalid="ignore"):
        s_white = inv_sqrt_r[:, None] * s_oo * inv_sqrt_r
    if not np.isfinite(s_white).all():
        raise FilterError("whitened innovation covariance is not finite")
    log_pf = _pf_log_likelihood(innov0, r_diag)
    if not math.isfinite(log_pf.min()):  # <= 0, and min propagates NaN
        raise FilterError("whitened innovations are not finite")
    return log_pf, s_white


def _mixture_weights(s_white, innov0, r_diag):
    """The EnKPF mixture weights as a function of 0 < gamma < 1, from one
    eigendecomposition U diag(lam) U' of the whitened S:

        log alpha_i(gamma) = -0.5 sum_j z_ij^2 c_j(gamma) + const,
        c_j = 1 / (gamma lam_j^2 + (gamma lam_j + 1)^2 / (1 - gamma)),

    with z_i = U' R^{-1/2} (y - H x_i). Algebraically identical to the direct
    mixture weights N(y; H nu_i, HQH' + R/(1-gamma)) at the same gamma, in one
    O(k m) product per gamma: this is what makes per-site adaptive gamma
    affordable.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lam, u = _eigh(s_white)  # m = 0: nothing to decompose, every weight is 1/k
        z2 = ((innov0 * (1.0 / np.sqrt(r_diag))) @ u) ** 2
    lam = np.clip(lam, 0.0, None)

    def weights(gamma):
        g_lam = gamma * lam
        # a denominator that overflows gives c_j = 0, its exact limit
        c = 1.0 / (g_lam * lam + (g_lam + 1.0) ** 2 / (1.0 - gamma))
        log_w = -0.5 * (z2 @ c)
        return weights_from_log(log_w - log_w.max())

    return weights


def _check_band(ess_band):
    """(lo, hi) of an ESS band: two numbers with 0 < lo <= hi <= 1, or a ValueError."""
    try:
        lo, hi = ess_band
        if 0.0 < lo <= hi <= 1.0:
            return lo, hi
    except (TypeError, ValueError):  # not a pair of numbers
        pass
    raise ValueError(f"ess_band: need two numbers 0 < lo <= hi <= 1, got {ess_band!r}")


def search_gamma(s_oo, r_diag, innov0, lo_frac):
    """(gamma, alpha): the smallest gamma with ESS >= lo_frac * k, by 10-step
    bisection on [0, 1], and the weights at it, which the analysis resamples.

    s_oo (m, m) is the obs-space background covariance, r_diag (m,) the
    error variances, innov0 (k, m) the innovations y - Hx. The checks of
    _checked_pf_log_likelihood come first, whatever gamma is reached. gamma =
    0 is preferred and tested with the particle-filter weights, so a search
    that settles there makes one weight vector and no eigh. Otherwise one
    eigh serves the bisection, which keeps the invariant ESS(hi) >= target
    (uniform weights at gamma = 1 have ESS k, so the initial bracket is
    valid) and the weights at hi: no weight vector is made twice.

    Only the lower end lo of an ess_band (lo, hi) enters here. The upper end
    is validated (_check_band) but never enforced: an ESS above hi * k is
    accepted, so hi is at most a soft target.
    """
    k = innov0.shape[0]
    log_pf, s_white = _checked_pf_log_likelihood(s_oo, r_diag, innov0)
    alpha = weights_from_log(log_pf)
    target = lo_frac * k
    if ess(alpha) >= target:
        return 0.0, alpha
    weights_at = _mixture_weights(s_white, innov0, r_diag)
    lo_g, hi_g, alpha = 0.0, 1.0, np.full(k, 1.0 / k)
    for _ in range(10):
        mid = 0.5 * (lo_g + hi_g)
        w = weights_at(mid)
        if ess(w) >= target:
            hi_g, alpha = mid, w
        else:
            lo_g = mid
    return hi_g, alpha


def _eps_draws(k_ro, a, k2_ro, r_diag, gamma, eta_raw, er_raw):
    """Analysis perturbations (I - K2 H) e_Q + K2 e_R for pre-drawn normals.

    e_Q = gamma^{-1/2} K_gamma (sqrt(r) eta) restricted to the updated rows,
    e_R ~ N(0, R/(1-gamma)), for 0 < gamma < 1.
    """
    sqrt_r = np.sqrt(r_diag)
    scaled = gamma**-0.5 * (eta_raw * sqrt_r)
    e_q_rows = scaled @ k_ro.T
    he_q = scaled @ a.T
    e_r = er_raw * (sqrt_r / np.sqrt(1.0 - gamma))
    return e_q_rows + (e_r - he_q) @ k2_ro.T


def _enkpf_rows_machinery(r_diag, p_ro, s_oo, gamma):
    """Gains shared by the mean and perturbation paths, for 0 < gamma < 1, m > 0.

    Returns (k_ro, a, k2_ro): row-restricted stage-1 gain K(gamma P) on the
    requested rows, its obs-space block A = H K(gamma P), and the
    row-restricted second-stage gain K((1-gamma) Q).
    """
    factor = _chol(gamma * s_oo + np.diag(r_diag), "stage-1 innovation covariance")
    k_ro = gamma * _cho_solve(factor, p_ro.T).T
    a = gamma * _cho_solve(factor, s_oo).T
    hqh = (a * r_diag) @ a.T / gamma
    qh_ro = (k_ro * r_diag) @ a.T / gamma
    s2 = (1.0 - gamma) * hqh + np.diag(r_diag)
    factor2 = _chol(s2, "stage-2 innovation covariance")
    k2_ro = (1.0 - gamma) * _cho_solve(factor2, qh_ro.T).T
    return k_ro, a, k2_ro


def _enkpf_rows_update(x_rows, innov0, r_diag, p_ro, s_oo, gamma, eta_raw, er_raw, idx):
    """Row-restricted EnKPF final update given pre-drawn noise and indices.

    x_rows (k, p): background values of the rows being updated; innov0
    (k, m): y - Hx of the background; p_ro (p, m), s_oo (m, m): covariance
    slices (tapered or plain). gamma = 1 is the EnKF (_enkf_rows): nothing is
    resampled, so idx must be the identity and er_raw is not used. Returns
    the (k, p) analysis rows.
    """
    if gamma == 0.0 or r_diag.shape[0] == 0:
        return x_rows[idx]
    if gamma == 1.0:
        return _enkf_rows(x_rows, innov0 + eta_raw * np.sqrt(r_diag), p_ro,
                          _chol(s_oo + np.diag(r_diag), "innovation covariance"))
    k_ro, a, k2_ro = _enkpf_rows_machinery(r_diag, p_ro, s_oo, gamma)
    nu_rows = x_rows + innov0 @ k_ro.T
    resid = innov0 - innov0 @ a.T
    mu_rows = nu_rows + resid @ k2_ro.T
    eps = _eps_draws(k_ro, a, k2_ro, r_diag, gamma, eta_raw, er_raw)
    return mu_rows[idx] + eps


def _setup(ens, obs, rng):
    """(x, y - Hx, eta, e_R, u) for an EnKPF analysis of ens: the one place
    that fixes the draw order, eta, e_R, then the resampling uniform u."""
    x = np.asarray(ens, dtype=float)
    obs.check_dim(x.shape[1])
    k = x.shape[0]
    return (x, obs.y - obs.project(x), rng.standard_normal((k, obs.m)),
            rng.standard_normal((k, obs.m)), rng.uniform())


def _s_oo(s_oo, x, obs):
    """s_oo as a float array; ValueError unless it is (m, m) and x (k, d) has
    the k >= 2 members that a sample covariance needs."""
    s_oo = np.asarray(s_oo, dtype=float)
    if s_oo.shape != (obs.m, obs.m):
        raise ValueError(f"s_oo must be HPH' of shape {(obs.m, obs.m)}, not {s_oo.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    return s_oo


def _global_update(x, obs, innov0, s_oo, gamma, eta_raw, er_raw, idx):
    """The EnKPF analysis of every row of x (k, d) at gamma, in ensemble
    coordinates: x[idx] + W A, A the anomalies and W (k, k) the rows update
    of k zero rows with p_ro = A[:, H]/(k-1) (see the module docstring).
    x[idx] at gamma = 0 or m = 0. FilterError if the analysis is not finite."""
    if gamma == 0.0 or obs.m == 0:
        return x[idx]
    k = x.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        anom = x - x.mean(axis=0)
        g = anom[:, obs.h_rows] / (k - 1)
        w = _enkpf_rows_update(np.zeros((k, k)), innov0, obs.r_diag, g, s_oo, gamma,
                               eta_raw, er_raw, idx)
        out = x[idx] + w @ anom
    if not np.isfinite(out).all():
        raise FilterError(f"{'EnKF' if gamma == 1.0 else 'EnKPF'} update is not finite")
    return out


def adaptive_gamma(ens, obs, s_oo, ess_band, rng):
    """Choose gamma by ESS bisection, then run the EnKPF at that gamma on the
    members' sample covariance P, given s_oo = HPH' (m, m), in ensemble
    coordinates (_global_update).

    ess_band = (lo, hi) fractions of k: gamma is the smallest value (up to
    the 2^-10 bisection resolution) whose mixture ESS reaches lo * k, with
    gamma = 0 preferred when the plain particle weights already qualify. hi
    is validated but not enforced (see search_gamma). The weights that pick
    gamma are the weights resampled, so their ESS is at least lo * k.
    Returns (gamma, (analysis (k, d), alpha (k,), idx (k,))): below gamma = 1
    idx is the systematic resample of alpha for the drawn uniform u; at gamma
    = 1 (the EnKF) alpha is uniform and idx the identity.
    """
    lo, _ = _check_band(ess_band)
    x, innov0, eta, er, u = _setup(ens, obs, rng)
    s_oo = _s_oo(s_oo, x, obs)
    gamma, alpha = search_gamma(s_oo, obs.r_diag, innov0, lo)
    idx = np.arange(x.shape[0]) if gamma == 1.0 else systematic_indices(alpha, u)
    return gamma, (_global_update(x, obs, innov0, s_oo, gamma, eta, er, idx), alpha, idx)
