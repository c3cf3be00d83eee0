"""Sample moments and the Kalman gain.

An ensemble is a plain (k, d) float array of k members, and a covariance P is
a dense (d, d) array.

Observation operators throughout the package are column selectors: obs row j
reads state column h_rows[j] with coefficient 1. That keeps every gain
computation an m x m solve (m = number of observations); no d x d system is
ever formed or inverted. _gain is that solve for every EnKF step, global or
local; only the EnKPF's gamma-scaled gains live elsewhere
(global_filters._enkpf_rows_machinery).
"""

import numpy as np
import scipy.linalg as sla

from enkpf.errors import FilterError


def ensemble_moments(ens):
    """Sample mean and covariance with the k-1 divisor of a (k, d) member array.

    Returns (mean (d,), cov (d, d)). Requires k >= 2.
    """
    x = np.asarray(ens, dtype=float)
    k = x.shape[0]
    if k < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    mean = x.mean(axis=0)
    a = x - mean
    cov = a.T @ a / (k - 1)
    return mean, cov


def _chol(mat, what):
    try:
        return sla.cho_factor(mat, lower=True)
    except sla.LinAlgError as exc:
        raise FilterError(f"{what} not positive definite: {exc}") from exc


def _p_slices(cov, h_rows):
    """P[:, h_rows] and P[h_rows, h_rows] of a dense P."""
    p_cols = np.asarray(cov, dtype=float)[:, h_rows]
    return p_cols, p_cols[h_rows, :]


def _gain(p_ro, s_oo, r_diag, what):
    """Gain rows P_ro (S + diag(r))^{-1}, p_ro (p, m) and S (m, m) the
    covariance slices; what names S + diag(r) in the FilterError raised when
    it is not positive definite."""
    factor = _chol(s_oo + np.diag(r_diag), what)
    return sla.cho_solve(factor, p_ro.T).T


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
    return _gain(p_cols, s_oo, r_diag, "innovation covariance")
