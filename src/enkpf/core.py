"""Sample moments and the covariance slices every gain is built from.

An ensemble is a plain (k, d) float array of k members, and a covariance P is
a dense (d, d) array.

Observation operators throughout the package are column selectors: obs row j
reads state column h_rows[j] with coefficient 1. That keeps every gain
computation an m x m solve (m = number of observations) on the slices
_p_slices cuts from P, factored by _chol; no d x d system is ever formed or
inverted. The gains themselves live in global_filters: the EnKF gain in
_enkf_rows, the EnKPF's gamma-scaled gains in _enkpf_rows_machinery.
"""

import numpy as np
import scipy.linalg as sla

from enkpf.errors import FilterError


def ensemble_moments(ens):
    """Sample mean and covariance with the k-1 divisor of a (k, d) member array.

    Returns (mean (d,), cov (d, d)). Requires k >= 2; FilterError when the
    covariance is not finite (see _finite_cov).
    """
    x = np.asarray(ens, dtype=float)
    k = x.shape[0]
    if k < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        a = x - mean
        cov = a.T @ a / (k - 1)
    return mean, _finite_cov(cov)


def _finite_cov(cov):
    """cov itself, or FilterError when an entry is not finite.

    Finite members whose spread is near the float64 limit, as a forecast
    that has blown up without overflowing yet, overflow in the covariance
    product; its callers compute it with numpy's overflow warnings off and
    leave the report to this error.
    """
    if not np.isfinite(cov).all():
        raise FilterError("sample covariance is not finite: the ensemble spread overflows")
    return cov


def _chol(mat, what):
    """Lower Cholesky factor of mat for cho_solve; FilterError naming what
    when mat is not finite or not positive definite."""
    if not np.isfinite(mat).all():
        raise FilterError(f"{what} is not finite")
    try:
        return sla.cho_factor(mat, lower=True, check_finite=False)
    except sla.LinAlgError as exc:
        raise FilterError(f"{what} not positive definite: {exc}") from exc


def _p_slices(cov, h_rows):
    """P[:, h_rows] and P[h_rows, h_rows] of a dense P."""
    p_cols = np.asarray(cov, dtype=float)[:, h_rows]
    return p_cols, p_cols[h_rows, :]
