"""The one sample covariance, and the Cholesky helper every gain is solved with.

An ensemble is a plain (k, d) float array of k members. ensemble_moments
forms a block of the sample covariance P between two column sets: the global
filters take P[:, H], the localized ones tapered blocks of it
(taper.tapered_cov_block), and no d x d covariance or system is formed.
Observation operators are column selectors (obs row j reads state column
h_rows[j]), so HPH' is the rows of P[:, H] at h_rows and every gain is an
m x m solve, factored by _chol. The gains live in global_filters: the EnKF
gain in _enkf_rows, the EnKPF's gamma-scaled gains in _enkpf_rows_machinery.
"""

import numpy as np
import scipy.linalg as sla

from enkpf.errors import FilterError


def ensemble_moments(ens, cols_a, cols_b):
    """Sample covariance block X_a'X_b/(k-1) of a (k, d) member array, X the
    members' deviations from their mean, for column sets a and b (in any
    order, with repeats, or empty): a dense (|a|, |b|) array. Requires k >= 2.

    FilterError when the block is not finite: a spread near the float64
    limit, as a forecast that has blown up without overflowing yet, overflows
    in the product, which runs with numpy's overflow warnings off.
    """
    x = np.asarray(ens, dtype=float)
    k = x.shape[0]
    if k < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    a = x[:, cols_a]
    b = x[:, cols_b]
    with np.errstate(over="ignore", invalid="ignore"):
        a = a - a.mean(axis=0)
        b = b - b.mean(axis=0)
        cov = a.T @ b / (k - 1)
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
