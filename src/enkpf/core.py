"""The one sample covariance, and the LAPACK helpers every gain and weight uses.

An ensemble is a plain (k, d) float array of k members. ensemble_moments
forms a block of the sample covariance P between two column sets: the global
filters take HPH', the localized ones tapered blocks of P
(taper.tapered_cov_block), and no d x d covariance or system is formed.
Observation operators are column selectors (obs row j reads state column
h_rows[j]), so every gain is an m x m solve, factored by _chol and solved by
_cho_solve: LAPACK's potrf and potrs, called as scipy's cho_factor and
cho_solve call them (bitwise theirs) without those wrappers' per-call cost.
_eigh is LAPACK's syevr, called as scipy.linalg.eigh's default driver calls
it (bitwise its result), for the EnKPF's mixture weights and the block
filter's regression. The gains live in global_filters: the EnKF gain in
_enkf_rows, the EnKPF's gamma-scaled gains in _enkpf_rows_machinery; the
global filters solve them for the k members' anomalies, not for the d state
columns (global_filters._global_update).
"""

import numpy as np
from scipy.linalg import get_lapack_funcs

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
        cov = a.T @ b
        cov /= k - 1
    if not np.isfinite(cov).all():
        raise FilterError("sample covariance is not finite: the ensemble spread overflows")
    return cov


_POTRF, _POTRS, _SYEVR, _SYEVR_LWORK = get_lapack_funcs(
    ("potrf", "potrs", "syevr", "syevr_lwork"), dtype=np.float64)


def _chol(mat, what):
    """Lower Cholesky factor of mat for _cho_solve; FilterError naming what
    when mat is not finite or not positive definite."""
    if not np.isfinite(mat).all():
        raise FilterError(f"{what} is not finite")
    factor, info = _POTRF(mat, lower=True, clean=False)
    if info > 0:
        raise FilterError(f"{what} not positive definite: "
                          f"{info}-th leading minor of the array is not positive definite")
    return factor


def _cho_solve(factor, b):
    """The solution x of A x = b, for A's _chol factor and a 2-d b."""
    return _POTRS(factor, b, lower=True)[0]


def _eigh(mat):
    """(eigenvalues ascending, eigenvectors as columns) of a finite symmetric
    mat, read from its lower triangle: scipy.linalg.eigh's bits, from the
    same syevr call with the same workspace query, and empty arrays for a 0 x
    0 mat. FilterError when syevr fails."""
    n = mat.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    work, iwork, _ = _SYEVR_LWORK(n, lower=1)
    lam, vecs, _, _, info = _SYEVR(mat, lower=1, lwork=int(work), liwork=int(iwork))
    if info != 0:
        raise FilterError(f"symmetric eigendecomposition failed (syevr info {info})")
    return lam, vecs
