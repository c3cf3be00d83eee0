"""Gaussian observation bundle used by every assimilation update."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GaussObs:
    """Observations y with selector operator H and diagonal error covariance R.

    h_rows[j] is the state column read by observation j (coefficient 1), so
    H x = x[h_rows]. r_diag holds the m error variances. m = 0 is legal and
    means "no observations this cycle".
    """

    y: np.ndarray
    h_rows: np.ndarray
    r_diag: np.ndarray

    def __post_init__(self):
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        h = np.atleast_1d(np.asarray(self.h_rows, dtype=np.intp))
        r = np.atleast_1d(np.asarray(self.r_diag, dtype=float))
        if not (y.shape == h.shape == r.shape) or y.ndim != 1:
            raise ValueError("y, h_rows, r_diag must be 1d arrays of equal length")
        if y.size and not np.all(r > 0):
            raise ValueError("observation error variances must be positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "h_rows", h)
        object.__setattr__(self, "r_diag", r)

    @property
    def m(self):
        return self.y.shape[0]

    def check_dim(self, dim):
        if self.m and (self.h_rows.min() < 0 or self.h_rows.max() >= dim):
            raise ValueError("h_rows reference state columns outside the state vector")

    def project(self, members):
        """H applied to each member: members[:, h_rows]."""
        return np.asarray(members)[:, self.h_rows]

    def subset(self, idx):
        """New GaussObs keeping observation rows idx (order preserved)."""
        idx = np.asarray(idx)
        return GaussObs(self.y[idx], self.h_rows[idx], self.r_diag[idx])
