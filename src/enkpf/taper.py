"""Gaspari-Cohn covariance tapering on the periodic grid.

The taper is the standard compactly supported 5th-order piecewise rational
correlation function with support radius 2c, applied as a Schur product to
sample covariances. All distances are physical (meters); the same length
scale is used for every field pair, so the taper weight between two state
columns depends only on the circular distance between their grid points.
Tapered covariances are formed as dense blocks between the column sets an
analysis needs (tapered_cov_block); the full d x d taper is never built.
"""

from dataclasses import dataclass

import numpy as np

from enkpf.core import _finite_cov


def gaspari_cohn(dist, c):
    """Gaspari-Cohn correlation at distance(s) dist for length scale c.

    Equals 1 at distance 0, decays to 0 at distance 2c, and is exactly 0
    beyond. c = inf gives all-ones weights (no tapering).
    """
    if c <= 0:
        raise ValueError("length scale c must be positive")
    d = np.abs(np.asarray(dist, dtype=float))
    z = d / c
    out = np.zeros_like(z)

    near = z <= 1.0
    zn = z[near]
    out[near] = -0.25 * zn**5 + 0.5 * zn**4 + 0.625 * zn**3 - (5.0 / 3.0) * zn**2 + 1.0

    far = (z > 1.0) & (z < 2.0)
    zf = z[far]
    out[far] = (
        (1.0 / 12.0) * zf**5
        - 0.5 * zf**4
        + 0.625 * zf**3
        + (5.0 / 3.0) * zf**2
        - 5.0 * zf
        + 4.0
        - (2.0 / 3.0) / zf
    )
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TaperSpec:
    """Taper length scale; support (weights > 0) extends to 2 * length_scale_m."""

    length_scale_m: float

    def __post_init__(self):
        if not self.length_scale_m > 0:
            raise ValueError("length_scale_m must be positive")

    @property
    def support_radius_m(self):
        return 2.0 * self.length_scale_m


def taper_weights(grid, spec, cols_a, cols_b):
    """Dense (|a|, |b|) block of taper weights between two sets of state columns."""
    return gaspari_cohn(grid.col_distance_m(cols_a, cols_b), spec.length_scale_m)


def tapered_cov_block(members, cols_a, cols_b, grid, spec):
    """Dense tapered covariance block between column sets a and b.

    The Schur product of the sample covariance X'X/(k-1) with the taper
    weights, evaluated on the (cols_a, cols_b) block only, so no d x d matrix
    is formed; this is what the localized filters call on small slices.
    FilterError when the block is not finite (see core._finite_cov).
    """
    members = np.asarray(members, dtype=float)
    k = members.shape[0]
    if k < 2:
        raise ValueError("need at least 2 members for a sample covariance")
    a = members[:, cols_a]
    b = members[:, cols_b]
    with np.errstate(over="ignore", invalid="ignore"):
        a = a - a.mean(axis=0)
        b = b - b.mean(axis=0)
        cov = a.T @ b / (k - 1)
    return _finite_cov(cov) * taper_weights(grid, spec, cols_a, cols_b)
