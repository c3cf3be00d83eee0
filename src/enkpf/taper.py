"""Gaspari-Cohn covariance tapering on the periodic grid.

The taper is the standard compactly supported 5th-order piecewise rational
correlation function with support radius 2c, applied as a Schur product to
sample covariances. All distances are physical (meters); one length scale
l_m, a plain float (inf: no tapering), is used for every field pair, so the
taper weight between two state columns depends only on the ring offset
between their grid points: every weight is a gather from taper_table,
bitwise equal to gaspari_cohn of the distance. Tapered covariances are
formed as dense blocks between the column sets an analysis needs
(tapered_cov_block): the sample covariance block of core.ensemble_moments
times the taper weights of the same block, so neither the full d x d taper
nor the full covariance is ever built.
"""

import numpy as np

from enkpf.core import ensemble_moments


def gaspari_cohn(dist, c):
    """Gaspari-Cohn correlation at distance(s) dist for length scale c.

    Equals 1 at distance 0, decays to 0 at distance 2c, and is exactly 0
    beyond. c = inf gives all-ones weights (no tapering). The one check of a
    length scale: ValueError unless c > 0, which NaN fails.
    """
    if not c > 0:
        raise ValueError("length scale c must be positive")
    d = np.abs(np.asarray(dist, dtype=float))
    with np.errstate(over="ignore"):  # z = inf is beyond the support too
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
    return out


def taper_table(grid, l_m):
    """Taper weights for length scale l_m of grid points 0..n // 2 steps
    apart on grid, to gather from."""
    return gaspari_cohn(np.arange(grid.n_points // 2 + 1) * grid.spacing_m, l_m)


def tapered_cov_block(members, cols_a, cols_b, weights):
    """Dense tapered covariance block between column sets a and b.

    The Schur product of the sample covariance block X_a'X_b/(k-1)
    (core.ensemble_moments, whose ValueError and FilterError it passes on)
    with weights, the (|a|, |b|) taper weights of the same block, so no d x d
    matrix is formed; this is what the localized filters call on small slices.
    """
    return ensemble_moments(members, cols_a, cols_b) * weights
