"""Periodic 1D grid geometry and the one layout of the model state vector.

A state vector stacks the FIELDS in blocks of n grid points:
x = (h_0..h_{n-1}, u_0..u_{n-1}, r_0..r_{n-1}), so column c is field
FIELDS[c // n] at grid point c mod n. StateLayout is the only place that
knows this order and these block offsets; everything else asks it for a
field's block (split) or for the columns at a grid point (cols_at).
Localization only ever needs distances between grid points, which on a ring
are circular.
"""

from dataclasses import dataclass

import numpy as np

FIELDS = ("h", "u", "r")


@dataclass(frozen=True)
class GridGeometry:
    """Evenly spaced points on a circle of circumference n_points * spacing_m."""

    n_points: int
    spacing_m: float

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if self.spacing_m <= 0:
            raise ValueError("spacing_m must be positive")

    @property
    def domain_m(self):
        return self.n_points * self.spacing_m

    def distance_m(self, i, j):
        """Circular distance in meters between grid indices i and j (arrays ok)."""
        i = np.asarray(i)
        j = np.asarray(j)
        raw = np.abs(i - j)
        wrapped = np.minimum(raw, self.n_points - raw)
        return wrapped * self.spacing_m

    def points_within(self, center, radius_m):
        """Grid indices within circular distance radius_m of center, ascending."""
        all_pts = np.arange(self.n_points)
        return all_pts[self.distance_m(all_pts, center) <= radius_m]


@dataclass(frozen=True)
class StateLayout:
    """The FIELDS stacked in blocks of geometry.n_points columns each."""

    geometry: GridGeometry

    @property
    def dim(self):
        return len(FIELDS) * self.geometry.n_points

    def split(self, x):
        """{field: block} in FIELDS order: views of the blocks of x's last axis.

        A block shares memory with x, so writing to it fills x in. Splitting
        np.arange(dim) gives each field's state columns.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} state columns, got {x.shape[-1]}")
        n = self.geometry.n_points
        return {f: x[..., i * n : (i + 1) * n] for i, f in enumerate(FIELDS)}

    def grid_of_cols(self, cols=None):
        """Grid point of each state column (all columns if cols is None)."""
        if cols is None:
            cols = np.arange(self.dim)
        return np.asarray(cols) % self.geometry.n_points

    def cols_at(self, grid_point):
        """The state columns at a grid point, one per field, along a new last
        axis (grid_point may be an array)."""
        offsets = np.arange(len(FIELDS)) * self.geometry.n_points
        return np.asarray(grid_point)[..., None] + offsets

    def col_distance_m(self, cols_a, cols_b):
        """Pairwise circular distances (|a| x |b|) between column locations."""
        pa = self.grid_of_cols(cols_a)
        pb = self.grid_of_cols(cols_b)
        return self.geometry.distance_m(pa[:, None], pb[None, :])


def default_layout(n_points, spacing_m=500.0):
    return StateLayout(GridGeometry(n_points, spacing_m))
