"""The periodic 1D grid and the one layout of the model state vector.

A state vector stacks the FIELDS in blocks of n grid points:
x = (h_0..h_{n-1}, u_0..u_{n-1}, r_0..r_{n-1}), so column c is field
FIELDS[c // n] at grid point c mod n. Grid is the only place that knows
this order and these block offsets; everything else asks it for a field's
block (split), the columns at a grid point (cols_at) or the grid points of
given columns (grid_of_cols).
Localization only ever needs distances between grid points, which on a ring
are circular (ring_offset).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

FIELDS = ("h", "u", "r")


@dataclass(frozen=True)
class Grid:
    """Evenly spaced points on a circle of circumference n_points * spacing_m,
    and the FIELDS stacked in blocks of n_points state columns each."""

    n_points: int
    spacing_m: float = 500.0

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral) or self.n_points < 1:
            raise ValueError("n_points must be a positive integer")
        if not 0 < self.spacing_m < math.inf:
            raise ValueError("spacing_m must be positive and finite")

    @property
    def domain_m(self):
        return self.n_points * self.spacing_m

    @property
    def dim(self):
        return len(FIELDS) * self.n_points

    def ring_offset(self, i, j):
        """Circular distance in grid steps between grid indices i and j (arrays ok)."""
        raw = np.abs(np.asarray(i) - np.asarray(j))
        return np.minimum(raw, self.n_points - raw)

    def split(self, x):
        """{field: block} in FIELDS order: views of the blocks of x's last axis.

        A block shares memory with x, so writing to it fills x in. Splitting
        np.arange(dim) gives each field's state columns.
        """
        x = np.asarray(x)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} state columns, got {x.shape[-1]}")
        n = self.n_points
        return {f: x[..., i * n : (i + 1) * n] for i, f in enumerate(FIELDS)}

    def grid_of_cols(self, cols):
        """Grid point of each state column in cols."""
        return np.asarray(cols) % self.n_points

    def cols_at(self, grid_point):
        """The state columns at a grid point, one per field, along a new last
        axis (grid_point may be an array)."""
        offsets = np.arange(len(FIELDS)) * self.n_points
        return np.asarray(grid_point)[..., None] + offsets
