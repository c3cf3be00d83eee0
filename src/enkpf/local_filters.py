"""Localized analyses: LEnKF, NAIVE-LEnKPF, and BLOCK-LEnKPF.

LEnKF and NAIVE-LEnKPF share one site loop (_site_loop): an independent
local EnKPF at every grid point using only the observations within the
taper's length scale l, with tapered covariance slices (support 2l), so one
TaperSpec sets the localization. The LEnKF is that loop with gamma held
at 1, since the EnKPF at gamma = 1 is the EnKF; NAIVE picks gamma per site.
All sites share the same observation perturbations (one global draw) and one
global uniform for resampling, so that neighboring analyses stay as coherent
as the weights allow; the remaining index freedom is removed by a
left-to-right reordering sweep. The site loop and each block start from the
one set-up of every EnKPF, global_filters._setup, which draws eta, e_R and
the resampling uniform. Every site and block runs the one local EnKPF step
(_local_enkpf): gamma and the weights at it from global_filters.search_gamma,
systematic indices reordered toward a reference index vector, and
global_filters._enkpf_rows_update, which at gamma = 1 is the one EnKF rows
update (_enkf_rows).

BLOCK-LEnKPF instead partitions the observations into short segments and
builds each block's observations, u and v in one pass (partition_obs_blocks).
A block update touches the observed columns u with a local EnKPF and drags
the taper-correlated columns v along through the conditional regression
x_v + P_vu P_uu^{-1} (x_u^a - x_u^b); every other column (w, beyond the
taper support) is untouched bitwise. Blocks whose (u, v) footprints are
disjoint are grouped and may run in any order (they read and write disjoint
columns); per-block rng sub-streams are spawned up front in block-id order,
so serial and parallel execution produce identical results. Every update
takes the state's enkpf.grid.Grid: the columns at each site and the circular
distances of the windows and the taper are its.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from enkpf.errors import FilterError
from enkpf.global_filters import _check_band, _enkpf_rows_update, _setup, search_gamma
from enkpf.obs import GaussObs
from enkpf.resampling import ess, reorder_to_match, systematic_indices
from enkpf.taper import tapered_cov_block

__all__ = [
    "LocalDiagnostics",
    "ObservationBlock",
    "block_assimilate_one",
    "block_lenkpf_update",
    "lenkf_update",
    "naive_lenkpf_update",
    "schedule_blocks",
]


@dataclass
class LocalDiagnostics:
    """Per-call diagnostics filled in by the localized updates."""

    gammas: list = field(default_factory=list)
    ess_values: list = field(default_factory=list)
    pinv_fallbacks: int = 0

    def record(self, gamma, ess_value):
        self.gammas.append(float(gamma))
        self.ess_values.append(float(ess_value))


def _obs_geometry(all_obs, grid, taper):
    """Per-site observation selections, index arrays into the obs rows: the
    observations within the taper's length scale l of each grid point (all of
    them for TaperSpec(inf))."""
    n = grid.n_points
    obs_pts = grid.grid_of_cols(all_obs.h_rows)
    dist = grid.distance_m(np.arange(n)[:, None], obs_pts[None, :])
    return [np.flatnonzero(dist[g] <= taper.length_scale_m) for g in range(n)]


def _local_enkpf(x_rows, innov0, r_diag, p_ro, s_oo, eta, er, ess_lo, u, prev_idx,
                 diagnostics):
    """One local EnKPF step on x_rows; returns (analysis rows, indices).

    With ess_lo = None gamma is 1 (the EnKF): no weights, no diagnostics.
    Otherwise search_gamma gives gamma and the weights at it, and
    diagnostics, if given, records gamma with their ESS. Below gamma = 1 the
    systematic indices for the uniform u are reordered to agree with
    prev_idx as far as the multisets allow; at gamma = 1 they are the
    identity.
    """
    gamma = 1.0
    if ess_lo is not None:
        gamma, alpha = search_gamma(s_oo, r_diag, innov0, ess_lo)
        if diagnostics is not None:
            diagnostics.record(gamma, ess(alpha))
    if gamma == 1.0:
        idx = np.arange(x_rows.shape[0])
    else:
        idx = reorder_to_match(systematic_indices(alpha, u), prev_idx)
    rows = _enkpf_rows_update(x_rows, innov0, r_diag, p_ro, s_oo, gamma, eta, er, idx)
    return rows, idx


def _site_loop(ens, all_obs, taper, grid, rng, ess_lo=None, diagnostics=None):
    """Local EnKPF at every grid point, all sites sharing one _setup.

    With ess_lo set, each site picks its own gamma and its indices are
    reordered toward the previous site's (_local_enkpf), which suppresses
    artificial discontinuities at site boundaries. With ess_lo = None, gamma
    is 1 at every site (the LEnKF). Sites without observations keep their
    background bitwise; they and gamma = 1 sites contribute identity index
    vectors to the sweep.
    """
    x, innov0, eta_all, er_all, u_shared = _setup(ens, all_obs, rng)
    k, d = x.shape
    obs_cols = all_obs.h_rows
    p_cross = tapered_cov_block(x, np.arange(d), obs_cols, grid, taper)
    s_full = p_cross[obs_cols, :]
    identity = np.arange(k)

    out = x.copy()
    idx = identity
    for g, sel in enumerate(_obs_geometry(all_obs, grid, taper)):
        if sel.size == 0:
            idx = identity
            continue
        cols = grid.cols_at(g)
        try:
            out[:, cols], idx = _local_enkpf(
                x[:, cols], innov0[:, sel], all_obs.r_diag[sel],
                p_cross[np.ix_(cols, sel)], s_full[np.ix_(sel, sel)],
                eta_all[:, sel], er_all[:, sel], ess_lo, u_shared, idx, diagnostics,
            )
        except FilterError as exc:
            raise FilterError(f"site {g}: {exc}") from exc
    return out


def lenkf_update(ens, all_obs, taper, grid, rng):
    """Local EnKF: the local EnKPF of naive_lenkpf_update with gamma held at 1.

    Every site runs a stochastic EnKF on the observations within l; the
    perturbed observations are drawn once globally, so every site sees the
    same eps_i. Sites with no observations in range keep their background
    values bitwise.
    """
    return _site_loop(ens, all_obs, taper, grid, rng)


def naive_lenkpf_update(ens, all_obs, taper, grid, ess_band, rng, diagnostics=None):
    """Local EnKPF at every grid point with shared randomness.

    Each site runs its own adaptive-gamma EnKPF (gamma from the lower end of
    ess_band) on the observations within l; the per-site resampling indices
    are reordered left to right to agree with the previous site's (see
    _site_loop). diagnostics, if given, records each site's gamma and ESS.
    """
    lo, _ = _check_band(ess_band)
    return _site_loop(ens, all_obs, taper, grid, rng, ess_lo=lo, diagnostics=diagnostics)


@dataclass(frozen=True)
class ObservationBlock:
    """One block of observations with the state columns its update touches.

    u: state columns read by the block's observations; v: columns with
    nonzero taper weight to some u column (excluding u). The remaining
    columns w have zero taper weight to all of u and keep their values.
    """

    obs: GaussObs
    u: np.ndarray
    v: np.ndarray


def schedule_blocks(blocks):
    """Greedy grouping of blocks with pairwise disjoint (u ∪ v) footprints.

    Returns the ordered groups as a tuple of tuples of block ids. Repeatedly
    starts a group with the lowest-id unscheduled block and adds every later
    unscheduled block whose footprint avoids the group so far.
    """
    footprints = [frozenset(np.concatenate([b.u, b.v]).tolist()) for b in blocks]
    remaining = list(range(len(blocks)))
    groups = []
    while remaining:
        seed = remaining.pop(0)
        group = [seed]
        occupied = set(footprints[seed])
        still = []
        for bid in remaining:
            if occupied.isdisjoint(footprints[bid]):
                group.append(bid)
                occupied |= footprints[bid]
            else:
                still.append(bid)
        remaining = still
        groups.append(tuple(group))
    return tuple(groups)


def _pinv_regress(p_uu, p_vu, diagnostics=None):
    """M' with M = P_vu P_uu^{-1}, via eigen-truncated generalized inverse."""
    lam, vecs = sla.eigh(p_uu)
    lam_max = lam.max() if lam.size else 0.0
    keep = lam > 1e-10 * max(lam_max, 0.0)
    if not keep.all() and diagnostics is not None:
        diagnostics.pinv_fallbacks += 1
    if not keep.any():
        return np.zeros((p_uu.shape[0], p_vu.shape[0]))
    vk = vecs[:, keep]
    return vk @ ((vk.T @ p_vu.T) / lam[keep][:, None])


def block_assimilate_one(ens, block, taper, grid, ess_band, rng, diagnostics=None):
    """Assimilate one observation block.

    Adaptive-gamma local EnKPF (_local_enkpf, set up by _setup) on the
    observed columns u, with indices reordered toward the identity to
    maximize fixed points; correlated columns v follow through the
    conditional regression against the tapered P_uu; all other columns are
    untouched.
    """
    lo, _ = _check_band(ess_band)
    obs = block.obs
    x, innov0, eta, er, uniform = _setup(ens, obs, rng)
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows, grid, taper)
    p_uo = tapered_cov_block(x, block.u, obs.h_rows, grid, taper)
    x_u, _ = _local_enkpf(
        x[:, block.u], innov0, obs.r_diag, p_uo, s_oo, eta, er, lo, uniform,
        np.arange(x.shape[0]), diagnostics,
    )

    out = x.copy()
    out[:, block.u] = x_u
    if block.v.size:
        p_uu = tapered_cov_block(x, block.u, block.u, grid, taper)
        p_vu = tapered_cov_block(x, block.v, block.u, grid, taper)
        m_t = _pinv_regress(p_uu, p_vu, diagnostics)
        out[:, block.v] = x[:, block.v] + (x_u - x[:, block.u]) @ m_t
    return out


def partition_obs_blocks(all_obs, taper, grid, segment_length_m):
    """Split observations into contiguous-segment blocks, building each block's
    obs, u and v in one pass over the segments."""
    all_obs.check_dim(grid.dim)
    obs_pts = grid.grid_of_cols(all_obs.h_rows)
    n = grid.n_points
    spacing = grid.spacing_m
    # taper weight > 0 iff distance < 2l (exactly 0 at the support boundary)
    near = grid.distance_m(np.arange(n)[:, None], obs_pts) < taper.support_radius_m
    # a segment no longer than the spacing holds one point, whatever its
    # length; flooring it at the spacing keeps the ids small and finite
    seg = ((obs_pts * spacing) // max(segment_length_m, spacing)).astype(int)
    blocks = []
    for s in np.unique(seg):
        rows = np.flatnonzero(seg == s)
        u = np.unique(all_obs.h_rows[rows])
        v = np.setdiff1d(grid.cols_at(np.flatnonzero(near[:, rows].any(axis=1))), u)
        blocks.append(ObservationBlock(all_obs.subset(rows), u, v))
    return blocks


def block_lenkpf_update(
    ens, all_obs, taper, grid, segment_length_m, ess_band, rng, diagnostics=None
):
    """BLOCK-LEnKPF analysis: segment blocks, schedule, assimilate group-wise.

    Blocks inside one schedule group read and write pairwise disjoint
    columns, so their serial execution here equals parallel execution; each
    block consumes its own rng sub-stream, spawned up front in block-id
    order. Across groups the updates are sequential, reusing the same taper.
    """
    _check_band(ess_band)
    blocks = partition_obs_blocks(all_obs, taper, grid, segment_length_m)
    streams = rng.spawn(len(blocks))
    current = np.array(ens, dtype=float)
    for group in schedule_blocks(blocks):
        for bid in group:
            current = block_assimilate_one(current, blocks[bid], taper, grid, ess_band,
                                           streams[bid], diagnostics=diagnostics)
    return current
