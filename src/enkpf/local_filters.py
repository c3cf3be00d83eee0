"""Localized analyses: LEnKF, NAIVE-LEnKPF, and BLOCK-LEnKPF.

All three read one LocalPlan per cycle, local_plan(obs, grid, l_m,
segment_m), so no filter evaluates a distance or a taper weight: the site
windows (the observations within the taper's length scale l_m, a plain
float), the blocks and every taper weight (support 2l).
LEnKF and NAIVE-LEnKPF share one site loop (_site_loop): an independent
local EnKPF at every grid point on the observations in its window, with
tapered covariance slices. The LEnKF is that loop with gamma held
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

BLOCK-LEnKPF instead partitions the observations into short segments, each
block with its observations, u and v. A block update touches the observed
columns u with a local EnKPF and drags the taper-correlated columns v along
through the conditional regression x_v + P_vu P_uu^{-1} (x_u^a - x_u^b);
every other column (w, beyond the taper support) is untouched bitwise.
Blocks whose (u, v) footprints are disjoint are grouped and may run in any
order (they read and write disjoint columns); per-block rng sub-streams are
spawned up front in block-id order, so serial and parallel execution produce
identical results.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from enkpf.errors import FilterError
from enkpf.global_filters import _check_band, _enkpf_rows_update, _setup, search_gamma
from enkpf.obs import GaussObs
from enkpf.resampling import ess, reorder_to_match, systematic_indices
from enkpf.taper import taper_table, tapered_cov_block

__all__ = [
    "LocalDiagnostics", "LocalPlan", "ObservationBlock", "block_assimilate_one",
    "block_lenkpf_update", "lenkf_update", "local_plan", "naive_lenkpf_update",
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


def _site_loop(ens, plan, rng, ess_lo=None, diagnostics=None):
    """Local EnKPF at every grid point, all sites sharing one _setup.

    With ess_lo set, each site picks its own gamma and its indices are
    reordered toward the previous site's (_local_enkpf), which suppresses
    artificial discontinuities at site boundaries. With ess_lo = None, gamma
    is 1 at every site (the LEnKF). Sites without observations keep their
    background bitwise; they and gamma = 1 sites contribute identity index
    vectors to the sweep.
    """
    obs = plan.obs
    x, innov0, eta_all, er_all, u_shared = _setup(ens, obs, rng)
    k, d = x.shape
    p_cross = tapered_cov_block(x, np.arange(d), obs.h_rows, plan.w_cross)
    s_full = p_cross[obs.h_rows, :]
    identity = np.arange(k)

    out = x.copy()
    idx = identity
    for g, (cols, sel) in enumerate(plan.sites):
        if sel.size == 0:
            idx = identity
            continue
        try:
            out[:, cols], idx = _local_enkpf(
                x[:, cols], innov0[:, sel], obs.r_diag[sel],
                p_cross[np.ix_(cols, sel)], s_full[np.ix_(sel, sel)],
                eta_all[:, sel], er_all[:, sel], ess_lo, u_shared, idx, diagnostics,
            )
        except FilterError as exc:
            raise FilterError(f"site {g}: {exc}") from exc
    return out


def lenkf_update(ens, plan, rng):
    """Local EnKF: the local EnKPF of naive_lenkpf_update with gamma held at 1.

    Every site runs a stochastic EnKF on the observations in its window (see
    LocalPlan); the perturbed observations are drawn once globally, so every
    site sees the same eps_i. Sites with no observations in range keep their
    background values bitwise.
    """
    return _site_loop(ens, plan, rng)


def naive_lenkpf_update(ens, plan, ess_band, rng, diagnostics=None):
    """Local EnKPF at every grid point with shared randomness.

    Each site runs its own adaptive-gamma EnKPF (gamma from the lower end of
    ess_band) on the observations in its window; the per-site resampling
    indices are reordered left to right to agree with the previous site's
    (see _site_loop). diagnostics, if given, records each site's gamma and ESS.
    """
    lo, _ = _check_band(ess_band)
    return _site_loop(ens, plan, rng, ess_lo=lo, diagnostics=diagnostics)


@dataclass(frozen=True)
class ObservationBlock:
    """One block of observations with the state columns its update touches.

    u: state columns read by the block's observations; v: columns with
    nonzero taper weight to some u column (excluding u). The remaining
    columns w have zero taper weight to all of u and keep their values.
    w_oo, w_uo, w_uu, w_vu: the taper weights of s_oo, p_uo, p_uu, p_vu.
    """

    obs: GaussObs
    u: np.ndarray
    v: np.ndarray
    w_oo: np.ndarray
    w_uo: np.ndarray
    w_uu: np.ndarray
    w_vu: np.ndarray


@dataclass(frozen=True)
class LocalPlan:
    """One cycle's localization geometry: each site's columns and window (obs
    rows within l), the (d, m) taper weights w_cross, the blocks and groups."""

    obs: GaussObs
    sites: tuple
    w_cross: np.ndarray
    blocks: tuple
    groups: tuple


def schedule_blocks(blocks):
    """Greedy grouping of blocks with pairwise disjoint (u ∪ v) footprints.

    Returns the ordered groups as a tuple of tuples of block ids. Repeatedly
    starts a group with the lowest-id unscheduled block and adds every later
    unscheduled block whose footprint avoids the group so far.
    """
    footprints = [frozenset(np.concatenate([b.u, b.v]).tolist()) for b in blocks]
    remaining, groups = list(range(len(blocks))), []
    while remaining:
        group, occupied, still = [], set(), []
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


def block_assimilate_one(ens, block, ess_band, rng, diagnostics=None):
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
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows, block.w_oo)
    p_uo = tapered_cov_block(x, block.u, obs.h_rows, block.w_uo)
    x_u, _ = _local_enkpf(
        x[:, block.u], innov0, obs.r_diag, p_uo, s_oo, eta, er, lo, uniform,
        np.arange(x.shape[0]), diagnostics,
    )

    out = x.copy()
    out[:, block.u] = x_u
    if block.v.size:
        p_uu = tapered_cov_block(x, block.u, block.u, block.w_uu)
        p_vu = tapered_cov_block(x, block.v, block.u, block.w_vu)
        m_t = _pinv_regress(p_uu, p_vu, diagnostics)
        out[:, block.v] = x[:, block.v] + (x_u - x[:, block.u]) @ m_t
    return out


def local_plan(obs, grid, l_m, segment_m):
    """The LocalPlan of obs on grid for the taper length scale l_m, in blocks
    of segment_m. One site-by-observation distance matrix selects the windows
    (<= l) and each block's v (< 2l, weight > 0); its ring offsets gather every
    weight from taper_table (which checks l_m), those to u at an observation
    of each u column."""
    obs.check_dim(grid.dim)
    obs_pts = grid.grid_of_cols(obs.h_rows)
    offset = grid.ring_offset(np.arange(grid.n_points)[:, None], obs_pts)
    dist = offset * grid.spacing_m
    weights = taper_table(grid, l_m)[offset]
    sites = tuple((grid.cols_at(g), np.flatnonzero(row <= l_m)) for g, row in enumerate(dist))
    near = dist < 2.0 * l_m
    # a segment no longer than the spacing holds one point, whatever its
    # length; flooring it at the spacing keeps the ids small and finite
    seg = ((obs_pts * grid.spacing_m) // max(segment_m, grid.spacing_m)).astype(int)
    blocks = []
    for s in np.unique(seg):
        rows = np.flatnonzero(seg == s)
        u, first = np.unique(obs.h_rows[rows], return_index=True)
        v = np.setdiff1d(grid.cols_at(np.flatnonzero(near[:, rows].any(axis=1))), u)
        pts_u, pts_v, obs_u = grid.grid_of_cols(u), grid.grid_of_cols(v), rows[first]
        blocks.append(ObservationBlock(
            obs.subset(rows), u, v, weights[np.ix_(obs_pts[rows], rows)],
            weights[np.ix_(pts_u, rows)], weights[np.ix_(pts_u, obs_u)],
            weights[np.ix_(pts_v, obs_u)],
        ))
    w_cross = weights[grid.grid_of_cols(np.arange(grid.dim))]
    return LocalPlan(obs, sites, w_cross, tuple(blocks), schedule_blocks(blocks))


def block_lenkpf_update(ens, plan, ess_band, rng, diagnostics=None):
    """BLOCK-LEnKPF analysis: the LocalPlan's blocks, group by group.

    Blocks inside one schedule group read and write pairwise disjoint
    columns, so their serial execution here equals parallel execution; each
    block consumes its own rng sub-stream, spawned up front in block-id
    order. Across groups the updates are sequential.
    """
    _check_band(ess_band)
    streams = rng.spawn(len(plan.blocks))
    current = np.array(ens, dtype=float)
    for group in plan.groups:
        for bid in group:
            current = block_assimilate_one(current, plan.blocks[bid], ess_band, streams[bid],
                                           diagnostics=diagnostics)
    return current
