"""Localized analyses: LEnKF, NAIVE-LEnKPF, and BLOCK-LEnKPF.

LEnKF and NAIVE-LEnKPF share one site loop (_site_loop): an independent
local EnKPF at every grid point using only observations inside a local
window, with tapered covariance slices. The LEnKF is that loop with gamma held
at 1, since the EnKPF at gamma = 1 is the EnKF; NAIVE picks gamma per site.
All sites share the same observation perturbations (one global draw) and one
global uniform for resampling, so that neighboring analyses stay as coherent
as the weights allow; the remaining index freedom is removed by a
left-to-right reordering sweep. Every site and block runs the one local EnKPF
step (_local_enkpf): gamma, the weights at gamma, systematic indices reordered
toward a reference index vector, and global_filters._enkpf_rows_update,
which at gamma = 1 is the one EnKF rows update (_enkf_rows).

BLOCK-LEnKPF instead partitions the observations into short segments. Each
segment's block update touches the directly observed columns u with a local
EnKPF and drags the taper-correlated columns v along through the conditional
regression x_v + P_vu P_uu^{-1} (x_u^a - x_u^b); every other column (w,
beyond the taper support) is untouched bitwise. Blocks whose (u, v)
footprints are disjoint are grouped and may run in any order (they read and
write disjoint columns); per-block rng sub-streams are spawned up front in
block-id order, so serial and parallel execution produce identical results.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from enkpf.errors import FilterError, InvalidBlockError
from enkpf.global_filters import (
    GammaWeightSolver,
    _check_band,
    _enkpf_rows_update,
    search_gamma,
)
from enkpf.obs import GaussObs
from enkpf.resampling import ess, reorder_to_match, systematic_indices
from enkpf.taper import tapered_cov_block

__all__ = [
    "LocalDiagnostics",
    "LocalWindowSpec",
    "ObservationBlock",
    "block_assimilate_one",
    "block_lenkpf_update",
    "compute_uvw",
    "lenkf_update",
    "naive_lenkpf_update",
    "schedule_blocks",
]


@dataclass(frozen=True)
class LocalWindowSpec:
    """Observation-gathering radius per grid point (the localization l)."""

    radius_m: float

    def __post_init__(self):
        if not self.radius_m > 0:
            raise ValueError("radius_m must be positive")


@dataclass
class LocalDiagnostics:
    """Per-call diagnostics filled in by the localized updates."""

    gammas: list = field(default_factory=list)
    ess_values: list = field(default_factory=list)
    pinv_fallbacks: int = 0

    def record(self, gamma, ess_value):
        self.gammas.append(float(gamma))
        self.ess_values.append(float(ess_value))


def _obs_geometry(all_obs, layout, radius_m):
    """Per-site observation selections: list of index arrays into obs rows."""
    n = layout.geometry.n_points
    obs_pts = layout.grid_of_cols(all_obs.h_rows)
    dist = layout.geometry.distance_m(np.arange(n)[:, None], obs_pts[None, :])
    return [np.flatnonzero(dist[g] <= radius_m) for g in range(n)]


def _local_enkpf(x_rows, innov0, r_diag, p_ro, s_oo, eta, er, ess_lo, u, prev_idx,
                 diagnostics):
    """One local EnKPF step on x_rows; returns (analysis rows, indices).

    With ess_lo = None gamma is 1 (the EnKF): no weights, no diagnostics.
    Otherwise gamma comes from search_gamma and diagnostics, if given,
    records it with the ESS of its weights. Below gamma = 1 the systematic
    indices for the uniform u are reordered to agree with prev_idx as far as
    the multisets allow; at gamma = 1 they are the identity.
    """
    k = x_rows.shape[0]
    gamma = 1.0
    if ess_lo is not None:
        solver = GammaWeightSolver(s_oo, r_diag, innov0)
        gamma = search_gamma(solver, ess_lo, k)
        alpha = solver.weights(gamma)
        if diagnostics is not None:
            diagnostics.record(gamma, ess(alpha))
    if gamma == 1.0:
        idx = np.arange(k)
    else:
        idx = reorder_to_match(systematic_indices(alpha, u), prev_idx)
    rows = _enkpf_rows_update(x_rows, innov0, r_diag, p_ro, s_oo, gamma, eta, er, idx)
    return rows, idx


def _site_loop(ens, all_obs, window, taper, layout, rng, ess_lo=None, diagnostics=None):
    """Local EnKPF at every grid point, shared draws drawn in the order eta,
    e_R, resampling uniform.

    With ess_lo set, each site picks its own gamma and its indices are
    reordered toward the previous site's (_local_enkpf), which suppresses
    artificial discontinuities at site boundaries. With ess_lo = None, gamma
    is 1 at every site (the LEnKF). Sites without observations keep their
    background bitwise; they and gamma = 1 sites contribute identity index
    vectors to the sweep.
    """
    x = np.asarray(ens, dtype=float)
    k, d = x.shape
    all_obs.check_dim(d)
    obs_cols = all_obs.h_rows
    p_cross = tapered_cov_block(x, np.arange(d), obs_cols, layout, taper)
    s_full = p_cross[obs_cols, :]
    innov0 = all_obs.y - x[:, obs_cols]
    eta_all = rng.standard_normal((k, all_obs.m))
    er_all = rng.standard_normal((k, all_obs.m))
    u_shared = rng.uniform()
    identity = np.arange(k)

    out = x.copy()
    idx = identity
    for g, sel in enumerate(_obs_geometry(all_obs, layout, window.radius_m)):
        if sel.size == 0:
            idx = identity
            continue
        cols = layout.cols_at(g)
        try:
            out[:, cols], idx = _local_enkpf(
                x[:, cols], innov0[:, sel], all_obs.r_diag[sel],
                p_cross[np.ix_(cols, sel)], s_full[np.ix_(sel, sel)],
                eta_all[:, sel], er_all[:, sel], ess_lo, u_shared, idx, diagnostics,
            )
        except FilterError as exc:
            raise FilterError(f"site {g}: {exc}") from exc
    return out


def lenkf_update(ens, all_obs, window, taper, layout, rng):
    """Local EnKF: the local EnKPF of naive_lenkpf_update with gamma held at 1.

    Every site runs a stochastic EnKF on its window observations; the
    perturbed observations are drawn once globally, so every site sees the
    same eps_i. Sites with no observations in range keep their background
    values bitwise.
    """
    return _site_loop(ens, all_obs, window, taper, layout, rng)


def naive_lenkpf_update(ens, all_obs, window, taper, layout, ess_band, rng, diagnostics=None):
    """Local EnKPF at every grid point with shared randomness.

    Each site runs its own adaptive-gamma EnKPF (gamma from the lower end of
    ess_band) on the window observations; the per-site resampling indices
    are reordered left to right to agree with the previous site's (see
    _site_loop). diagnostics, if given, records each site's gamma and ESS.
    """
    lo, _ = _check_band(ess_band)
    return _site_loop(
        ens, all_obs, window, taper, layout, rng, ess_lo=lo, diagnostics=diagnostics
    )


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


def compute_uvw(block_obs, taper, layout):
    """The u and v columns of one observation block (w is the rest)."""
    if block_obs.m == 0:
        raise InvalidBlockError("observation block is empty")
    block_obs.check_dim(layout.dim)
    u = np.unique(block_obs.h_rows)
    u_pts = np.unique(layout.grid_of_cols(u))
    n = layout.geometry.n_points
    dist = layout.geometry.distance_m(np.arange(n)[:, None], u_pts[None, :]).min(axis=1)
    # taper weight > 0 iff distance < 2l (exactly 0 at the support boundary)
    near_pts = np.flatnonzero(dist < taper.support_radius_m)
    v = np.setdiff1d(layout.cols_at(near_pts), u)
    return ObservationBlock(block_obs, u, v)


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


def block_assimilate_one(ens, block, taper, layout, ess_band, rng, diagnostics=None):
    """Assimilate one observation block.

    Adaptive-gamma local EnKPF (_local_enkpf) on the observed columns u,
    drawing eta, e_R and the resampling uniform in that order, with indices
    reordered toward the identity to maximize fixed points; correlated
    columns v follow through the conditional regression against the tapered
    P_uu; all other columns are untouched.
    """
    lo, _ = _check_band(ess_band)
    x = np.asarray(ens, dtype=float)
    k, d = x.shape
    block.obs.check_dim(d)
    obs = block.obs
    m = obs.m
    if m == 0:
        raise InvalidBlockError("observation block is empty")
    obs_cols = obs.h_rows
    s_oo = tapered_cov_block(x, obs_cols, obs_cols, layout, taper)
    p_uo = tapered_cov_block(x, block.u, obs_cols, layout, taper)
    innov0 = obs.y - x[:, obs_cols]
    eta = rng.standard_normal((k, m))
    er = rng.standard_normal((k, m))
    x_u, _ = _local_enkpf(
        x[:, block.u], innov0, obs.r_diag, p_uo, s_oo, eta, er, lo, rng.uniform(),
        np.arange(k), diagnostics,
    )

    out = x.copy()
    out[:, block.u] = x_u
    if block.v.size:
        p_uu = tapered_cov_block(x, block.u, block.u, layout, taper)
        p_vu = tapered_cov_block(x, block.v, block.u, layout, taper)
        m_t = _pinv_regress(p_uu, p_vu, diagnostics)
        out[:, block.v] = x[:, block.v] + (x_u - x[:, block.u]) @ m_t
    return out


def partition_obs_blocks(all_obs, taper, layout, segment_length_m):
    """Split observations into contiguous-segment blocks with their u/v sets."""
    if all_obs.m == 0:
        return []
    obs_pts = layout.grid_of_cols(all_obs.h_rows)
    spacing = layout.geometry.spacing_m
    # a segment no longer than the spacing holds one point, whatever its
    # length; flooring it at the spacing keeps the ids small and finite
    seg = ((obs_pts * spacing) // max(segment_length_m, spacing)).astype(int)
    blocks = []
    for s in np.unique(seg):
        rows = np.flatnonzero(seg == s)
        blocks.append(compute_uvw(all_obs.subset(rows), taper, layout))
    return blocks


def block_lenkpf_update(
    ens, all_obs, taper, layout, segment_length_m, ess_band, rng, diagnostics=None
):
    """BLOCK-LEnKPF analysis: segment blocks, schedule, assimilate group-wise.

    Blocks inside one schedule group read and write pairwise disjoint
    columns, so their serial execution here equals parallel execution; each
    block consumes its own rng sub-stream, spawned up front in block-id
    order. Across groups the updates are sequential, reusing the same taper.
    """
    _check_band(ess_band)
    x = np.asarray(ens, dtype=float)
    all_obs.check_dim(x.shape[1])
    blocks = partition_obs_blocks(all_obs, taper, layout, segment_length_m)
    if not blocks:
        return x.copy()
    streams = rng.spawn(len(blocks))
    current = x
    for group in schedule_blocks(blocks):
        for bid in group:
            current = block_assimilate_one(
                current,
                blocks[bid],
                taper,
                layout,
                ess_band,
                streams[bid],
                diagnostics=diagnostics,
            )
    return current
