"""Localized analyses: LEnKF, NAIVE-LEnKPF, and BLOCK-LEnKPF.

All three read one LocalPlan per cycle, local_plan(obs, grid, l_m,
segment_m), so no filter evaluates a distance or a taper weight: the site
windows (the observations within the taper's length scale l_m, a plain
float, as one padded (n, w_max) index array), the blocks and every taper
weight (support 2l).
LEnKF and NAIVE-LEnKPF run an independent local analysis at every grid point
on the observations in its window, from one global_filters._setup (shared
observation perturbations and one resampling uniform, so neighboring analyses
stay as coherent as the weights allow) and one tapered P[:, H] block.
lenkf_update holds gamma at 1: one EnKF rows update (_enkf_rows) per site.
naive_lenkpf_update picks gamma per site, in passes: pass 1 tests gamma = 0
at every site at once (_gamma_zero_screen), as search_gamma would; pass 2
runs the local EnKPF step (_local_enkpf: search_gamma, the reordered
systematic indices and _enkpf_rows_update) only where that test fails;
pass 3 sweeps left to right, reordering each site's indices toward the
previous site's, and gathers the rows of all gamma = 0 sites at once, byte
for byte the one-site-at-a-time loop of tests/oracles.site_loop. The helpers
return gamma, ESS and pinv truncations; the public filters record them.

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

from enkpf.core import _chol, _eigh
from enkpf.errors import FilterError
from enkpf.global_filters import _check_band, _enkf_rows, _enkpf_rows_update, _setup, search_gamma
from enkpf.obs import GaussObs
from enkpf.resampling import ess, reorder_to_match, systematic_indices, weights_from_log
from enkpf.taper import taper_table, tapered_cov_block

__all__ = ["LocalDiagnostics", "LocalPlan", "ObservationBlock", "block_assimilate_one",
           "block_lenkpf_update", "lenkf_update", "local_plan", "naive_lenkpf_update",
           "schedule_blocks"]


@dataclass
class LocalDiagnostics:
    """Per-call diagnostics filled in by the localized updates."""

    gammas: list = field(default_factory=list)
    ess_values: list = field(default_factory=list)
    pinv_fallbacks: int = 0

    def record(self, gamma, ess_value):
        self.gammas.append(float(gamma))
        self.ess_values.append(float(ess_value))


def _local_enkpf(x_rows, innov0, r_diag, p_ro, s_oo, eta, er, ess_lo, u, prev_idx):
    """One local EnKPF step on x_rows; returns (analysis rows, indices, gamma, ESS).

    gamma and the weights at it come from search_gamma, the ESS is theirs;
    below gamma = 1 the systematic indices for u are reordered toward
    prev_idx, at gamma = 1 they are the identity.
    """
    gamma, alpha = search_gamma(s_oo, r_diag, innov0, ess_lo)
    ess_value = ess(alpha)
    if gamma == 1.0:
        idx = np.arange(x_rows.shape[0])
    else:
        idx = reorder_to_match(systematic_indices(alpha, u), prev_idx)
    rows = _enkpf_rows_update(x_rows, innov0, r_diag, p_ro, s_oo, gamma, eta, er, idx)
    return rows, idx, gamma, ess_value


def _gamma_zero_screen(innov0, r_diag, s_full, plan, lo_frac, u):
    """search_gamma's gamma = 0 test at every site at once: (sites, ess, idx) of
    the sites whose particle-filter weights pass its checks and reach lo_frac
    * k. Each window's terms are summed in window order, as a site's own sum
    runs (the padding m adds +0.0), so each row is the site's bit for bit. One
    check of the whole whitened S serves every site; its entries (inv_i * s_ij)
    * inv_j are made only if the largest factors' product, their bound, overflows."""
    k, inv_sqrt_r = innov0.shape[0], 1.0 / np.sqrt(r_diag)
    big_s = max(s_full.max(initial=0.0), -s_full.min(initial=0.0))
    big_inv = inv_sqrt_r.max(initial=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        white_ok = (np.isfinite(big_inv * big_s * big_inv)
                    or np.isfinite(inv_sqrt_r[:, None] * s_full * inv_sqrt_r).all())
        q = np.zeros((r_diag.size + 1, k))
        q[:-1] = (innov0 * innov0 / r_diag).T
        log_pf = np.zeros((plan.windows.shape[0], k))
        for obs_rows in plan.windows.T:
            log_pf += q[obs_rows]
    log_pf *= -0.5
    sites = np.flatnonzero((plan.sizes > 0) & np.isfinite(log_pf.min(axis=1)) & white_ok)
    alpha = weights_from_log(log_pf[sites])
    ess_values = ess(alpha)
    keep = ess_values >= lo_frac * k
    return sites[keep], ess_values[keep], systematic_indices(alpha[keep], u)


def lenkf_update(ens, plan, rng):
    """Local EnKF: the local EnKPF of naive_lenkpf_update with gamma held at 1.

    Every site runs a stochastic EnKF on the observations in its window, all
    with the same eps_i, drawn once: one _chol and one EnKF rows update per
    site. Sites with none keep their background.
    """
    obs = plan.obs
    x, innov0, eta, _, _ = _setup(ens, obs, rng)
    p_cross = tapered_cov_block(x, np.arange(x.shape[1]), obs.h_rows, plan.w_cross)
    s_full = p_cross[obs.h_rows, :]
    out = x.copy()
    perturbed = innov0 + eta * np.sqrt(obs.r_diag)
    for g in np.flatnonzero(plan.sizes):
        cols, sel = plan.site_cols[g], plan.windows[g, :plan.sizes[g]]
        s_plus_r = s_full[sel[:, None], sel] + np.diag(obs.r_diag[sel])
        try:
            factor = _chol(s_plus_r, "innovation covariance")
            out[:, cols] = _enkf_rows(x[:, cols], perturbed[:, sel],
                                      p_cross[cols[:, None], sel], factor)
        except FilterError as exc:
            raise FilterError(f"site {g}: {exc}") from exc
    return out


def naive_lenkpf_update(ens, plan, ess_band, rng, diagnostics=None):
    """Local EnKPF at every grid point with shared randomness.

    Each site runs its own adaptive-gamma EnKPF (gamma from the lower end of
    ess_band) on its window, in the passes of the module docstring. Sites
    without observations keep their background and, like gamma = 1 sites,
    pass the identity on. diagnostics, if given, records each observed
    site's gamma and ESS.
    """
    lo, _ = _check_band(ess_band)
    obs = plan.obs
    x, innov0, eta, er, u = _setup(ens, obs, rng)
    p_cross = tapered_cov_block(x, np.arange(x.shape[1]), obs.h_rows, plan.w_cross)
    s_full = p_cross[obs.h_rows, :]
    out = x.copy()
    screened, ess0, idx0 = _gamma_zero_screen(innov0, obs.r_diag, s_full, plan, lo, u)
    row_of = np.full(plan.sizes.shape, -1)
    row_of[screened] = np.arange(screened.size)
    idx = identity = np.arange(x.shape[0])
    swept = np.empty((identity.size, screened.size), dtype=np.intp)
    for g, (size, row) in enumerate(zip(plan.sizes.tolist(), row_of.tolist())):
        if size == 0:
            idx = identity
            continue
        if row >= 0:
            idx = swept[:, row] = reorder_to_match(idx0[row], idx)
            gamma, ess_value = 0.0, ess0[row]
        else:
            cols, sel = plan.site_cols[g], plan.windows[g, :size]
            try:
                out[:, cols], idx, gamma, ess_value = _local_enkpf(
                    x[:, cols], innov0[:, sel], obs.r_diag[sel], p_cross[cols[:, None], sel],
                    s_full[sel[:, None], sel], eta[:, sel], er[:, sel], lo, u, idx)
            except FilterError as exc:
                raise FilterError(f"site {g}: {exc}") from exc
        if diagnostics is not None:
            diagnostics.record(gamma, ess_value)
    cols = plan.site_cols[screened]
    out[:, cols] = x[swept[:, :, None], cols]
    return out


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
    """One cycle's localization geometry: each grid point g's state columns
    site_cols[g] and window, its obs rows within l, as windows[g, :sizes[g]]
    (padded with m); the (d, m) taper weights w_cross, the blocks and groups."""

    obs: GaussObs
    site_cols: np.ndarray
    windows: np.ndarray
    sizes: np.ndarray
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


def _pinv_regress(p_uu, p_vu):
    """(M', truncated): M = P_vu P_uu^{-1} via the eigen-truncated generalized
    inverse, and whether it dropped an eigenvalue (a pinv fallback)."""
    lam, vecs = _eigh(p_uu)
    lam_max = lam.max() if lam.size else 0.0
    keep = lam > 1e-10 * max(lam_max, 0.0)
    truncated = not keep.all()
    if not keep.any():
        return np.zeros((p_uu.shape[0], p_vu.shape[0])), truncated
    vk = vecs[:, keep]
    return vk @ ((vk.T @ p_vu.T) / lam[keep][:, None]), truncated


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
    x_u, _, gamma, ess_value = _local_enkpf(x[:, block.u], innov0, obs.r_diag, p_uo, s_oo, eta,
                                            er, lo, uniform, np.arange(x.shape[0]))
    if diagnostics is not None:
        diagnostics.record(gamma, ess_value)

    out = x.copy()
    out[:, block.u] = x_u
    if block.v.size:
        p_uu = tapered_cov_block(x, block.u, block.u, block.w_uu)
        p_vu = tapered_cov_block(x, block.v, block.u, block.w_vu)
        m_t, truncated = _pinv_regress(p_uu, p_vu)
        if truncated and diagnostics is not None:
            diagnostics.pinv_fallbacks += 1
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
    within = dist <= l_m
    sizes = np.count_nonzero(within, axis=1)
    windows = np.full((grid.n_points, sizes.max(initial=0)), obs.m)
    site, obs_row = np.nonzero(within)
    windows[site, np.arange(obs_row.size) - (np.cumsum(sizes) - sizes)[site]] = obs_row
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
    return LocalPlan(obs, grid.cols_at(np.arange(grid.n_points)), windows, sizes, w_cross,
                     tuple(blocks), schedule_blocks(blocks))


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
