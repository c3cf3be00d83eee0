import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import global_filters, local_filters
from enkpf.core import ensemble_moments
from enkpf.errors import FilterError
from enkpf.global_filters import (
    _enkpf_rows_update,
    adaptive_gamma,
    enkf_update,
    enkpf_update,
    pf_weights,
    search_gamma,
)
from enkpf.grid import Grid
from enkpf.local_filters import (
    LocalDiagnostics,
    block_assimilate_one,
    block_lenkpf_update,
    lenkf_update,
    naive_lenkpf_update,
    partition_obs_blocks,
    schedule_blocks,
)
from enkpf.obs import GaussObs
from enkpf.resampling import ess, systematic_indices, weights_from_log
from enkpf.taper import TaperSpec, tapered_cov_block

from oracles import (
    block_w_cols,
    fixed_gamma,
    identity_resample,
    permute_fixed_points,
    tapered_covariance,
    window_size,
)

# no taper, and every site sees every observation
NO_TAPER = TaperSpec(np.inf)


def rain_obs(grid, points, values, r_var=1.0):
    points = np.asarray(points)
    cols = 2 * grid.n_points + points
    return GaussObs(np.asarray(values, float), cols, np.full(points.size, r_var))


def random_ensemble(rng, grid, k):
    return rng.standard_normal((k, grid.dim))


# -------------------------------------------------------------------- windows


def test_window_size_example():
    # a site takes the observations within the taper's length scale l, so one
    # observation updates the 2l/dx + 1 sites around it, not the 4l/dx - 1
    # inside the taper's support
    grid = Grid(300)
    taper = TaperSpec(5000.0)
    assert window_size(taper, grid) == 21
    x = random_ensemble(np.random.default_rng(12), grid, 8)
    obs = rain_obs(grid, [150], [0.5])
    out = lenkf_update(x, obs, taper, grid, np.random.default_rng(13))
    changed = [
        g for g in range(300)
        if not np.array_equal(out[:, grid.cols_at(g)], x[:, grid.cols_at(g)])
    ]
    assert changed == list(range(140, 161))


# ---------------------------------------------------------------------- lenkf


def test_lenkf_global_window_no_taper_matches_global_enkf():
    rng = np.random.default_rng(0)
    grid = Grid(12)
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, [2, 3, 7], [0.5, -0.3, 1.1])
    p = ensemble_moments(x)[1]
    ref = enkf_update(x, obs, p, np.random.default_rng(42))
    out = lenkf_update(x, obs, NO_TAPER, grid, np.random.default_rng(42))
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


def test_lenkf_locality():
    rng = np.random.default_rng(1)
    grid = Grid(40)
    x = random_ensemble(rng, grid, 8)
    taper = TaperSpec(2000.0)
    obs_a = rain_obs(grid, [5, 30], [0.7, -0.4])
    obs_b = rain_obs(grid, [5, 30], [0.7, 5.0])  # only the far obs changes
    out_a = lenkf_update(x, obs_a, taper, grid, np.random.default_rng(9))
    out_b = lenkf_update(x, obs_b, taper, grid, np.random.default_rng(9))
    sees_a = [g for g in range(40) if grid.distance_m(g, 5) <= 2000]
    sees_b = [g for g in range(40) if grid.distance_m(g, 30) <= 2000]
    untouched = [g for g in range(40) if g not in sees_a and g not in sees_b]
    for g in sees_a:
        np.testing.assert_array_equal(out_a[:, grid.cols_at(g)], out_b[:, grid.cols_at(g)])
    assert any(
        not np.array_equal(out_a[:, grid.cols_at(g)], out_b[:, grid.cols_at(g)])
        for g in sees_b
    )
    for g in untouched:
        np.testing.assert_array_equal(out_a[:, grid.cols_at(g)], x[:, grid.cols_at(g)])


def test_lenkf_no_obs_is_noop():
    grid = Grid(6)
    x = random_ensemble(np.random.default_rng(2), grid, 5)
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    out = lenkf_update(x, empty, NO_TAPER, grid, np.random.default_rng(3))
    np.testing.assert_array_equal(out, x)


# --------------------------------------------------------------- naive lenkpf


def test_naive_global_window_no_taper_matches_global_enkpf():
    rng = np.random.default_rng(4)
    grid = Grid(6)
    k = 12
    x = random_ensemble(rng, grid, k)
    obs = rain_obs(grid, [0, 2, 4], [2.0, 2.5, -2.0])
    diag = LocalDiagnostics()
    out = naive_lenkpf_update(
        x,
        obs,
        NO_TAPER,
        grid,
        (0.8, 1.0),
        np.random.default_rng(11),
        diagnostics=diag,
    )

    # reference: one global row update with the identical shared draws
    rng_ref = np.random.default_rng(11)
    eta = rng_ref.standard_normal((k, obs.m))
    er = rng_ref.standard_normal((k, obs.m))
    u_shared = rng_ref.uniform()
    obs_cols = obs.h_rows
    p_cross = tapered_cov_block(x, np.arange(grid.dim), obs_cols, grid, NO_TAPER)
    s_oo = p_cross[obs_cols, :]
    innov0 = obs.y - x[:, obs_cols]
    gamma, alpha = search_gamma(s_oo, obs.r_diag, innov0, 0.8)
    assert 0.0 < gamma < 1.0  # setup sanity: interior gamma
    idx = permute_fixed_points(systematic_indices(alpha, u_shared))
    ref = _enkpf_rows_update(
        x, innov0, obs.r_diag, p_cross, s_oo, gamma, eta, er, idx
    )
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)
    # every site saw the same global problem
    assert len(diag.gammas) == grid.n_points
    assert np.ptp(diag.gammas) == 0.0


def test_naive_gamma_one_sites_equal_lenkf_bitwise():
    # the LEnKF is the local EnKPF at gamma = 1: wherever the naive filter's
    # own search lands on gamma = 1, its columns are the LEnKF's, bit for bit
    rng = np.random.default_rng(30)
    n, k = 30, 10
    grid = Grid(n)
    x = random_ensemble(rng, grid, k)
    points = np.arange(n)
    # huge innovations on the left half push those sites' gamma to 1
    values = x[:, 2 * n + points].mean(axis=0) + np.where(points < n // 2, 1000.0, 0.0)
    obs = rain_obs(grid, points, values)
    taper = TaperSpec(1000.0)
    diag = LocalDiagnostics()
    naive = naive_lenkpf_update(
        x, obs, taper, grid, (0.9, 1.0), np.random.default_rng(1), diag
    )
    local_enkf = lenkf_update(x, obs, taper, grid, np.random.default_rng(1))
    gammas = np.asarray(diag.gammas)
    assert gammas.shape == (n,)  # every site has observations
    assert np.any(gammas == 1.0) and np.any(gammas < 1.0)
    for g in np.flatnonzero(gammas == 1.0):
        cols = grid.cols_at(g)
        np.testing.assert_array_equal(naive[:, cols], local_enkf[:, cols])


def test_naive_adjacent_sites_with_equal_columns_stay_equal():
    # duplicated state columns at neighboring sites must receive identical
    # analyses: shared draws plus the reordering sweep leave no seam
    rng = np.random.default_rng(5)
    grid = Grid(16)
    n = 16
    x = random_ensemble(rng, grid, 10)
    for f in range(3):
        x[:, f * n + 9] = x[:, f * n + 10]
    obs = rain_obs(grid, [12], [1.5])
    out = naive_lenkpf_update(x, obs, NO_TAPER, grid, (0.5, 0.8), np.random.default_rng(6))
    np.testing.assert_array_equal(out[:, grid.cols_at(9)], out[:, grid.cols_at(10)])


def test_naive_locality_and_empty_obs():
    rng = np.random.default_rng(7)
    grid = Grid(20)
    x = random_ensemble(rng, grid, 9)
    obs = rain_obs(grid, [10], [0.9])
    out = naive_lenkpf_update(
        x, obs, TaperSpec(1500.0), grid, (0.5, 0.8), np.random.default_rng(8)
    )
    for g in range(20):
        if grid.distance_m(g, 10) > 1500.0:
            np.testing.assert_array_equal(out[:, grid.cols_at(g)], x[:, grid.cols_at(g)])
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    noop = naive_lenkpf_update(x, empty, NO_TAPER, grid, (0.5, 0.8), np.random.default_rng(8))
    np.testing.assert_array_equal(noop, x)


def test_no_eigh_at_gamma_zero(monkeypatch):
    eigh, calls = global_filters.sla.eigh, []
    weights_from_log, made = global_filters.weights_from_log, []

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    def counting_weights(*args, **kwargs):
        made.append(1)
        return weights_from_log(*args, **kwargs)

    monkeypatch.setattr(global_filters.sla, "eigh", counting_eigh)
    monkeypatch.setattr(global_filters, "weights_from_log", counting_weights)
    grid = Grid(20)
    x = random_ensemble(np.random.default_rng(43), grid, 10)
    obs = rain_obs(grid, [3, 9, 10, 15], [0.2, -0.1, 0.3, 0.0], r_var=1e4)
    diag = LocalDiagnostics()
    naive_lenkpf_update(x, obs, TaperSpec(1500.0), grid, band(), np.random.default_rng(44), diag)
    assert diag.gammas and set(diag.gammas) == {0.0}  # setup sanity
    # one weight vector per site: the gamma = 0 weights that are resampled
    assert len(made) == len(diag.gammas)
    _, w, _ = enkpf_update(x, obs, ensemble_moments(x)[1], 0.0, np.random.default_rng(44))
    assert w.tobytes() == pf_weights(x, obs).tobytes()
    assert calls == []
    # precise observations move sites off gamma = 0: one eigh for each, and
    # the gamma = 0 test and ten midpoints make its 11 weight vectors
    diag, made[:] = LocalDiagnostics(), []
    naive_lenkpf_update(x, rain_obs(grid, [3, 9, 10, 15], [2.0, -1.5, 1.8, 2.5], r_var=0.05),
                        TaperSpec(1500.0), grid, band(), np.random.default_rng(44), diag)
    assert len(calls) == sum(g > 0.0 for g in diag.gammas) > 0
    assert len(made) == sum(11 if g > 0.0 else 1 for g in diag.gammas)


def test_gamma_one_sites_report_the_global_uniform_weights():
    # at k = 7 the uniform weights 1/k and normalized exp(0) differ in the
    # last bit; a site and a global analysis at gamma = 1 report one ESS
    k = 7
    assert np.full(k, 1.0 / k).tobytes() != weights_from_log(np.zeros(k)).tobytes()
    grid = Grid(12)
    x = random_ensemble(np.random.default_rng(47), grid, k)
    obs = rain_obs(grid, [3, 8], [2.0, -1.5], r_var=0.05)
    diag = LocalDiagnostics()
    naive_lenkpf_update(x, obs, NO_TAPER, grid, (1.0, 1.0), np.random.default_rng(48), diag)
    gamma, (_, w, _) = adaptive_gamma(x, obs, ensemble_moments(x)[1], (1.0, 1.0),
                                      np.random.default_rng(48))
    assert gamma == 1.0 and set(diag.gammas) == {1.0}  # setup sanity
    assert w.tobytes() == np.full(k, 1.0 / k).tobytes()
    assert set(diag.ess_values) == {ess(w)}


def overflowing_innovation_case():
    """The other members observe y exactly, and one lies far out, with a tiny R:
    its squared innovation over r overflows float64, the whitened covariance
    (about 1/k of it) does not."""
    grid = Grid(12)
    x = random_ensemble(np.random.default_rng(45), grid, 10)
    obs = rain_obs(grid, [5], [0.0], r_var=1e-9)
    x[:, obs.h_rows[0]] = 0.0
    x[0, obs.h_rows[0]] = 1e150
    return grid, x, obs


@pytest.mark.parametrize("update", ["naive", "block"])
def test_overflowing_innovations_fail_the_local_filters(update):
    grid, x, obs = overflowing_innovation_case()
    taper = TaperSpec(1500.0)
    with pytest.raises(FilterError, match="whitened innovations are not finite"):
        if update == "naive":
            naive_lenkpf_update(x, obs, taper, grid, band(), np.random.default_rng(46))
        else:
            block_lenkpf_update(x, obs, taper, grid, 5000.0, band(), np.random.default_rng(46))


def test_overflowing_innovation_gets_particle_weight_zero():
    _, x, obs = overflowing_innovation_case()
    w = pf_weights(x, obs)
    assert w[0] == 0.0
    np.testing.assert_allclose(w[1:], 1.0 / 9, rtol=1e-15)


def test_naive_band_validation():
    grid = Grid(6)
    x = random_ensemble(np.random.default_rng(0), grid, 5)
    obs = rain_obs(grid, [1], [0.0])
    with pytest.raises(ValueError):
        naive_lenkpf_update(
            x, obs, NO_TAPER, grid, (0.9, 0.5),
            np.random.default_rng(1),
        )


# ------------------------------------------------------------------ u/v/w sets


def test_block_uvw_worked_example():
    grid = Grid(20)  # dx = 500 m
    n = 20
    obs = GaussObs(
        np.zeros(3),
        np.array([2 * n + 4, 2 * n + 5, n + 4]),
        np.ones(3),
    )
    (block,) = partition_obs_blocks(obs, TaperSpec(2000.0), grid, 5000.0)
    np.testing.assert_array_equal(block.u, [n + 4, 2 * n + 4, 2 * n + 5])
    near_pts = sorted(set(range(0, 13)) | {17, 18, 19})
    near_cols = sorted(f * n + p for f in range(3) for p in near_pts)
    np.testing.assert_array_equal(block.v, np.setdiff1d(near_cols, block.u))
    w_pts = [13, 14, 15, 16]
    w = block_w_cols(block, grid)
    np.testing.assert_array_equal(w, sorted(f * n + p for f in range(3) for p in w_pts))
    # the three sets partition the state columns
    assert len(block.u) + len(block.v) + len(w) == grid.dim


def test_partition_obs_blocks_segments():
    grid = Grid(30)
    obs = rain_obs(grid, [2, 9, 10, 25], [0.1, 0.2, 0.3, 0.4])
    blocks = partition_obs_blocks(obs, TaperSpec(1000.0), grid, 5000.0)
    assert len(blocks) == 3
    n = 30
    np.testing.assert_array_equal(blocks[0].u, [2 * n + 2, 2 * n + 9])
    np.testing.assert_array_equal(blocks[1].u, [2 * n + 10])
    np.testing.assert_array_equal(blocks[2].u, [2 * n + 25])


def test_sub_spacing_segments_are_one_point_blocks():
    # any segment at or below the spacing holds one point; a tiny length must
    # not overflow the segment ids into a different block layout
    rng = np.random.default_rng(26)
    grid = Grid(24)  # dx = 500 m
    taper = TaperSpec(1000.0)
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, np.arange(24), rng.standard_normal(24))
    assert len(partition_obs_blocks(obs, taper, grid, 1e-300)) == 24
    tiny, spacing = (
        block_lenkpf_update(x, obs, taper, grid, seg, band(), np.random.default_rng(27))
        for seg in (1e-300, 500.0)
    )
    np.testing.assert_array_equal(tiny, spacing)


# ------------------------------------------------------------------ scheduling


def test_schedule_blocks_properties():
    rng = np.random.default_rng(10)
    grid = Grid(50)
    for _ in range(20):
        pts = np.sort(rng.choice(50, size=rng.integers(3, 10), replace=False))
        obs = rain_obs(grid, pts, np.zeros(pts.size))
        blocks = partition_obs_blocks(obs, TaperSpec(2000.0), grid, 4000.0)
        groups = schedule_blocks(blocks)
        footprints = [set(np.concatenate([b.u, b.v]).tolist()) for b in blocks]
        scheduled = [bid for group in groups for bid in group]
        assert sorted(scheduled) == list(range(len(blocks)))
        for group in groups:
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    assert footprints[a].isdisjoint(footprints[b])
        # greedy maximality: a block in a later group conflicts with every
        # earlier group
        for t, group in enumerate(groups):
            for bid in group:
                for s in range(t):
                    union = set().union(*(footprints[e] for e in groups[s]))
                    assert not footprints[bid].isdisjoint(union)


def test_schedule_ring_of_15_segments_needs_3_groups():
    grid = Grid(300)
    obs = rain_obs(grid, np.arange(300), np.zeros(300))
    blocks = partition_obs_blocks(obs, TaperSpec(5000.0), grid, 10000.0)
    assert len(blocks) == 15
    groups = schedule_blocks(blocks)
    assert groups == ((0, 3, 6, 9, 12), (1, 4, 7, 10, 13), (2, 5, 8, 11, 14))


# ---------------------------------------------------------------- block update


def band():
    return (0.5, 0.8)


def test_block_zero_increment_keeps_everything_bitwise():
    rng = np.random.default_rng(12)
    grid = Grid(20)
    x = random_ensemble(rng, grid, 8)
    obs = rain_obs(grid, [4, 5], [0.7, 0.7])
    x[:, obs.h_rows] = 0.7  # zero innovation for every member
    blocks = partition_obs_blocks(obs, TaperSpec(2000.0), grid, 5000.0)
    out = block_assimilate_one(
        x, blocks[0], TaperSpec(2000.0), grid, band(), np.random.default_rng(13)
    )
    np.testing.assert_array_equal(out, x)


def test_block_w_columns_untouched_bitwise():
    rng = np.random.default_rng(14)
    grid = Grid(30)
    x = random_ensemble(rng, grid, 12)
    obs = rain_obs(grid, [3, 4, 5, 6], [1.0, -0.5, 0.3, 0.8])
    blocks = partition_obs_blocks(obs, TaperSpec(2000.0), grid, 5000.0)
    w = block_w_cols(blocks[0], grid)
    assert w.size > 0
    out = block_assimilate_one(
        x, blocks[0], TaperSpec(2000.0), grid, band(), np.random.default_rng(15)
    )
    np.testing.assert_array_equal(out[:, w], x[:, w])
    assert not np.array_equal(out[:, blocks[0].u], x[:, blocks[0].u])


def test_block_gamma_one_matches_tapered_enkf_on_u_and_v(monkeypatch):
    # with the observed columns inside u, the conditional regression of v is
    # exactly the tapered-gain EnKF row for v (selector identity)
    monkeypatch.setattr(local_filters, "search_gamma", fixed_gamma(1.0))
    rng = np.random.default_rng(16)
    grid = Grid(30)
    taper = TaperSpec(2000.0)
    k = 25
    x = random_ensemble(rng, grid, k)
    obs = rain_obs(grid, [3, 4, 5, 6], [1.0, -0.5, 0.3, 0.8])
    block = partition_obs_blocks(obs, taper, grid, 5000.0)[0]
    out = block_assimilate_one(x, block, taper, grid, band(), np.random.default_rng(17))

    rng_ref = np.random.default_rng(17)
    eta = rng_ref.standard_normal((k, obs.m))
    rng_ref.standard_normal((k, obs.m))  # er draw happens either way
    import scipy.linalg as sla

    cols_uv = np.concatenate([block.u, block.v])
    p_uv_o = tapered_cov_block(x, cols_uv, obs.h_rows, grid, taper)
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows, grid, taper)
    gain = sla.cho_solve(
        sla.cho_factor(s_oo + np.diag(obs.r_diag), lower=True), p_uv_o.T
    ).T
    pert = eta * np.sqrt(obs.r_diag)
    ref = x[:, cols_uv] + (obs.y - x[:, obs.h_rows] + pert) @ gain.T
    np.testing.assert_allclose(out[:, cols_uv], ref, rtol=1e-9, atol=1e-11)


def test_block_equals_full_enkpf_on_tapered_covariance(monkeypatch):
    # one block on a 4-point ring: the block update and the global EnKPF on
    # the full tapered covariance coincide on u and v and leave w bitwise
    gamma = 0.55
    monkeypatch.setattr(local_filters, "search_gamma", fixed_gamma(gamma))
    monkeypatch.setattr(local_filters, "systematic_indices", identity_resample)
    monkeypatch.setattr(global_filters, "systematic_indices", identity_resample)
    rng = np.random.default_rng(18)
    grid = Grid(4)
    taper = TaperSpec(375.0)  # support 750 m < the 1000 m max distance
    n = 4
    k = 9
    x = random_ensemble(rng, grid, k)
    obs = GaussObs(np.array([0.8, -0.6]), np.array([0, 2 * n]), np.array([0.5, 0.8]))
    block = partition_obs_blocks(obs, taper, grid, 2000.0)[0]
    w = block_w_cols(block, grid)
    np.testing.assert_array_equal(w, [2, n + 2, 2 * n + 2])

    out_block = block_assimilate_one(
        x, block, taper, grid, band(), np.random.default_rng(19)
    )
    p_full = tapered_covariance(x, grid, taper).toarray()
    out_full, _, _ = enkpf_update(x, obs, p_full, gamma, np.random.default_rng(19))
    uv = np.concatenate([block.u, block.v])
    np.testing.assert_allclose(out_full[:, uv], out_block[:, uv], rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(out_block[:, w], x[:, w])
    np.testing.assert_array_equal(out_full[:, w], x[:, w])


def test_block_interior_gamma_rebuilt_from_its_stream():
    # the block's stream gives eta, e_R, then the resampling uniform; the
    # indices are the fixed-point permutation of the systematic resample
    rng = np.random.default_rng(28)
    grid = Grid(30)
    taper = TaperSpec(2000.0)
    k = 20
    x = random_ensemble(rng, grid, k)
    obs = rain_obs(grid, [3, 4, 5, 6], [2.0, -1.5, 1.8, 2.5])
    block = partition_obs_blocks(obs, taper, grid, 5000.0)[0]
    diag = LocalDiagnostics()
    out = block_assimilate_one(
        x, block, taper, grid, band(), np.random.default_rng(29), diagnostics=diag
    )

    rng_ref = np.random.default_rng(29)
    eta = rng_ref.standard_normal((k, obs.m))
    er = rng_ref.standard_normal((k, obs.m))
    u = rng_ref.uniform()
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows, grid, taper)
    p_uo = tapered_cov_block(x, block.u, obs.h_rows, grid, taper)
    innov0 = obs.y - x[:, obs.h_rows]
    g, alpha = search_gamma(s_oo, obs.r_diag, innov0, band()[0])
    assert 0.0 < g < 1.0 and diag.gammas == [g]  # setup sanity: interior gamma
    raw = systematic_indices(alpha, u)
    idx = permute_fixed_points(raw)
    assert not np.array_equal(idx, raw)  # the permutation moves some copies
    ref = _enkpf_rows_update(x[:, block.u], innov0, obs.r_diag, p_uo, s_oo, g, eta, er, idx)
    np.testing.assert_array_equal(out[:, block.u], ref)


def test_block_pinv_fallback_on_rank_deficient_p_uu():
    rng = np.random.default_rng(20)
    grid = Grid(20)
    n = 20
    x = random_ensemble(rng, grid, 3)  # sample covariance rank 2 < |u| = 3
    obs = GaussObs(np.array([0.1, 0.2, 0.3]), np.array([0, n, 2 * n]), np.ones(3))
    (block,) = partition_obs_blocks(obs, TaperSpec(2000.0), grid, 5000.0)
    diag = LocalDiagnostics()
    block_assimilate_one(
        x, block, TaperSpec(2000.0), grid, band(),
        np.random.default_rng(21), diagnostics=diag,
    )
    assert diag.pinv_fallbacks >= 1
    assert len(diag.gammas) == 1


def test_block_lenkpf_deterministic_and_empty():
    rng = np.random.default_rng(22)
    grid = Grid(40)
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, [2, 3, 21, 22], [0.5, 0.1, -0.2, 0.9])
    a = block_lenkpf_update(
        x, obs, TaperSpec(2000.0), grid, 5000.0, band(),
        np.random.default_rng(23),
    )
    b = block_lenkpf_update(
        x, obs, TaperSpec(2000.0), grid, 5000.0, band(),
        np.random.default_rng(23),
    )
    np.testing.assert_array_equal(a, b)
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    noop = block_lenkpf_update(
        x, empty, TaperSpec(2000.0), grid, 5000.0, band(),
        np.random.default_rng(23),
    )
    np.testing.assert_array_equal(noop, x)


def test_block_group_execution_order_is_irrelevant():
    # blocks in one schedule group touch disjoint columns and own their rng
    # sub-streams, so running them in reverse gives a bitwise-equal analysis
    rng = np.random.default_rng(24)
    grid = Grid(60)
    taper = TaperSpec(2000.0)
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, [1, 2, 3, 31, 32, 33], [0.4, -0.1, 0.6, 0.2, 0.5, -0.7])
    blocks = partition_obs_blocks(obs, taper, grid, 5000.0)
    groups = schedule_blocks(blocks)
    assert groups == ((0, 1),)

    ref = block_lenkpf_update(
        x, obs, taper, grid, 5000.0, band(), np.random.default_rng(25)
    )

    streams = np.random.default_rng(25).spawn(len(blocks))
    current = x.copy()
    for bid in reversed(groups[0]):
        current = block_assimilate_one(
            current, blocks[bid], taper, grid, band(), streams[bid]
        )
    np.testing.assert_array_equal(current, ref)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(4, 60),
    k=st.integers(3, 12),
    data=st.data(),
)
def test_partition_builds_each_block_in_one_pass(n, k, data):
    # rain observations at random points and wind at random wet ones, in a
    # random order; segments from below the spacing to past the domain
    grid = Grid(n)  # dx = 500 m
    rain = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    wind = data.draw(st.lists(st.sampled_from(rain), max_size=len(rain), unique=True))
    cols = data.draw(st.permutations([2 * n + p for p in rain] + [n + p for p in wind]))
    # l on multiples of dx / 2 puts grid points exactly at the support edge 2l
    l_m = data.draw(st.floats(100.0, 40000.0) | st.integers(1, 80).map(lambda i: 250.0 * i))
    segment_m = data.draw(st.one_of(st.floats(1e-3, 500.0), st.floats(500.0, 50000.0)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    obs = GaussObs(rng.standard_normal(len(cols)), np.array(cols), rng.uniform(0.5, 2.0, len(cols)))
    taper = TaperSpec(l_m)

    blocks = partition_obs_blocks(obs, taper, grid, segment_m)
    # the blocks' observation rows partition all_obs
    def rows(o):
        return list(zip(o.h_rows.tolist(), o.y.tolist(), o.r_diag.tolist()))

    assert sorted(r for b in blocks for r in rows(b.obs)) == sorted(rows(obs))
    everything = np.arange(grid.dim)
    for b in blocks:
        np.testing.assert_array_equal(b.u, np.unique(b.obs.h_rows))
        near = grid.col_distance_m(everything, b.u).min(axis=1) < 2 * l_m
        np.testing.assert_array_equal(b.v, np.setdiff1d(everything[near], b.u))

    # every schedule group run in reverse on the spawned streams gives the
    # bits of block_lenkpf_update
    x = rng.standard_normal((k, grid.dim))
    ref = block_lenkpf_update(x, obs, taper, grid, segment_m, band(),
                              np.random.default_rng(seed))
    streams = np.random.default_rng(seed).spawn(len(blocks))
    current = x
    for group in schedule_blocks(blocks):
        for bid in reversed(group):
            current = block_assimilate_one(current, blocks[bid], taper, grid, band(),
                                           streams[bid])
    assert current.tobytes() == ref.tobytes()


def test_block_band_validation():
    grid = Grid(10)
    x = random_ensemble(np.random.default_rng(0), grid, 5)
    obs = rain_obs(grid, [1], [0.0])
    with pytest.raises(ValueError):
        block_lenkpf_update(
            x, obs, NO_TAPER, grid, 5000.0, (0.0, 0.5),
            np.random.default_rng(1),
        )


# ---------------------------------------------------------------------- draws


def one_block(x, obs, p, grid, taper, rng):
    (block,) = partition_obs_blocks(obs, taper, grid, grid.domain_m)
    return block_assimilate_one(x, block, taper, grid, band(), rng)


# every EnKPF, global or local and at any gamma, draws eta, e_R and the
# resampling uniform, in that order, whatever of them it uses
@pytest.mark.parametrize("update", [
    lambda x, obs, p, grid, taper, rng: enkf_update(x, obs, p, rng),
    lambda x, obs, p, grid, taper, rng: enkpf_update(x, obs, p, 0.0, rng),
    lambda x, obs, p, grid, taper, rng: enkpf_update(x, obs, p, 0.4, rng),
    lambda x, obs, p, grid, taper, rng: enkpf_update(x, obs, p, 1.0, rng),
    lambda x, obs, p, grid, taper, rng: adaptive_gamma(x, obs, p, band(), rng),
    lambda x, obs, p, grid, taper, rng: lenkf_update(x, obs, taper, grid, rng),
    lambda x, obs, p, grid, taper, rng: naive_lenkpf_update(x, obs, taper, grid, band(), rng),
    one_block,
], ids=["enkf", "enkpf_gamma0", "enkpf_gamma0.4", "enkpf_gamma1", "adaptive_gamma",
        "lenkf", "naive_lenkpf", "block"])
def test_every_enkpf_draws_eta_e_r_and_the_uniform(update):
    grid = Grid(12)
    k = 10
    x = random_ensemble(np.random.default_rng(20), grid, k)
    obs = rain_obs(grid, [2, 3, 7], [0.5, -0.3, 1.1])
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    update(x, obs, ensemble_moments(x)[1], grid, TaperSpec(1000.0), rng)
    twin.standard_normal((k, obs.m))
    twin.standard_normal((k, obs.m))
    twin.uniform()
    assert rng.standard_normal(100).tobytes() == twin.standard_normal(100).tobytes()
