import numpy as np
import pytest

from enkpf import global_filters, local_filters
from enkpf.core import ensemble_moments
from enkpf.errors import InvalidBlockError
from enkpf.global_filters import (
    GammaWeightSolver,
    _enkpf_rows_update,
    enkf_update,
    enkpf_update,
    search_gamma,
)
from enkpf.grid import default_layout
from enkpf.local_filters import (
    LocalDiagnostics,
    LocalWindowSpec,
    block_assimilate_one,
    block_lenkpf_update,
    compute_uvw,
    lenkf_update,
    naive_lenkpf_update,
    partition_obs_blocks,
    schedule_blocks,
)
from enkpf.obs import GaussObs
from enkpf.resampling import systematic_indices
from enkpf.taper import TaperSpec, tapered_cov_block

from oracles import (
    block_w_cols,
    fixed_gamma,
    identity_resample,
    permute_fixed_points,
    tapered_covariance,
    window_size,
)

GLOBAL_WINDOW = LocalWindowSpec(1e9)
NO_TAPER = TaperSpec(np.inf)


def rain_obs(layout, points, values, r_var=1.0):
    points = np.asarray(points)
    cols = 2 * layout.geometry.n_points + points
    return GaussObs(np.asarray(values, float), cols, np.full(points.size, r_var))


def random_ensemble(rng, layout, k):
    return rng.standard_normal((k, layout.dim))


# -------------------------------------------------------------------- windows


def test_window_size_example():
    layout = default_layout(300)
    assert window_size(LocalWindowSpec(5000.0), layout.geometry) == 21
    with pytest.raises(ValueError):
        LocalWindowSpec(0.0)


# ---------------------------------------------------------------------- lenkf


def test_lenkf_global_window_no_taper_matches_global_enkf():
    rng = np.random.default_rng(0)
    layout = default_layout(12)
    x = random_ensemble(rng, layout, 10)
    obs = rain_obs(layout, [2, 3, 7], [0.5, -0.3, 1.1])
    p = ensemble_moments(x)[1]
    ref = enkf_update(x, obs, p, np.random.default_rng(42))
    out = lenkf_update(
        x, obs, GLOBAL_WINDOW, NO_TAPER, layout, np.random.default_rng(42)
    )
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


def test_lenkf_locality():
    rng = np.random.default_rng(1)
    layout = default_layout(40)
    x = random_ensemble(rng, layout, 8)
    window = LocalWindowSpec(2000.0)
    taper = TaperSpec(2000.0)
    obs_a = rain_obs(layout, [5, 30], [0.7, -0.4])
    obs_b = rain_obs(layout, [5, 30], [0.7, 5.0])  # only the far obs changes
    out_a = lenkf_update(
        x, obs_a, window, taper, layout, np.random.default_rng(9)
    )
    out_b = lenkf_update(
        x, obs_b, window, taper, layout, np.random.default_rng(9)
    )
    sees_a = [g for g in range(40) if layout.geometry.distance_m(g, 5) <= 2000]
    sees_b = [g for g in range(40) if layout.geometry.distance_m(g, 30) <= 2000]
    untouched = [g for g in range(40) if g not in sees_a and g not in sees_b]
    for g in sees_a:
        np.testing.assert_array_equal(out_a[:, layout.cols_at(g)], out_b[:, layout.cols_at(g)])
    assert any(
        not np.array_equal(out_a[:, layout.cols_at(g)], out_b[:, layout.cols_at(g)])
        for g in sees_b
    )
    for g in untouched:
        np.testing.assert_array_equal(out_a[:, layout.cols_at(g)], x[:, layout.cols_at(g)])


def test_lenkf_no_obs_is_noop():
    layout = default_layout(6)
    x = random_ensemble(np.random.default_rng(2), layout, 5)
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    out = lenkf_update(
        x, empty, GLOBAL_WINDOW, NO_TAPER, layout, np.random.default_rng(3)
    )
    np.testing.assert_array_equal(out, x)


# --------------------------------------------------------------- naive lenkpf


def test_naive_global_window_no_taper_matches_global_enkpf():
    rng = np.random.default_rng(4)
    layout = default_layout(6)
    k = 12
    x = random_ensemble(rng, layout, k)
    obs = rain_obs(layout, [0, 2, 4], [2.0, 2.5, -2.0])
    diag = LocalDiagnostics()
    out = naive_lenkpf_update(
        x,
        obs,
        GLOBAL_WINDOW,
        NO_TAPER,
        layout,
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
    p_cross = tapered_cov_block(x, np.arange(layout.dim), obs_cols, layout, NO_TAPER)
    s_oo = p_cross[obs_cols, :]
    innov0 = obs.y - x[:, obs_cols]
    solver = GammaWeightSolver(s_oo, obs.r_diag, innov0)
    gamma = search_gamma(solver, 0.8, k)
    assert 0.0 < gamma < 1.0  # setup sanity: interior gamma
    idx = permute_fixed_points(systematic_indices(solver.weights(gamma), u_shared))
    ref = _enkpf_rows_update(
        x, innov0, obs.r_diag, p_cross, s_oo, gamma, eta, er, idx
    )
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)
    # every site saw the same full-window problem
    assert len(diag.gammas) == layout.geometry.n_points
    assert np.ptp(diag.gammas) == 0.0


def test_naive_gamma_one_sites_equal_lenkf_bitwise():
    # the LEnKF is the local EnKPF at gamma = 1: wherever the naive filter's
    # own search lands on gamma = 1, its columns are the LEnKF's, bit for bit
    rng = np.random.default_rng(30)
    n, k = 30, 10
    layout = default_layout(n)
    x = random_ensemble(rng, layout, k)
    points = np.arange(n)
    # huge innovations on the left half push those sites' gamma to 1
    values = x[:, 2 * n + points].mean(axis=0) + np.where(points < n // 2, 1000.0, 0.0)
    obs = rain_obs(layout, points, values)
    window, taper = LocalWindowSpec(1000.0), TaperSpec(1000.0)
    diag = LocalDiagnostics()
    naive = naive_lenkpf_update(
        x, obs, window, taper, layout, (0.9, 1.0), np.random.default_rng(1), diag
    )
    local_enkf = lenkf_update(x, obs, window, taper, layout, np.random.default_rng(1))
    gammas = np.asarray(diag.gammas)
    assert gammas.shape == (n,)  # every site has observations
    assert np.any(gammas == 1.0) and np.any(gammas < 1.0)
    for g in np.flatnonzero(gammas == 1.0):
        cols = layout.cols_at(g)
        np.testing.assert_array_equal(naive[:, cols], local_enkf[:, cols])


def test_naive_adjacent_sites_with_equal_columns_stay_equal():
    # duplicated state columns at neighboring sites must receive identical
    # analyses: shared draws plus the reordering sweep leave no seam
    rng = np.random.default_rng(5)
    layout = default_layout(16)
    n = 16
    x = random_ensemble(rng, layout, 10)
    for f in range(3):
        x[:, f * n + 9] = x[:, f * n + 10]
    obs = rain_obs(layout, [12], [1.5])
    out = naive_lenkpf_update(
        x,
        obs,
        LocalWindowSpec(2500.0),
        NO_TAPER,
        layout,
        (0.5, 0.8),
        np.random.default_rng(6),
    )
    np.testing.assert_array_equal(out[:, layout.cols_at(9)], out[:, layout.cols_at(10)])


def test_naive_locality_and_empty_obs():
    rng = np.random.default_rng(7)
    layout = default_layout(20)
    x = random_ensemble(rng, layout, 9)
    obs = rain_obs(layout, [10], [0.9])
    window = LocalWindowSpec(1500.0)
    out = naive_lenkpf_update(
        x, obs, window, TaperSpec(2000.0), layout, (0.5, 0.8),
        np.random.default_rng(8),
    )
    for g in range(20):
        if layout.geometry.distance_m(g, 10) > 1500.0:
            np.testing.assert_array_equal(out[:, layout.cols_at(g)], x[:, layout.cols_at(g)])
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    noop = naive_lenkpf_update(
        x, empty, window, NO_TAPER, layout, (0.5, 0.8), np.random.default_rng(8)
    )
    np.testing.assert_array_equal(noop, x)


def test_naive_band_validation():
    layout = default_layout(6)
    x = random_ensemble(np.random.default_rng(0), layout, 5)
    obs = rain_obs(layout, [1], [0.0])
    with pytest.raises(ValueError):
        naive_lenkpf_update(
            x, obs, GLOBAL_WINDOW, NO_TAPER, layout, (0.9, 0.5),
            np.random.default_rng(1),
        )


# ------------------------------------------------------------------ u/v/w sets


def test_compute_uvw_worked_example():
    layout = default_layout(20)  # dx = 500 m
    n = 20
    obs = GaussObs(
        np.zeros(3),
        np.array([2 * n + 4, 2 * n + 5, n + 4]),
        np.ones(3),
    )
    block = compute_uvw(obs, TaperSpec(2000.0), layout)
    np.testing.assert_array_equal(block.u, [n + 4, 2 * n + 4, 2 * n + 5])
    near_pts = sorted(set(range(0, 13)) | {17, 18, 19})
    near_cols = sorted(f * n + p for f in range(3) for p in near_pts)
    np.testing.assert_array_equal(block.v, np.setdiff1d(near_cols, block.u))
    w_pts = [13, 14, 15, 16]
    w = block_w_cols(block, layout)
    np.testing.assert_array_equal(w, sorted(f * n + p for f in range(3) for p in w_pts))
    # the three sets partition the state columns
    assert len(block.u) + len(block.v) + len(w) == layout.dim


def test_compute_uvw_empty_block_raises():
    layout = default_layout(8)
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    with pytest.raises(InvalidBlockError):
        compute_uvw(empty, NO_TAPER, layout)


def test_partition_obs_blocks_segments():
    layout = default_layout(30)
    obs = rain_obs(layout, [2, 9, 10, 25], [0.1, 0.2, 0.3, 0.4])
    blocks = partition_obs_blocks(obs, TaperSpec(1000.0), layout, 5000.0)
    assert len(blocks) == 3
    n = 30
    np.testing.assert_array_equal(blocks[0].u, [2 * n + 2, 2 * n + 9])
    np.testing.assert_array_equal(blocks[1].u, [2 * n + 10])
    np.testing.assert_array_equal(blocks[2].u, [2 * n + 25])


def test_sub_spacing_segments_are_one_point_blocks():
    # any segment at or below the spacing holds one point; a tiny length must
    # not overflow the segment ids into a different block layout
    rng = np.random.default_rng(26)
    layout = default_layout(24)  # dx = 500 m
    taper = TaperSpec(1000.0)
    x = random_ensemble(rng, layout, 10)
    obs = rain_obs(layout, np.arange(24), rng.standard_normal(24))
    assert len(partition_obs_blocks(obs, taper, layout, 1e-300)) == 24
    tiny, spacing = (
        block_lenkpf_update(x, obs, taper, layout, seg, band(), np.random.default_rng(27))
        for seg in (1e-300, 500.0)
    )
    np.testing.assert_array_equal(tiny, spacing)


# ------------------------------------------------------------------ scheduling


def test_schedule_blocks_properties():
    rng = np.random.default_rng(10)
    layout = default_layout(50)
    for _ in range(20):
        pts = np.sort(rng.choice(50, size=rng.integers(3, 10), replace=False))
        obs = rain_obs(layout, pts, np.zeros(pts.size))
        blocks = partition_obs_blocks(obs, TaperSpec(2000.0), layout, 4000.0)
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
    layout = default_layout(300)
    obs = rain_obs(layout, np.arange(300), np.zeros(300))
    blocks = partition_obs_blocks(obs, TaperSpec(5000.0), layout, 10000.0)
    assert len(blocks) == 15
    groups = schedule_blocks(blocks)
    assert groups == ((0, 3, 6, 9, 12), (1, 4, 7, 10, 13), (2, 5, 8, 11, 14))


# ---------------------------------------------------------------- block update


def band():
    return (0.5, 0.8)


def test_block_zero_increment_keeps_everything_bitwise():
    rng = np.random.default_rng(12)
    layout = default_layout(20)
    x = random_ensemble(rng, layout, 8)
    obs = rain_obs(layout, [4, 5], [0.7, 0.7])
    x[:, obs.h_rows] = 0.7  # zero innovation for every member
    blocks = partition_obs_blocks(obs, TaperSpec(2000.0), layout, 5000.0)
    out = block_assimilate_one(
        x, blocks[0], TaperSpec(2000.0), layout, band(), np.random.default_rng(13)
    )
    np.testing.assert_array_equal(out, x)


def test_block_w_columns_untouched_bitwise():
    rng = np.random.default_rng(14)
    layout = default_layout(30)
    x = random_ensemble(rng, layout, 12)
    obs = rain_obs(layout, [3, 4, 5, 6], [1.0, -0.5, 0.3, 0.8])
    blocks = partition_obs_blocks(obs, TaperSpec(2000.0), layout, 5000.0)
    w = block_w_cols(blocks[0], layout)
    assert w.size > 0
    out = block_assimilate_one(
        x, blocks[0], TaperSpec(2000.0), layout, band(), np.random.default_rng(15)
    )
    np.testing.assert_array_equal(out[:, w], x[:, w])
    assert not np.array_equal(out[:, blocks[0].u], x[:, blocks[0].u])


def test_block_gamma_one_matches_tapered_enkf_on_u_and_v(monkeypatch):
    # with the observed columns inside u, the conditional regression of v is
    # exactly the tapered-gain EnKF row for v (selector identity)
    monkeypatch.setattr(local_filters, "search_gamma", fixed_gamma(1.0))
    rng = np.random.default_rng(16)
    layout = default_layout(30)
    taper = TaperSpec(2000.0)
    k = 25
    x = random_ensemble(rng, layout, k)
    obs = rain_obs(layout, [3, 4, 5, 6], [1.0, -0.5, 0.3, 0.8])
    block = partition_obs_blocks(obs, taper, layout, 5000.0)[0]
    out = block_assimilate_one(x, block, taper, layout, band(), np.random.default_rng(17))

    rng_ref = np.random.default_rng(17)
    eta = rng_ref.standard_normal((k, obs.m))
    rng_ref.standard_normal((k, obs.m))  # er draw happens either way
    import scipy.linalg as sla

    cols_uv = np.concatenate([block.u, block.v])
    p_uv_o = tapered_cov_block(x, cols_uv, obs.h_rows, layout, taper)
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows, layout, taper)
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
    monkeypatch.setattr(global_filters, "balanced_resample", identity_resample)
    rng = np.random.default_rng(18)
    layout = default_layout(4)
    taper = TaperSpec(375.0)  # support 750 m < the 1000 m max distance
    n = 4
    k = 9
    x = random_ensemble(rng, layout, k)
    obs = GaussObs(np.array([0.8, -0.6]), np.array([0, 2 * n]), np.array([0.5, 0.8]))
    block = partition_obs_blocks(obs, taper, layout, 2000.0)[0]
    w = block_w_cols(block, layout)
    np.testing.assert_array_equal(w, [2, n + 2, 2 * n + 2])

    out_block = block_assimilate_one(
        x, block, taper, layout, band(), np.random.default_rng(19)
    )
    p_full = tapered_covariance(x, layout, taper).toarray()
    out_full, _, _ = enkpf_update(x, obs, p_full, gamma, np.random.default_rng(19))
    uv = np.concatenate([block.u, block.v])
    np.testing.assert_allclose(out_full[:, uv], out_block[:, uv], rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(out_block[:, w], x[:, w])
    np.testing.assert_array_equal(out_full[:, w], x[:, w])


def test_block_interior_gamma_rebuilt_from_its_stream():
    # the block's stream gives eta, e_R, then the resampling uniform; the
    # indices are the fixed-point permutation of the systematic resample
    rng = np.random.default_rng(28)
    layout = default_layout(30)
    taper = TaperSpec(2000.0)
    k = 20
    x = random_ensemble(rng, layout, k)
    obs = rain_obs(layout, [3, 4, 5, 6], [2.0, -1.5, 1.8, 2.5])
    block = partition_obs_blocks(obs, taper, layout, 5000.0)[0]
    diag = LocalDiagnostics()
    out = block_assimilate_one(
        x, block, taper, layout, band(), np.random.default_rng(29), diagnostics=diag
    )

    rng_ref = np.random.default_rng(29)
    eta = rng_ref.standard_normal((k, obs.m))
    er = rng_ref.standard_normal((k, obs.m))
    u = rng_ref.uniform()
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows, layout, taper)
    p_uo = tapered_cov_block(x, block.u, obs.h_rows, layout, taper)
    innov0 = obs.y - x[:, obs.h_rows]
    solver = GammaWeightSolver(s_oo, obs.r_diag, innov0)
    g = search_gamma(solver, band()[0], k)
    assert 0.0 < g < 1.0 and diag.gammas == [g]  # setup sanity: interior gamma
    raw = systematic_indices(solver.weights(g), u)
    idx = permute_fixed_points(raw)
    assert not np.array_equal(idx, raw)  # the permutation moves some copies
    ref = _enkpf_rows_update(x[:, block.u], innov0, obs.r_diag, p_uo, s_oo, g, eta, er, idx)
    np.testing.assert_array_equal(out[:, block.u], ref)


def test_block_pinv_fallback_on_rank_deficient_p_uu():
    rng = np.random.default_rng(20)
    layout = default_layout(20)
    n = 20
    x = random_ensemble(rng, layout, 3)  # sample covariance rank 2 < |u| = 3
    obs = GaussObs(np.array([0.1, 0.2, 0.3]), np.array([0, n, 2 * n]), np.ones(3))
    block = compute_uvw(obs, TaperSpec(2000.0), layout)
    diag = LocalDiagnostics()
    block_assimilate_one(
        x, block, TaperSpec(2000.0), layout, band(),
        np.random.default_rng(21), diagnostics=diag,
    )
    assert diag.pinv_fallbacks >= 1
    assert len(diag.gammas) == 1


def test_block_lenkpf_deterministic_and_empty():
    rng = np.random.default_rng(22)
    layout = default_layout(40)
    x = random_ensemble(rng, layout, 10)
    obs = rain_obs(layout, [2, 3, 21, 22], [0.5, 0.1, -0.2, 0.9])
    a = block_lenkpf_update(
        x, obs, TaperSpec(2000.0), layout, 5000.0, band(),
        np.random.default_rng(23),
    )
    b = block_lenkpf_update(
        x, obs, TaperSpec(2000.0), layout, 5000.0, band(),
        np.random.default_rng(23),
    )
    np.testing.assert_array_equal(a, b)
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    noop = block_lenkpf_update(
        x, empty, TaperSpec(2000.0), layout, 5000.0, band(),
        np.random.default_rng(23),
    )
    np.testing.assert_array_equal(noop, x)


def test_block_group_execution_order_is_irrelevant():
    # blocks in one schedule group touch disjoint columns and own their rng
    # sub-streams, so running them in reverse gives a bitwise-equal analysis
    rng = np.random.default_rng(24)
    layout = default_layout(60)
    taper = TaperSpec(2000.0)
    x = random_ensemble(rng, layout, 10)
    obs = rain_obs(layout, [1, 2, 3, 31, 32, 33], [0.4, -0.1, 0.6, 0.2, 0.5, -0.7])
    blocks = partition_obs_blocks(obs, taper, layout, 5000.0)
    groups = schedule_blocks(blocks)
    assert groups == ((0, 1),)

    ref = block_lenkpf_update(
        x, obs, taper, layout, 5000.0, band(), np.random.default_rng(25)
    )

    streams = np.random.default_rng(25).spawn(len(blocks))
    current = x.copy()
    for bid in reversed(groups[0]):
        current = block_assimilate_one(
            current, blocks[bid], taper, layout, band(), streams[bid]
        )
    np.testing.assert_array_equal(current, ref)


def test_block_band_validation():
    layout = default_layout(10)
    x = random_ensemble(np.random.default_rng(0), layout, 5)
    obs = rain_obs(layout, [1], [0.0])
    with pytest.raises(ValueError):
        block_lenkpf_update(
            x, obs, NO_TAPER, layout, 5000.0, (0.0, 0.5),
            np.random.default_rng(1),
        )
