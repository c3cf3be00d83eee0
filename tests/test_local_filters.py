import math

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
    pf_weights,
    search_gamma,
)
from enkpf.grid import Grid
from enkpf.local_filters import (
    LocalDiagnostics,
    block_assimilate_one,
    block_lenkpf_update,
    lenkf_update,
    local_plan,
    naive_lenkpf_update,
    schedule_blocks,
)
from enkpf.obs import GaussObs
from enkpf.resampling import ess, systematic_indices, weights_from_log
from enkpf.taper import tapered_cov_block

from oracles import (
    block_w_cols,
    distance_m,
    enkpf_update,
    fixed_gamma,
    identity_resample,
    permute_fixed_points,
    site_loop,
    taper_block,
    tapered_covariance,
    window_size,
)

# no taper, and every site sees every observation
NO_TAPER = math.inf


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
    l_m = 5000.0
    assert window_size(l_m, grid) == 21
    x = random_ensemble(np.random.default_rng(12), grid, 8)
    obs = rain_obs(grid, [150], [0.5])
    out = lenkf_update(x, local_plan(obs, grid, l_m, 5000.0), np.random.default_rng(13))
    changed = [
        g for g in range(300)
        if not np.array_equal(out[:, grid.cols_at(g)], x[:, grid.cols_at(g)])
    ]
    assert changed == list(range(140, 161))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40), data=st.data())
def test_plan_weights_are_the_oracle_taper_and_its_sets_the_distances(n, data):
    # every taper block of the plan is the full taper's block bit for bit, and
    # the windows, each block's obs, u and v are what the distances select;
    # l on multiples of dx / 2 puts grid points exactly at l and at 2l
    spacing = data.draw(st.floats(1.0, 5000.0))
    grid = Grid(n, spacing)
    half_steps = st.integers(1, 2 * n + 2).map(lambda i: i * (spacing / 2))
    l_m = data.draw(half_steps | st.just(np.inf))
    cols = np.array(data.draw(st.lists(st.integers(0, grid.dim - 1), max_size=2 * n)), dtype=int)
    segment_m = data.draw(st.floats(1e-3, 3 * grid.domain_m))
    obs = GaussObs(np.arange(cols.size, dtype=float), cols, np.ones(cols.size))
    plan = local_plan(obs, grid, l_m, segment_m)

    def same(weights, a, b):
        ref = taper_block(grid, l_m, a, b)
        return weights.shape == ref.shape and weights.tobytes() == ref.tobytes()

    assert same(plan.w_cross, np.arange(grid.dim), cols)
    obs_pts = grid.grid_of_cols(cols)
    # each site's window ascending, padded with m up to the longest window
    assert plan.windows.shape == (n, plan.sizes.max(initial=0))
    for g in range(n):
        np.testing.assert_array_equal(plan.site_cols[g], grid.cols_at(g))
        window = np.flatnonzero(distance_m(grid, g, obs_pts) <= l_m)
        assert plan.sizes[g] == window.size
        np.testing.assert_array_equal(plan.windows[g, :window.size], window)
        assert (plan.windows[g, window.size:] == cols.size).all()
    seg = (obs_pts * spacing) // max(segment_m, spacing)
    assert len(plan.blocks) == len(np.unique(seg))
    everything = np.arange(grid.dim)
    for b, s in zip(plan.blocks, np.unique(seg)):
        # y numbers the observations, so it names the rows a block holds
        np.testing.assert_array_equal(b.obs.y, np.flatnonzero(seg == s))
        np.testing.assert_array_equal(b.u, np.unique(b.obs.h_rows))
        pts_u = grid.grid_of_cols(b.u)
        dist = distance_m(grid, grid.grid_of_cols(everything)[:, None], pts_u[None, :])
        near = dist.min(axis=1) < 2.0 * l_m
        np.testing.assert_array_equal(b.v, np.setdiff1d(everything[near], b.u))
        h = b.obs.h_rows
        assert same(b.w_oo, h, h) and same(b.w_uo, b.u, h)
        assert same(b.w_uu, b.u, b.u) and same(b.w_vu, b.v, b.u)
    assert plan.groups == schedule_blocks(plan.blocks)


# ---------------------------------------------------------------------- lenkf


def test_lenkf_global_window_no_taper_matches_global_enkf():
    rng = np.random.default_rng(0)
    grid = Grid(12)
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, [2, 3, 7], [0.5, -0.3, 1.1])
    # the p_cols oracle's EnKF on the untapered P, the sites' solve on all d rows
    p_cols = ensemble_moments(x, np.arange(grid.dim), obs.h_rows)
    ref = enkpf_update(x, obs, p_cols, 1.0, np.random.default_rng(42))[0]
    out = lenkf_update(x, local_plan(obs, grid, NO_TAPER, 5000.0), np.random.default_rng(42))
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-12)


def test_lenkf_locality():
    rng = np.random.default_rng(1)
    grid = Grid(40)
    x = random_ensemble(rng, grid, 8)
    l_m = 2000.0
    obs_a = rain_obs(grid, [5, 30], [0.7, -0.4])
    obs_b = rain_obs(grid, [5, 30], [0.7, 5.0])  # only the far obs changes
    out_a = lenkf_update(x, local_plan(obs_a, grid, l_m, 5000.0), np.random.default_rng(9))
    out_b = lenkf_update(x, local_plan(obs_b, grid, l_m, 5000.0), np.random.default_rng(9))
    sees_a = [g for g in range(40) if distance_m(grid, g, 5) <= 2000]
    sees_b = [g for g in range(40) if distance_m(grid, g, 30) <= 2000]
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
    out = lenkf_update(x, local_plan(empty, grid, NO_TAPER, 5000.0), np.random.default_rng(3))
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
        x, local_plan(obs, grid, NO_TAPER, 5000.0), (0.8, 1.0),
        np.random.default_rng(11),
        diagnostics=diag,
    )

    # reference: one global row update with the identical shared draws
    rng_ref = np.random.default_rng(11)
    eta = rng_ref.standard_normal((k, obs.m))
    er = rng_ref.standard_normal((k, obs.m))
    u_shared = rng_ref.uniform()
    obs_cols = obs.h_rows
    cols = np.arange(grid.dim)
    p_cross = tapered_cov_block(x, cols, obs_cols, taper_block(grid, NO_TAPER, cols, obs_cols))
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
    l_m = 1000.0
    diag = LocalDiagnostics()
    naive = naive_lenkpf_update(
        x, local_plan(obs, grid, l_m, 5000.0), (0.9, 1.0), np.random.default_rng(1), diag
    )
    local_enkf = lenkf_update(x, local_plan(obs, grid, l_m, 5000.0), np.random.default_rng(1))
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
    out = naive_lenkpf_update(x, local_plan(obs, grid, NO_TAPER, 5000.0), (0.5, 0.8),
                              np.random.default_rng(6))
    np.testing.assert_array_equal(out[:, grid.cols_at(9)], out[:, grid.cols_at(10)])


def test_naive_locality_and_empty_obs():
    rng = np.random.default_rng(7)
    grid = Grid(20)
    x = random_ensemble(rng, grid, 9)
    obs = rain_obs(grid, [10], [0.9])
    out = naive_lenkpf_update(
        x, local_plan(obs, grid, 1500.0, 5000.0), (0.5, 0.8), np.random.default_rng(8)
    )
    for g in range(20):
        if distance_m(grid, g, 10) > 1500.0:
            np.testing.assert_array_equal(out[:, grid.cols_at(g)], x[:, grid.cols_at(g)])
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    noop = naive_lenkpf_update(x, local_plan(empty, grid, NO_TAPER, 5000.0), (0.5, 0.8),
                               np.random.default_rng(8))
    np.testing.assert_array_equal(noop, x)


def loop_outcome(loop, x, plan, seed, ess_lo):
    """The analysis bytes, or the FilterError's message, and the diagnostics."""
    diag = LocalDiagnostics()
    try:
        result = loop(x, plan, np.random.default_rng(seed), ess_lo, diag).tobytes()
    except FilterError as exc:
        result = str(exc)
    return result, np.array(diag.gammas).tobytes(), np.array(diag.ess_values).tobytes()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 24), k=st.integers(2, 24), data=st.data())
def test_site_loop_equals_the_per_site_oracle(n, k, data):
    # the passes (screen, sweep, gather) against one _local_enkpf per site:
    # sparse rain gives empty windows, no wind rain-only ones, wind at every
    # point an all-wet grid; a far-off observation makes the innovations
    # overflow, and both must name the same site
    grid = Grid(n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = random_ensemble(rng, grid, k)
    rain = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=int)
    wet = rain[np.array(data.draw(st.lists(st.booleans(), min_size=rain.size,
                                           max_size=rain.size)), dtype=bool)]
    if data.draw(st.booleans()):
        wet = np.arange(n)
    cols = np.concatenate([2 * n + rain, n + wet])
    spread = data.draw(st.sampled_from([0.01, 0.3, 1.0, 3.0]))
    y = x[:, cols].mean(axis=0) + spread * rng.standard_normal(cols.size)
    if cols.size and data.draw(st.booleans()):
        y[data.draw(st.integers(0, cols.size - 1))] = 1e155
    r_var = data.draw(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]))
    obs = GaussObs(y, cols, np.full(cols.size, r_var))
    l_m = data.draw(st.integers(0, n).map(lambda i: i * 500.0) | st.just(NO_TAPER)) or 250.0
    plan = local_plan(obs, grid, l_m, 5000.0)
    seed = data.draw(st.integers(0, 2**32 - 1))
    for ess_lo in (None, data.draw(st.floats(0.05, 1.0) | st.just(1.0))):
        assert loop_outcome(local_filters._site_loop, x, plan, seed, ess_lo) == loop_outcome(
            site_loop, x, plan, seed, ess_lo)


def test_site_loop_names_the_first_failing_site_as_the_oracle_does():
    grid, x, obs = overflowing_innovation_case()
    plan = local_plan(obs, grid, 1500.0, 5000.0)
    want = loop_outcome(site_loop, x, plan, 46, 0.5)
    assert want[0] == "site 2: whitened innovations are not finite"  # setup sanity
    assert loop_outcome(local_filters._site_loop, x, plan, 46, 0.5) == want


def test_a_site_after_an_empty_window_reorders_toward_the_identity():
    # two clusters of resampled sites with empty windows between them: the
    # sweep starts again from the identity after the gap, as the oracle does
    grid = Grid(40)
    x = random_ensemble(np.random.default_rng(50), grid, 12)
    obs = rain_obs(grid, [5, 6, 30], [0.8, -0.6, 1.2], r_var=2.0)
    plan = local_plan(obs, grid, 1000.0, 5000.0)
    assert (plan.sizes[10:25] == 0).all() and plan.sizes[5] and plan.sizes[30]  # setup sanity
    want = loop_outcome(site_loop, x, plan, 51, 0.05)
    assert set(np.frombuffer(want[1])) == {0.0} and min(np.frombuffer(want[2])) < 12
    assert loop_outcome(local_filters._site_loop, x, plan, 51, 0.05) == want


def test_a_whitened_s_that_overflows_fails_each_site_as_the_oracle_does():
    # two members at -1 and 1 observed with r = 1e-308: each squared
    # innovation over r is 1e308, finite, but S / r = 2e308 overflows
    grid = Grid(6)
    x = np.zeros((2, grid.dim))
    x[:, 2 * 6 + 2] = [-1.0, 1.0]
    obs = rain_obs(grid, [2], [0.0], r_var=1e-308)
    plan = local_plan(obs, grid, 500.0, 5000.0)
    want = loop_outcome(site_loop, x, plan, 52, 0.5)
    assert want[0] == "site 1: whitened innovation covariance is not finite"
    assert loop_outcome(local_filters._site_loop, x, plan, 52, 0.5) == want


def test_no_eigh_at_gamma_zero(monkeypatch):
    eigh, calls = global_filters._eigh, []
    made = {}  # module name: the shape of each log-weight array it normalized

    def counting_eigh(*args, **kwargs):
        calls.append(args[0].shape)
        return eigh(*args, **kwargs)

    def count_weights_in(module):
        weights_from_log = module.weights_from_log

        def counting_weights(log_w):
            made.setdefault(module.__name__.removeprefix("enkpf."), []).append(np.shape(log_w))
            return weights_from_log(log_w)

        monkeypatch.setattr(module, "weights_from_log", counting_weights)

    monkeypatch.setattr(global_filters, "_eigh", counting_eigh)
    count_weights_in(global_filters)
    count_weights_in(local_filters)
    grid = Grid(20)
    k = 10
    x = random_ensemble(np.random.default_rng(43), grid, k)
    obs = rain_obs(grid, [3, 9, 10, 15], [0.2, -0.1, 0.3, 0.0], r_var=1e4)
    diag = LocalDiagnostics()
    naive_lenkpf_update(x, local_plan(obs, grid, 1500.0, 5000.0), band(),
                        np.random.default_rng(44), diag)
    assert diag.gammas and set(diag.gammas) == {0.0}  # setup sanity
    # the screen makes every site's gamma = 0 weights, which are resampled,
    # in one row-wise call, and no site searches
    assert made == {"local_filters": [(len(diag.gammas), k)]}
    p_cols = ensemble_moments(x, np.arange(grid.dim), obs.h_rows)
    _, w, _ = enkpf_update(x, obs, p_cols, 0.0, np.random.default_rng(44))
    assert w.tobytes() == pf_weights(x, obs).tobytes()
    assert calls == []
    # precise observations move sites off gamma = 0: one eigh for each, and
    # the gamma = 0 test and ten midpoints of its search make its 11 weight
    # vectors; the screen still makes one row-wise call
    diag = LocalDiagnostics()
    made.clear()
    precise = rain_obs(grid, [3, 9, 10, 15], [2.0, -1.5, 1.8, 2.5], r_var=0.05)
    naive_lenkpf_update(x, local_plan(precise, grid, 1500.0, 5000.0), band(),
                        np.random.default_rng(44), diag)
    searched = sum(g > 0.0 for g in diag.gammas)
    assert len(calls) == searched > 0
    assert made == {"local_filters": [(len(diag.gammas), k)],
                    "global_filters": [(k,)] * (11 * searched)}


def test_gamma_one_sites_report_the_global_uniform_weights():
    # at k = 7 the uniform weights 1/k and normalized exp(0) differ in the
    # last bit; a site and a global analysis at gamma = 1 report one ESS
    k = 7
    assert np.full(k, 1.0 / k).tobytes() != weights_from_log(np.zeros(k)).tobytes()
    grid = Grid(12)
    x = random_ensemble(np.random.default_rng(47), grid, k)
    obs = rain_obs(grid, [3, 8], [2.0, -1.5], r_var=0.05)
    diag = LocalDiagnostics()
    naive_lenkpf_update(x, local_plan(obs, grid, NO_TAPER, 5000.0), (1.0, 1.0),
                        np.random.default_rng(48), diag)
    s_oo = ensemble_moments(x, obs.h_rows, obs.h_rows)
    gamma, (_, w, _) = adaptive_gamma(x, obs, s_oo, (1.0, 1.0), np.random.default_rng(48))
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
    l_m = 1500.0
    with pytest.raises(FilterError, match="whitened innovations are not finite"):
        if update == "naive":
            naive_lenkpf_update(x, local_plan(obs, grid, l_m, 5000.0), band(),
                                np.random.default_rng(46))
        else:
            block_lenkpf_update(x, local_plan(obs, grid, l_m, 5000.0), band(),
                                np.random.default_rng(46))


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
            x, local_plan(obs, grid, NO_TAPER, 5000.0), (0.9, 0.5),
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
    (block,) = local_plan(obs, grid, 2000.0, 5000.0).blocks
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
    blocks = local_plan(obs, grid, 1000.0, 5000.0).blocks
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
    l_m = 1000.0
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, np.arange(24), rng.standard_normal(24))
    assert len(local_plan(obs, grid, l_m, 1e-300).blocks) == 24
    tiny, spacing = (
        block_lenkpf_update(x, local_plan(obs, grid, l_m, seg), band(), np.random.default_rng(27))
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
        blocks = local_plan(obs, grid, 2000.0, 4000.0).blocks
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
    blocks = local_plan(obs, grid, 5000.0, 10000.0).blocks
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
    blocks = local_plan(obs, grid, 2000.0, 5000.0).blocks
    out = block_assimilate_one(
        x, blocks[0], band(), np.random.default_rng(13)
    )
    np.testing.assert_array_equal(out, x)


def test_block_w_columns_untouched_bitwise():
    rng = np.random.default_rng(14)
    grid = Grid(30)
    x = random_ensemble(rng, grid, 12)
    obs = rain_obs(grid, [3, 4, 5, 6], [1.0, -0.5, 0.3, 0.8])
    blocks = local_plan(obs, grid, 2000.0, 5000.0).blocks
    w = block_w_cols(blocks[0], grid)
    assert w.size > 0
    out = block_assimilate_one(
        x, blocks[0], band(), np.random.default_rng(15)
    )
    np.testing.assert_array_equal(out[:, w], x[:, w])
    assert not np.array_equal(out[:, blocks[0].u], x[:, blocks[0].u])


def test_block_gamma_one_matches_tapered_enkf_on_u_and_v(monkeypatch):
    # with the observed columns inside u, the conditional regression of v is
    # exactly the tapered-gain EnKF row for v (selector identity)
    monkeypatch.setattr(local_filters, "search_gamma", fixed_gamma(1.0))
    rng = np.random.default_rng(16)
    grid = Grid(30)
    l_m = 2000.0
    k = 25
    x = random_ensemble(rng, grid, k)
    obs = rain_obs(grid, [3, 4, 5, 6], [1.0, -0.5, 0.3, 0.8])
    block = local_plan(obs, grid, l_m, 5000.0).blocks[0]
    out = block_assimilate_one(x, block, band(), np.random.default_rng(17))

    rng_ref = np.random.default_rng(17)
    eta = rng_ref.standard_normal((k, obs.m))
    rng_ref.standard_normal((k, obs.m))  # er draw happens either way
    import scipy.linalg as sla

    cols_uv = np.concatenate([block.u, block.v])
    p_uv_o = tapered_cov_block(x, cols_uv, obs.h_rows,
                               taper_block(grid, l_m, cols_uv, obs.h_rows))
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows,
                             taper_block(grid, l_m, obs.h_rows, obs.h_rows))
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
    l_m = 375.0  # support 750 m < the 1000 m max distance
    n = 4
    k = 9
    x = random_ensemble(rng, grid, k)
    obs = GaussObs(np.array([0.8, -0.6]), np.array([0, 2 * n]), np.array([0.5, 0.8]))
    block = local_plan(obs, grid, l_m, 2000.0).blocks[0]
    w = block_w_cols(block, grid)
    np.testing.assert_array_equal(w, [2, n + 2, 2 * n + 2])

    out_block = block_assimilate_one(
        x, block, band(), np.random.default_rng(19)
    )
    p_full = tapered_covariance(x, grid, l_m).toarray()
    out_full, _, _ = enkpf_update(x, obs, p_full[:, obs.h_rows], gamma, np.random.default_rng(19))
    uv = np.concatenate([block.u, block.v])
    np.testing.assert_allclose(out_full[:, uv], out_block[:, uv], rtol=1e-10, atol=1e-12)
    np.testing.assert_array_equal(out_block[:, w], x[:, w])
    np.testing.assert_array_equal(out_full[:, w], x[:, w])


def test_block_interior_gamma_rebuilt_from_its_stream():
    # the block's stream gives eta, e_R, then the resampling uniform; the
    # indices are the fixed-point permutation of the systematic resample
    rng = np.random.default_rng(28)
    grid = Grid(30)
    l_m = 2000.0
    k = 20
    x = random_ensemble(rng, grid, k)
    obs = rain_obs(grid, [3, 4, 5, 6], [2.0, -1.5, 1.8, 2.5])
    block = local_plan(obs, grid, l_m, 5000.0).blocks[0]
    diag = LocalDiagnostics()
    out = block_assimilate_one(
        x, block, band(), np.random.default_rng(29), diagnostics=diag
    )

    rng_ref = np.random.default_rng(29)
    eta = rng_ref.standard_normal((k, obs.m))
    er = rng_ref.standard_normal((k, obs.m))
    u = rng_ref.uniform()
    s_oo = tapered_cov_block(x, obs.h_rows, obs.h_rows,
                             taper_block(grid, l_m, obs.h_rows, obs.h_rows))
    p_uo = tapered_cov_block(x, block.u, obs.h_rows, taper_block(grid, l_m, block.u, obs.h_rows))
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
    (block,) = local_plan(obs, grid, 2000.0, 5000.0).blocks
    diag = LocalDiagnostics()
    block_assimilate_one(
        x, block, band(),
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
        x, local_plan(obs, grid, 2000.0, 5000.0), band(),
        np.random.default_rng(23),
    )
    b = block_lenkpf_update(
        x, local_plan(obs, grid, 2000.0, 5000.0), band(),
        np.random.default_rng(23),
    )
    np.testing.assert_array_equal(a, b)
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    noop = block_lenkpf_update(
        x, local_plan(empty, grid, 2000.0, 5000.0), band(),
        np.random.default_rng(23),
    )
    np.testing.assert_array_equal(noop, x)


def test_block_group_execution_order_is_irrelevant():
    # blocks in one schedule group touch disjoint columns and own their rng
    # sub-streams, so running them in reverse gives a bitwise-equal analysis
    rng = np.random.default_rng(24)
    grid = Grid(60)
    l_m = 2000.0
    x = random_ensemble(rng, grid, 10)
    obs = rain_obs(grid, [1, 2, 3, 31, 32, 33], [0.4, -0.1, 0.6, 0.2, 0.5, -0.7])
    blocks = local_plan(obs, grid, l_m, 5000.0).blocks
    groups = schedule_blocks(blocks)
    assert groups == ((0, 1),)

    ref = block_lenkpf_update(
        x, local_plan(obs, grid, l_m, 5000.0), band(), np.random.default_rng(25)
    )

    streams = np.random.default_rng(25).spawn(len(blocks))
    current = x.copy()
    for bid in reversed(groups[0]):
        current = block_assimilate_one(
            current, blocks[bid], band(), streams[bid]
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

    blocks = local_plan(obs, grid, l_m, segment_m).blocks
    # the blocks' observation rows partition all_obs
    def rows(o):
        return list(zip(o.h_rows.tolist(), o.y.tolist(), o.r_diag.tolist()))

    assert sorted(r for b in blocks for r in rows(b.obs)) == sorted(rows(obs))
    everything = np.arange(grid.dim)
    for b in blocks:
        np.testing.assert_array_equal(b.u, np.unique(b.obs.h_rows))
        pts, pts_u = grid.grid_of_cols(everything), grid.grid_of_cols(b.u)
        near = distance_m(grid, pts[:, None], pts_u[None, :]).min(axis=1) < 2 * l_m
        np.testing.assert_array_equal(b.v, np.setdiff1d(everything[near], b.u))

    # every schedule group run in reverse on the spawned streams gives the
    # bits of block_lenkpf_update
    x = rng.standard_normal((k, grid.dim))
    ref = block_lenkpf_update(x, local_plan(obs, grid, l_m, segment_m), band(),
                              np.random.default_rng(seed))
    streams = np.random.default_rng(seed).spawn(len(blocks))
    current = x
    for group in schedule_blocks(blocks):
        for bid in reversed(group):
            current = block_assimilate_one(current, blocks[bid], band(),
                                           streams[bid])
    assert current.tobytes() == ref.tobytes()


def test_block_band_validation():
    grid = Grid(10)
    x = random_ensemble(np.random.default_rng(0), grid, 5)
    obs = rain_obs(grid, [1], [0.0])
    with pytest.raises(ValueError):
        block_lenkpf_update(
            x, local_plan(obs, grid, NO_TAPER, 5000.0), (0.0, 0.5),
            np.random.default_rng(1),
        )


# ---------------------------------------------------------------------- draws


def one_block(x, obs, p, grid, l_m, rng):
    (block,) = local_plan(obs, grid, l_m, grid.domain_m).blocks
    return block_assimilate_one(x, block, band(), rng)


# every EnKPF, global or local and at any gamma, draws eta, e_R and the
# resampling uniform, in that order, whatever of them it uses
@pytest.mark.parametrize("update", [
    lambda x, obs, p, grid, l_m, rng: enkf_update(x, obs, p[obs.h_rows], rng),
    lambda x, obs, p, grid, l_m, rng: enkpf_update(x, obs, p, 0.0, rng),
    lambda x, obs, p, grid, l_m, rng: enkpf_update(x, obs, p, 0.4, rng),
    lambda x, obs, p, grid, l_m, rng: enkpf_update(x, obs, p, 1.0, rng),
    lambda x, obs, p, grid, l_m, rng: adaptive_gamma(x, obs, p[obs.h_rows], band(), rng),
    lambda x, obs, p, grid, l_m, rng: lenkf_update(x, local_plan(obs, grid, l_m, 5000.0), rng),
    lambda x, obs, p, grid, l_m, rng: naive_lenkpf_update(
        x, local_plan(obs, grid, l_m, 5000.0), band(), rng),
    one_block,
], ids=["enkf", "enkpf_gamma0", "enkpf_gamma0.4", "enkpf_gamma1", "adaptive_gamma",
        "lenkf", "naive_lenkpf", "block"])
def test_every_enkpf_draws_eta_e_r_and_the_uniform(update):
    grid = Grid(12)
    k = 10
    x = random_ensemble(np.random.default_rng(20), grid, k)
    obs = rain_obs(grid, [2, 3, 7], [0.5, -0.3, 1.1])
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    update(x, obs, ensemble_moments(x, np.arange(grid.dim), obs.h_rows), grid,
           1000.0, rng)
    twin.standard_normal((k, obs.m))
    twin.standard_normal((k, obs.m))
    twin.uniform()
    assert rng.standard_normal(100).tobytes() == twin.standard_normal(100).tobytes()
