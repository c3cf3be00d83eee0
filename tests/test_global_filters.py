import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import global_filters
from enkpf.core import ensemble_moments
from enkpf.global_filters import (
    _pf_log_likelihood,
    adaptive_gamma,
    enkf_update,
    pf_weights,
    search_gamma,
)
from enkpf.errors import FilterError
from enkpf.grid import Grid
from enkpf.local_filters import lenkf_update, local_plan
from enkpf.obs import GaussObs
from enkpf.resampling import ess

from oracles import (
    EagerGammaWeightSolver,
    enkpf_perturbations,
    enkpf_stage1,
    enkpf_update,
    enkpf_weights,
    gamma_weights,
    identity_resample,
    kalman_gain,
    search_gamma_reference,
)


class ZeroRng:
    """Stub rng whose draws are all zero (noise-free paths in tests)."""

    def standard_normal(self, size=None):
        return np.zeros(size) if size is not None else 0.0

    def uniform(self):
        return 0.0


def random_system(rng, k=8, d=5, m=3):
    x = rng.standard_normal((k, d)) * rng.uniform(0.5, 2.0)
    a = rng.standard_normal((d, d))
    p = a @ a.T / d + 0.1 * np.eye(d)
    h_rows = rng.choice(d, size=m, replace=False)
    obs = GaussObs(
        rng.standard_normal(m),
        h_rows,
        rng.uniform(0.3, 1.5, size=m),
    )
    return x, p, obs


# ---------------------------------------------------------------- enkf_update


def test_enkf_zero_cov_keeps_background():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6, 4))
    obs = GaussObs(np.array([1.0]), np.array([2]), np.array([0.5]))
    out = enkf_update(x, obs, np.zeros((4, 4))[:, obs.h_rows], np.random.default_rng(1))
    np.testing.assert_array_equal(out, x)


def test_enkf_huge_r_keeps_background():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((10, 3))
    obs = GaussObs(np.array([0.3, -0.2]), np.array([0, 2]), np.array([1e12, 1e12]))
    p = np.eye(3)
    out = enkf_update(x, obs, p[:, obs.h_rows], np.random.default_rng(3))
    np.testing.assert_allclose(out, x, rtol=1e-4, atol=1e-4)


def test_enkf_scalar_kalman_oracle():
    k = 100_000
    rng = np.random.default_rng(7)
    x = rng.standard_normal((k, 1))
    y = 1.0
    obs = GaussObs(np.array([y]), np.array([0]), np.array([1.0]))
    out = enkf_update(x, obs, np.array([[1.0]])[:, obs.h_rows], np.random.default_rng(8))
    mean, cov = out.mean(axis=0), ensemble_moments(out, [0], [0])
    exact_mean = 0.5 * (x.mean() + y)
    exact_var = 0.5
    se_mean = np.sqrt(exact_var / k)
    se_var = exact_var * np.sqrt(2.0 / (k - 1))
    assert abs(mean[0] - exact_mean) < 3 * se_mean
    assert abs(cov[0, 0] - exact_var) < 3 * se_var


def test_enkf_no_obs_is_noop():
    x = np.random.default_rng(1).standard_normal((4, 3))
    empty = GaussObs(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0))
    out = enkf_update(x, empty, np.eye(3)[:, empty.h_rows], np.random.default_rng(2))
    np.testing.assert_array_equal(out, x)


def test_enkf_deterministic_per_seed():
    rng = np.random.default_rng(5)
    x, p, obs = random_system(rng)
    a = enkf_update(x, obs, p[:, obs.h_rows], np.random.default_rng(99))
    b = enkf_update(x, obs, p[:, obs.h_rows], np.random.default_rng(99))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("entry", ["enkf_update", "lenkf_update"])
def test_overflowing_enkf_update_raises_filter_error(entry):
    # the wind at point 0 is 1000 x the rain there, and one rain observation
    # at point 0 is so far off that the wind's update overflows
    grid = Grid(12)
    cols = grid.split(np.arange(grid.dim))
    x = np.random.default_rng(0).standard_normal((8, grid.dim))
    x[:, cols["u"][0]] = 1000.0 * x[:, cols["r"][0]]
    obs = GaussObs(np.array([1e306]), cols["r"][:1], np.array([1.0]))
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        with pytest.raises(FilterError, match="EnKF update is not finite"):
            if entry == "enkf_update":
                enkf_update(x, obs, ensemble_moments(x, np.arange(grid.dim), obs.h_rows), rng)
            else:
                lenkf_update(x, local_plan(obs, grid, np.inf, grid.domain_m), rng)


GLOBAL_UPDATES = {
    "enkf_update": enkf_update,
    "enkpf_update_gamma_1": lambda x, obs, p, rng: enkpf_update(x, obs, p, 1.0, rng),
    "enkpf_update_gamma_0.5": lambda x, obs, p, rng: enkpf_update(x, obs, p, 0.5, rng),
    "adaptive_gamma": lambda x, obs, p, rng: adaptive_gamma(x, obs, p, (0.5, 0.8), rng),
}


@pytest.mark.parametrize("update", GLOBAL_UPDATES.values(), ids=GLOBAL_UPDATES.keys())
def test_global_updates_reject_a_non_finite_covariance(update):
    x = np.random.default_rng(0).standard_normal((6, 4))
    p = np.eye(4)
    p[1, 1] = np.inf
    obs = GaussObs([0.1, 0.2], [1, 2], [1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FilterError, match="not finite"):
            update(x, obs, p[:, obs.h_rows], np.random.default_rng(1))


@pytest.mark.parametrize("update", GLOBAL_UPDATES.values(), ids=GLOBAL_UPDATES.keys())
def test_global_updates_reject_p_cols_of_the_wrong_shape(update):
    # p_cols is P[:, H], (d, m): the full P or its transpose is refused
    x = np.random.default_rng(0).standard_normal((6, 4))
    obs = GaussObs([0.1, 0.2], [1, 2], [1.0, 1.0])
    for p_cols in (np.eye(4), np.eye(4)[:, obs.h_rows].T):
        with pytest.raises(ValueError, match="p_cols must be P"):
            update(x, obs, p_cols, np.random.default_rng(1))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(2, 10),
    d=st.integers(1, 6),
    data=st.data(),
    lo=st.sampled_from([0.05, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_global_family_is_one_update_bitwise(k, d, data, lo, seed):
    # the EnKF is the EnKPF at gamma = 1, and adaptive_gamma is the EnKPF at
    # the gamma it picks, bit for bit, with no observations too: production
    # against the fixed-gamma oracle, the gate of the 0 < gamma < 1 path
    m = data.draw(st.integers(0, d), label="m")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k, d)) * rng.uniform(0.5, 2.0)
    a = rng.standard_normal((d, d))
    p = a @ a.T / d + 0.1 * np.eye(d)
    obs = GaussObs(
        rng.standard_normal(m), rng.choice(d, size=m, replace=False), rng.uniform(0.3, 1.5, m)
    )
    p_cols = p[:, obs.h_rows]
    enkf = enkf_update(x, obs, p_cols, np.random.default_rng(seed))
    assert_same_bits(enkf, enkpf_update(x, obs, p_cols, 1.0, np.random.default_rng(seed))[0])
    gamma, arrays = adaptive_gamma(x, obs, p_cols, (lo, 1.0), np.random.default_rng(seed))
    for got, want in zip(arrays, enkpf_update(x, obs, p_cols, gamma,
                                              np.random.default_rng(seed))):
        assert_same_bits(got, want)


# ----------------------------------------------------------------- pf_weights


def test_pf_identical_members_uniform():
    x = np.tile(np.array([1.0, 2.0]), (7, 1))
    obs = GaussObs(np.array([0.0]), np.array([1]), np.array([1.0]))
    w = pf_weights(x, obs)
    np.testing.assert_allclose(w, np.full(7, 1 / 7), atol=1e-15)


def test_pf_dominant_member():
    x = np.full((5, 1), 50.0)
    x[3, 0] = 0.0
    obs = GaussObs(np.array([0.0]), np.array([0]), np.array([1.0]))
    w = pf_weights(x, obs)
    assert w[3] > 1 - 1e-9


def test_pf_two_member_softmax_oracle():
    x = np.array([[0.0], [1.0]])
    obs = GaussObs(np.array([0.0]), np.array([0]), np.array([1.0]))
    w = pf_weights(x, obs)
    # alpha = softmax(0, -0.5)
    expect = np.array([1.0, np.exp(-0.5)])
    expect /= expect.sum()
    np.testing.assert_allclose(w, expect, rtol=1e-12)


# --------------------------------------------------------------- enkpf stages


def test_stage1_gamma_zero_limit():
    rng = np.random.default_rng(3)
    x, p, obs = random_system(rng)
    inter = enkpf_stage1(x, obs, p, 0.0)
    np.testing.assert_array_equal(inter.nu, x)
    np.testing.assert_array_equal(inter.q_factor.matvec(np.ones(x.shape[1])), 0.0)


def test_stage1_scalar_example():
    # p=1, h=1, r=1, gamma=0.5: K = 1/3, nu = x + (y-x)/3, Q = 2/9
    x = np.array([[0.0], [1.0]])
    obs = GaussObs(np.array([0.0]), np.array([0]), np.array([1.0]))
    inter = enkpf_stage1(x, obs, np.array([[1.0]]), 0.5)
    np.testing.assert_allclose(inter.q_factor.k_gamma, [[1.0 / 3.0]], rtol=1e-14)
    np.testing.assert_allclose(inter.nu, [[0.0], [2.0 / 3.0]], rtol=1e-14)
    np.testing.assert_allclose(inter.q_factor.matvec(np.ones(1)), [2.0 / 9.0], rtol=1e-13)


def test_stage1_gamma_one_matches_plain_gain():
    rng = np.random.default_rng(4)
    x, p, obs = random_system(rng)
    inter = enkpf_stage1(x, obs, p, 1.0)
    np.testing.assert_allclose(
        inter.q_factor.k_gamma, kalman_gain(p, obs.h_rows, obs.r_diag), rtol=1e-12
    )
    with pytest.raises(ValueError):
        enkpf_stage1(x, obs, p, 1.5)


def test_qfactor_draw_covariance():
    rng = np.random.default_rng(11)
    x, p, obs = random_system(rng, k=6, d=4, m=2)
    inter = enkpf_stage1(x, obs, p, 0.4)
    kg = inter.q_factor.k_gamma
    q_dense = (kg * obs.r_diag) @ kg.T / 0.4
    draws = inter.q_factor.draw(rng.standard_normal((200_000, obs.m)))
    emp = draws.T @ draws / draws.shape[0]
    scale = np.sqrt(np.outer(np.diag(q_dense), np.diag(q_dense))) + 1e-12
    assert np.max(np.abs(emp - q_dense) / scale) < 0.03


def test_enkpf_weights_gamma_one_uniform():
    rng = np.random.default_rng(6)
    x, p, obs = random_system(rng)
    inter = enkpf_stage1(x, obs, p, 1.0)
    w = enkpf_weights(inter, obs)
    np.testing.assert_allclose(w, 1.0 / x.shape[0], atol=1e-15)


def test_enkpf_weights_gamma_zero_equals_pf():
    rng = np.random.default_rng(9)
    x, p, obs = random_system(rng)
    inter = enkpf_stage1(x, obs, p, 0.0)
    w = enkpf_weights(inter, obs)
    ref = pf_weights(x, obs)
    np.testing.assert_allclose(w, ref, rtol=1e-12)


def test_enkpf_weights_two_member_oracle():
    # continued scalar example: residual variance HQH' + R/(1-gamma) = 2/9 + 2
    x = np.array([[0.0], [1.0]])
    obs = GaussObs(np.array([0.0]), np.array([0]), np.array([1.0]))
    inter = enkpf_stage1(x, obs, np.array([[1.0]]), 0.5)
    w = enkpf_weights(inter, obs)
    var = 2.0 / 9.0 + 2.0
    dens = np.exp(-0.5 * np.array([0.0, (2.0 / 3.0) ** 2]) / var)
    np.testing.assert_allclose(w, dens / dens.sum(), rtol=1e-12)


def test_solver_matches_direct_weights():
    rng = np.random.default_rng(10)
    for _ in range(25):
        k = int(rng.integers(3, 30))
        d = int(rng.integers(2, 8))
        m = int(rng.integers(1, d + 1))
        x, p, obs = random_system(rng, k=k, d=d, m=m)
        s_oo = p[np.ix_(obs.h_rows, obs.h_rows)]
        innov0 = obs.y - x[:, obs.h_rows]
        for gamma in [0.0, 1e-3, 0.2, 0.5, 0.9, 1.0 - 2.0**-10, 1.0]:
            inter = enkpf_stage1(x, obs, p, gamma)
            direct = enkpf_weights(inter, obs)
            np.testing.assert_allclose(
                gamma_weights(s_oo, obs.r_diag, innov0, gamma), direct, rtol=1e-9, atol=1e-12
            )


# --------------------------------------------------------------- enkpf_update


def test_enkpf_gamma_one_is_enkf_exactly():
    rng = np.random.default_rng(12)
    x, p, obs = random_system(rng, k=15)
    ref = enkf_update(x, obs, p[:, obs.h_rows], np.random.default_rng(777))
    out, w, idx = enkpf_update(x, obs, p[:, obs.h_rows], 1.0, np.random.default_rng(777))
    np.testing.assert_array_equal(out, ref)
    np.testing.assert_allclose(w, 1.0 / 15, atol=1e-15)
    np.testing.assert_array_equal(idx, np.arange(15))


def test_enkpf_tiny_gamma_weights_match_pf():
    rng = np.random.default_rng(13)
    x, p, obs = random_system(rng, k=12)
    inter = enkpf_stage1(x, obs, p, 1e-8)
    w = enkpf_weights(inter, obs)
    ref = pf_weights(x, obs)
    assert np.max(np.abs(w - ref)) < 1e-6


def test_enkpf_tiny_gamma_centroids_near_background(monkeypatch):
    monkeypatch.setattr(global_filters, "systematic_indices", identity_resample)
    rng = np.random.default_rng(14)
    x, p, obs = random_system(rng, k=12)
    out, _, _ = enkpf_update(x, obs, p[:, obs.h_rows], 1e-8, ZeroRng())
    # noise-free path with identity resampling returns the centroids mu
    scale = np.max(np.abs(x)) + 1.0
    assert np.max(np.abs(out - x)) / scale < 1e-6


def test_enkpf_gamma_zero_is_pure_resample():
    rng = np.random.default_rng(15)
    x, p, obs = random_system(rng, k=9)
    out, w, idx = enkpf_update(x, obs, p[:, obs.h_rows], 0.0, np.random.default_rng(4))
    np.testing.assert_allclose(w, pf_weights(x, obs), rtol=1e-12)
    np.testing.assert_array_equal(out, x[idx])


def test_enkpf_scalar_kalman_oracle():
    k = 100_000
    rng = np.random.default_rng(16)
    x = rng.standard_normal((k, 1))
    obs = GaussObs(np.array([1.0]), np.array([0]), np.array([1.0]))
    out, _, _ = enkpf_update(
        x, obs, np.array([[1.0]])[:, obs.h_rows], 0.5, np.random.default_rng(17)
    )
    mean, cov = out.mean(axis=0), ensemble_moments(out, [0], [0])
    exact_mean = 0.5 * (x.mean() + 1.0)
    exact_var = 0.5
    se_mean = np.sqrt(exact_var / k)
    se_var = exact_var * np.sqrt(2.0 / (k - 1))
    # resampling adds a little extra MC noise on top of the posterior spread
    assert abs(mean[0] - exact_mean) < 4 * se_mean
    assert abs(cov[0, 0] - exact_var) < 4 * se_var


def test_lgamma_consistency(monkeypatch):
    # centroid path equals the one-shot gain L = K1 + K2 (I - H K1)
    monkeypatch.setattr(global_filters, "systematic_indices", identity_resample)
    rng = np.random.default_rng(18)
    for _ in range(10):
        x, p, obs = random_system(rng, k=7, d=6, m=3)
        gamma = rng.uniform(0.05, 0.95)
        out, _, _ = enkpf_update(x, obs, p[:, obs.h_rows], gamma, ZeroRng())
        k1 = kalman_gain(gamma * p, obs.h_rows, obs.r_diag)
        inter = enkpf_stage1(x, obs, p, gamma)
        kg = inter.q_factor.k_gamma
        q_dense = (kg * obs.r_diag) @ kg.T / gamma
        k2 = kalman_gain((1 - gamma) * q_dense, obs.h_rows, obs.r_diag)
        h_k1 = k1[obs.h_rows]
        l_gamma = k1 + k2 @ (np.eye(obs.m) - h_k1)
        expect = x + (obs.y - x[:, obs.h_rows]) @ l_gamma.T
        np.testing.assert_allclose(out, expect, rtol=1e-10, atol=1e-12)


def test_eps_draw_covariance_matches_analysis_covariance():
    rng = np.random.default_rng(19)
    x, p, obs = random_system(rng, k=10, d=4, m=2)
    gamma = 0.6
    inter = enkpf_stage1(x, obs, p, gamma)
    kg = inter.q_factor.k_gamma
    q_dense = (kg * obs.r_diag) @ kg.T / gamma
    k2 = kalman_gain((1 - gamma) * q_dense, obs.h_rows, obs.r_diag)
    target = q_dense - k2 @ q_dense[obs.h_rows, :]  # (I - K2 H) Q
    n_draws = 100_000
    draws = enkpf_perturbations(p, obs, gamma, n_draws, np.random.default_rng(20))
    emp = draws.T @ draws / n_draws
    se = np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target**2) / n_draws
    )
    assert np.all(np.abs(emp - target) <= 3 * se + 1e-12)


def test_enkpf_deterministic_per_seed():
    rng = np.random.default_rng(21)
    x, p, obs = random_system(rng)
    a = enkpf_update(x, obs, p[:, obs.h_rows], 0.4, np.random.default_rng(5))[0]
    b = enkpf_update(x, obs, p[:, obs.h_rows], 0.4, np.random.default_rng(5))[0]
    np.testing.assert_array_equal(a, b)


# -------------------------------------------------------------- adaptive gamma


def test_adaptive_gamma_identical_members():
    x = np.tile(np.array([0.5, -1.0, 2.0]), (8, 1))
    obs = GaussObs(np.array([0.0]), np.array([1]), np.array([1.0]))
    gamma, (out, w, idx) = adaptive_gamma(
        x, obs, np.zeros((3, 3))[:, obs.h_rows], (0.5, 0.8), np.random.default_rng(1)
    )
    assert gamma == 0.0
    np.testing.assert_allclose(w, 1.0 / 8, atol=1e-15)


def test_adaptive_gamma_band_one_forces_enkf():
    rng = np.random.default_rng(22)
    x, p, obs = random_system(rng, k=10)
    gamma, _ = adaptive_gamma(x, obs, p[:, obs.h_rows], (1.0, 1.0), np.random.default_rng(2))
    assert gamma == 1.0


def test_weight_solver_rejects_a_whitened_covariance_that_overflows():
    # finite S, but whitening by a tiny R overflows float64
    with np.errstate(all="raise"):
        with pytest.raises(FilterError, match="whitened innovation covariance"):
            search_gamma(np.array([[1e10]]), np.array([1e-300]), np.zeros((3, 1)), 0.5)


@pytest.mark.parametrize("r", [0.0, -1.0, np.nan])
def test_gauss_obs_rejects_a_variance_that_is_not_positive(r):
    with pytest.raises(ValueError, match="variances must be positive"):
        GaussObs(np.zeros(2), np.array([0, 1]), np.array([1.0, r]))


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 40),
    m=st.integers(0, 24),
    spread=st.floats(0.1, 3.0),
    ess_band=st.tuples(st.floats(0.05, 1.0), st.floats(0.0, 1.0)).map(
        lambda t: (t[0], t[0] + t[1] * (1.0 - t[0]))),
    gamma=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_lazy_weight_solver_against_the_eager_oracle(k, m, spread, ess_band, gamma, seed):
    rng = np.random.default_rng(seed)
    d = m + 3
    x = rng.standard_normal((k, d)) * spread
    obs = GaussObs(rng.standard_normal(m), rng.choice(d, size=m, replace=False),
                   rng.uniform(0.2, 2.0, size=m))
    innov0 = obs.y - obs.project(x)
    s_oo = ensemble_moments(x, obs.h_rows, obs.h_rows)

    eager = EagerGammaWeightSolver(s_oo, obs.r_diag, innov0)
    # gamma = 0: the particle-filter weights, bit for bit; the eager solver's
    # differ by a few roundings of the largest log-likelihood
    w0 = gamma_weights(s_oo, obs.r_diag, innov0, 0.0)
    assert w0.tobytes() == pf_weights(x, obs).tobytes()
    tol = 8 * np.finfo(float).eps * max(1.0, -_pf_log_likelihood(innov0, obs.r_diag).min())
    np.testing.assert_allclose(w0, eager.weights(0.0), rtol=0.0, atol=tol)
    w = gamma_weights(s_oo, obs.r_diag, innov0, gamma)
    assert w.tobytes() == eager.weights(gamma).tobytes()

    lo, _ = global_filters._check_band(ess_band)
    g, alpha = search_gamma(s_oo, obs.r_diag, innov0, lo)
    g_eager = search_gamma_reference(eager, lo, k)
    assert g == g_eager, (
        f"k={k} m={m} lo={lo!r} seed={seed}: gamma {g} (package) against {g_eager} "
        f"(eager), ESS at 0 {ess(w0)!r} against {eager.ess(0.0)!r}, floor {lo * k!r}"
    )
    # the weights that came with gamma, made once
    if g == 0.0:
        expected = pf_weights(x, obs)
    elif g == 1.0:
        expected = np.full(k, 1.0 / k)
    else:
        expected = eager.weights(g)
    assert alpha.tobytes() == expected.tobytes()


def test_adaptive_gamma_two_cluster_grid_oracle():
    # bimodal prior with too few members near the observation forces an
    # interior gamma (ESS at gamma = 0 is about 6 < 10 = floor)
    k = 20
    x = np.concatenate([np.zeros(6), np.full(14, 6.0)])[:, None]
    obs = GaussObs(np.array([0.0]), np.array([0]), np.array([1.0]))
    p = ensemble_moments(x, [0], [0])
    lo = 0.5
    s_oo, innov0 = p[np.ix_([0], [0])], obs.y - x[:, [0]]
    gamma, (out, w, idx) = adaptive_gamma(
        x, obs, p[:, obs.h_rows], (lo, 0.8), np.random.default_rng(3)
    )
    assert ess(w) >= lo * k - 1e-9
    # exhaustive grid oracle: smallest gamma on a 1e-4 grid reaching the floor
    grid = np.arange(0.0, 1.0001, 1e-4)
    reached = [g for g in grid if ess(gamma_weights(s_oo, obs.r_diag, innov0, g)) >= lo * k]
    oracle = reached[0]
    assert abs(gamma - oracle) <= 2.0**-10 + 1e-4
    assert 0.0 < gamma < 1.0


def test_adaptive_gamma_resamples_the_solver_weights():
    # one weight formula: the weights that pick gamma are the weights resampled
    rng = np.random.default_rng(24)
    lo, k = 0.5, 25
    for _ in range(20):
        x, p, obs = random_system(rng, k=k, d=6, m=4)
        s_oo = p[np.ix_(obs.h_rows, obs.h_rows)]
        gamma, (_, w, _) = adaptive_gamma(
            x, obs, p[:, obs.h_rows], (lo, 0.8), np.random.default_rng(25)
        )
        assert np.array_equal(w, gamma_weights(s_oo, obs.r_diag, obs.y - x[:, obs.h_rows], gamma))
        assert ess(w) >= lo * k


def test_adaptive_gamma_band_validation():
    x = np.random.default_rng(0).standard_normal((5, 2))
    obs = GaussObs(np.array([0.0]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        adaptive_gamma(x, obs, np.eye(2)[:, obs.h_rows], (0.8, 0.5), np.random.default_rng(1))


def test_search_gamma_respects_floor_on_random_cases():
    rng = np.random.default_rng(23)
    k = 30
    for _ in range(50):
        x, p, obs = random_system(rng, k=k, d=4, m=2)
        s_oo = p[np.ix_(obs.h_rows, obs.h_rows)]
        gamma, alpha = search_gamma(s_oo, obs.r_diag, obs.y - x[:, obs.h_rows], 0.5)
        assert ess(alpha) >= 0.5 * k
