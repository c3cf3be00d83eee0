"""Acceptance gate: eleven end-to-end checks, one printed verdict line each.

Each test computes its condition fully, prints a single `ACCEPTANCE n: PASS`
or `... FAIL` line, then asserts. Criteria 10 and 11 share one twin-experiment
run (module-scoped fixture) so the expensive part executes once per process.
"""

import time

import numpy as np
import pytest

from enkpf import global_filters, local_filters
from enkpf.config import ExperimentConfig
from enkpf.experiment import run_experiment
from enkpf.core import ensemble_moments
from enkpf.global_filters import (
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
)
from enkpf.obs import GaussObs
from enkpf.resampling import balanced_resample, ess
from enkpf.scoring import field_crps
from enkpf.sweq import ModelParams, advance_members, rest_state

from oracles import (
    block_w_cols,
    crps_empirical,
    distance_m,
    enkpf_perturbations,
    enkpf_stage1,
    enkpf_update,
    enkpf_weights,
    fixed_gamma,
    identity_resample,
    stochastic_enkf,
    tapered_covariance,
)

BAND = (0.5, 0.8)


def _report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def _standardize(raw, mean0, cov0):
    """Rescale rows so the ddof=0 sample moments equal mean0/cov0 exactly."""
    x = raw - raw.mean(axis=0)
    cs = np.linalg.cholesky(np.atleast_2d(np.cov(x, rowvar=False, bias=True)))
    c0 = np.linalg.cholesky(cov0)
    t = c0 @ np.linalg.inv(cs)
    return mean0 + x @ t.T


def _kalman_posterior(mean0, cov0, obs):
    h = obs.h_rows
    s = cov0[np.ix_(h, h)] + np.diag(obs.r_diag)
    k_gain = np.linalg.solve(s, cov0[h, :]).T
    mean = mean0 + k_gain @ (obs.y - mean0[h])
    cov = cov0 - k_gain @ cov0[h, :]
    return mean, cov


def _moments_within(members, mean, cov, k_eff, factor=3.0):
    """Worst deviation of sample mean/cov from (mean, cov) in MC-SE units."""
    emp_mean = members.mean(axis=0)
    emp_cov = np.cov(members, rowvar=False, bias=True)
    emp_cov = np.atleast_2d(emp_cov)
    se_mean = np.sqrt(np.diag(cov) / k_eff)
    worst = np.max(np.abs(emp_mean - mean) / se_mean)
    d = cov.shape[0]
    se_cov = np.sqrt(
        (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / k_eff
    )
    worst = max(worst, np.max(np.abs(emp_cov - cov) / se_cov))
    return worst, worst <= factor


def test_criterion_01_reduction_identities():
    t0 = time.time()
    rng = np.random.default_rng(11)
    k, d = 40, 8
    x = rng.standard_normal((k, d)) * 1.5 + 2.0
    p = _random_spd(rng, d) / d
    obs = GaussObs(rng.standard_normal(3), [0, 3, 6], [0.4, 0.3, 0.6])

    # on an arbitrary P through the p_cols oracle, and in the package's
    # ensemble coordinates on the members' own P
    out_a = enkpf_update(x, obs, p[:, obs.h_rows], 1.0, np.random.default_rng(99))[0]
    out_b = stochastic_enkf(x, obs, p, np.random.default_rng(99))
    s_oo = ensemble_moments(x, obs.h_rows, obs.h_rows)
    gamma, (out_c, _, _) = adaptive_gamma(x, obs, s_oo, (1.0, 1.0), np.random.default_rng(99))
    out_d = enkf_update(x, obs, s_oo, np.random.default_rng(99))
    exact = gamma == 1.0 and out_a.tobytes() == out_b.tobytes() and out_c.tobytes() == out_d.tobytes()

    inter = enkpf_stage1(x, obs, p, 1e-8)
    w_enkpf = enkpf_weights(inter, obs)
    w_pf = pf_weights(x, obs)
    sup = np.max(np.abs(w_enkpf - w_pf))
    _report(
        1,
        exact and sup <= 1e-6,
        f"(gamma=1 bitwise: {exact}, weight sup-diff {sup:.2e}, "
        f"{time.time() - t0:.2f}s)",
    )


def test_criterion_02_kalman_oracle():
    t0 = time.time()
    k = 100_000
    worst_all = 0.0

    # scalar system
    rng = np.random.default_rng(21)
    mean0, cov0 = np.array([0.0]), np.array([[2.0]])
    obs = GaussObs([0.7], [0], [0.5])
    mean_t, cov_t = _kalman_posterior(mean0, cov0, obs)
    for gamma in (0.25, 0.5, 0.75):
        x = _standardize(rng.standard_normal((k, 1)), mean0, cov0)
        out, w, _ = enkpf_update(x, obs, cov0[:, obs.h_rows], gamma, rng)
        worst, _ = _moments_within(out, mean_t, cov_t, ess(w))
        worst_all = max(worst_all, worst)

    # d = 3 with two observed components
    cov0 = np.array([[1.0, 0.5, 0.2], [0.5, 1.5, 0.3], [0.2, 0.3, 0.8]])
    mean0 = np.array([0.5, -1.0, 2.0])
    obs = GaussObs([0.9, 1.8], [0, 2], [0.4, 0.3])
    mean_t, cov_t = _kalman_posterior(mean0, cov0, obs)
    for gamma in (0.25, 0.5, 0.75):
        x = _standardize(rng.standard_normal((k, 3)), mean0, cov0)
        out, w, _ = enkpf_update(x, obs, cov0[:, obs.h_rows], gamma, rng)
        worst, _ = _moments_within(out, mean_t, cov_t, ess(w))
        worst_all = max(worst_all, worst)

    # block-structured case: two independent observed points, diagonal prior
    grid = Grid(8)
    l_m = 500.0  # support 1000 m < 1500 m block separation
    mean0 = np.zeros(grid.dim)
    cov0 = np.eye(grid.dim)
    obs = GaussObs([0.3, -0.4], [1, 6], [0.25, 0.25])
    mean_t, cov_t = _kalman_posterior(mean0, cov0, obs)
    x = _standardize(rng.standard_normal((k, grid.dim)), mean0, cov0)
    diag = LocalDiagnostics()
    out = block_lenkpf_update(
        x, local_plan(obs, grid, l_m, 2000.0), BAND, rng, diagnostics=diag
    )
    k_eff = min(diag.ess_values) if diag.ess_values else k
    sub = [0, 1, 2, 5, 6, 7, 12, 20]  # observed cols plus a spread of others
    worst, _ = _moments_within(
        out[:, sub], mean_t[sub], cov_t[np.ix_(sub, sub)], k_eff
    )
    worst_all = max(worst_all, worst)
    _report(
        2,
        worst_all <= 3.0,
        f"(worst deviation {worst_all:.2f} MC standard errors, "
        f"{time.time() - t0:.1f}s)",
    )


def test_criterion_03_balanced_sampling():
    t0 = time.time()
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(10_000):
        k = int(rng.integers(2, 65))
        alpha = rng.dirichlet(np.full(k, rng.uniform(0.1, 3.0)))
        idx = balanced_resample(alpha, rng)
        counts = np.bincount(idx, minlength=k)
        if np.any(np.abs(counts - k * alpha) >= 1.0):
            violations += 1
    _report(3, violations == 0, f"({violations} violations, {time.time() - t0:.1f}s)")


def test_criterion_04_appendix_equivalence(monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(41)
    grid = Grid(4)  # 12 state columns
    l_m = 375.0  # support 750 m, shorter than the 1000 m ring max
    k = 9
    x = rng.standard_normal((k, grid.dim)) + 1.0
    obs = GaussObs([0.4, -0.2], [0, 8], [0.3, 0.5])
    gamma = 0.55
    # force gamma and keep every member in its slot; the production block and
    # global updates still run end to end
    monkeypatch.setattr(local_filters, "search_gamma", fixed_gamma(gamma))
    monkeypatch.setattr(local_filters, "systematic_indices", identity_resample)
    monkeypatch.setattr(global_filters, "systematic_indices", identity_resample)

    blocks = local_plan(obs, grid, l_m, 10_000.0).blocks
    assert len(blocks) == 1

    out_block = block_assimilate_one(x, blocks[0], BAND, np.random.default_rng(5))
    p_taper = tapered_covariance(x, grid, 375.0).toarray()
    out_full = enkpf_update(x, obs, p_taper[:, obs.h_rows], gamma, np.random.default_rng(5))[0]
    err = np.max(
        np.abs(out_block - out_full)
        / np.maximum(np.abs(out_full), 1.0)
    )
    w_cols = block_w_cols(blocks[0], grid)
    w_ok = np.array_equal(out_block[:, w_cols], x[:, w_cols])
    _report(
        4,
        err <= 1e-10 and w_ok,
        f"(max relative diff {err:.2e}, w untouched: {w_ok}, "
        f"{time.time() - t0:.2f}s)",
    )


def test_criterion_05_locality_invariance():
    t0 = time.time()
    l_m = 1500.0  # window 1500 m, support 3000 m = 6 grid points
    failures = 0
    for case in range(100):
        rng = np.random.default_rng(5000 + case)
        n = int(rng.integers(40, 56))
        k = int(rng.integers(10, 21))
        grid = Grid(n)
        x = rng.standard_normal((k, grid.dim))
        pts_a = (4 + np.arange(3)) % n
        pts_b = (n // 2 + np.arange(3)) % n
        cols = np.concatenate([pts_a, pts_b])  # h-field observations
        y = rng.standard_normal(6)
        r = np.full(6, 0.3)
        obs1 = GaussObs(y, cols, r)
        y2 = y.copy()
        y2[3:] += 0.7  # perturb only cluster B values
        obs2 = GaussObs(y2, cols, r)

        dist_b = np.min(
            distance_m(grid, np.arange(n)[:, None], pts_b[None, :]),
            axis=1,
        )
        far_pts = np.flatnonzero(dist_b > 2.0 * l_m)
        far_cols = np.concatenate([f * n + far_pts for f in range(3)])
        no_obs_pts = np.flatnonzero(
            np.min(
                distance_m(
                    grid,
                    np.arange(n)[:, None], np.concatenate([pts_a, pts_b])[None, :]
                ),
                axis=1,
            )
            > 2.0 * l_m
        )
        free_cols = np.concatenate([f * n + no_obs_pts for f in range(3)])

        for method in ("lenkf", "naive", "block"):
            def run(obs, seed=9000 + case):
                rng_m = np.random.default_rng(seed)
                plan = local_plan(obs, grid, l_m, 4000.0)
                if method == "lenkf":
                    return lenkf_update(x, plan, rng_m)
                if method == "naive":
                    return naive_lenkpf_update(x, plan, BAND, rng_m)
                return block_lenkpf_update(x, plan, BAND, rng_m)

            m1, m2 = run(obs1), run(obs2)
            if not np.array_equal(m1[:, far_cols], m2[:, far_cols]):
                failures += 1
            if not np.array_equal(m1[:, free_cols], x[:, free_cols]):
                failures += 1
    _report(5, failures == 0, f"({failures} failures, {time.time() - t0:.1f}s)")


def test_criterion_06_adaptive_gamma_band():
    t0 = time.time()
    rng = np.random.default_rng(61)
    n_cases = 1000
    floor_ok = 0
    band_ok = 0
    for _ in range(n_cases):
        k = int(rng.integers(10, 41))
        m = int(rng.integers(1, 7))
        s_oo = _random_spd(rng, m) * rng.uniform(0.05, 8.0)
        r_diag = rng.uniform(0.05, 2.0, m)
        scale = rng.uniform(0.3, 6.0)
        innov = rng.standard_normal((k, m)) * scale
        gamma, alpha = search_gamma(s_oo, r_diag, innov, BAND[0])
        achieved = ess(alpha)
        if achieved >= BAND[0] * k - 1e-9:
            floor_ok += 1
        if gamma == 0.0 or achieved <= BAND[1] * k + 1e-9:
            band_ok += 1
    _report(
        6,
        floor_ok == n_cases and band_ok >= 0.95 * n_cases,
        f"(floor {floor_ok}/{n_cases}, band {band_ok}/{n_cases}, "
        f"{time.time() - t0:.1f}s)",
    )


def test_criterion_07_eps_covariance():
    t0 = time.time()
    rng = np.random.default_rng(71)
    d, m, k, n_draws = 5, 3, 30, 100_000
    x = rng.standard_normal((k, d))
    p = _random_spd(rng, d) / d
    obs = GaussObs(rng.standard_normal(m), [0, 2, 4], [0.5, 0.4, 0.8])
    gamma = 0.6
    inter = enkpf_stage1(x, obs, p, gamma)

    k_ro = inter.q_factor.k_gamma
    q = (k_ro * obs.r_diag) @ k_ro.T / gamma
    hq = q[obs.h_rows, :]
    s2 = hq[:, obs.h_rows] + np.diag(obs.r_diag / (1.0 - gamma))
    k2 = np.linalg.solve(s2, hq).T
    target = q - k2 @ hq

    draws = enkpf_perturbations(p, obs, gamma, n_draws, rng)
    emp = np.cov(draws, rowvar=False, bias=True)
    se = np.sqrt(
        (np.outer(np.diag(target), np.diag(target)) + target**2) / n_draws
    )
    dev = np.max(np.abs(emp - target) / np.maximum(se, 1e-12))
    _report(
        7,
        dev <= 3.0,
        f"(worst entry {dev:.2f} MC standard errors, {time.time() - t0:.1f}s)",
    )


def _crps_by_integration(values, truth):
    pts = np.sort(np.unique(np.concatenate([values, [truth]])))
    total = 0.0
    k = len(values)
    for a, b in zip(pts[:-1], pts[1:]):
        f = np.sum(values <= a) / k
        h = 1.0 if a >= truth else 0.0
        total += (f - h) ** 2 * (b - a)
    return total


def test_criterion_08_crps_oracle():
    t0 = time.time()
    rng = np.random.default_rng(81)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 41))
        vals = rng.standard_normal(k) * rng.uniform(0.1, 5.0)
        if k > 3 and rng.uniform() < 0.4:
            vals[: k // 2] = np.round(vals[: k // 2], 1)  # ties
        truth = rng.standard_normal() * 2.0
        exact = _crps_by_integration(vals, truth)
        # the one-point formula, and the package's field form on a 1-point field
        worst = max(
            worst,
            abs(crps_empirical(vals, truth) - exact),
            abs(field_crps(vals[:, None], np.array([truth])) - exact),
        )
    examples = (
        crps_empirical(np.array([0.0, 1.0]), 0.0) == 0.25
        and crps_empirical(np.array([1.7]), 0.5) == abs(1.7 - 0.5)
        and crps_empirical(np.full(7, 2.2), 2.2) == 0.0
    )
    _report(
        8,
        worst <= 1e-8 and examples,
        f"(max |formula - integral| {worst:.2e}, worked examples {examples}, "
        f"{time.time() - t0:.1f}s)",
    )


def test_criterion_09_sweq_sanity():
    t0 = time.time()
    params = ModelParams(plume_rate=0.0, warm_start_days=0.0)
    n = params.grid.n_points
    dx = params.grid.spacing_m

    rng = np.random.default_rng(91)
    h = params.h_rest + 0.01 * np.sin(np.linspace(0, 4 * np.pi, n, endpoint=False))
    u = 0.01 * rng.standard_normal(n)
    vec = np.concatenate([h, u, np.zeros(n)])[None, :]
    mass0 = vec[0, :n].sum() * dx
    out = advance_members(vec, params, 100, [rng])
    drift = abs(out[0, :n].sum() * dx - mass0) / mass0

    rest = rest_state(params)[None, :]
    fixed = np.array_equal(advance_members(rest.copy(), params, 10, [rng]), rest)

    r0 = 0.05
    vec_r = np.concatenate([np.full(n, params.h_rest), np.zeros(n), np.full(n, r0)])
    out_r = advance_members(vec_r[None, :], params, 100, [rng])
    expected = r0 * np.exp(-params.alpha_rain * 100 * params.dt_s)
    decay_err = abs(out_r[0, 2 * n] - expected) / expected
    _report(
        9,
        drift < 1e-10 and fixed and decay_err < 0.01,
        f"(mass drift {drift:.1e}, rest fixed {fixed}, decay error "
        f"{100 * decay_err:.2f}%, {time.time() - t0:.1f}s)",
    )


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk")
    results = {}
    for name, threads in (("t1", 1), ("t8", 8)):
        out = base / name
        cfg = ExperimentConfig(
            scenario="hf",
            methods=("lenkf", "naive_lenkpf", "block_lenkpf", "free"),
            k=50,
            repetitions=20,
            base_seed=1,
            out_dir=str(out),
        )
        t0 = time.time()
        records, _ = run_experiment(cfg, threads=threads)
        results[name] = (
            records,
            (out / "scores.csv").read_bytes(),
            time.time() - t0,
        )
    return results


@pytest.mark.slow
def test_criterion_10_desk_hf_experiment(desk_run):
    records, _, elapsed = desk_run["t1"]
    final = {}
    for rec in records:
        if rec.cycle == 12 and rec.field == "r":
            final[(rec.rep, rec.method)] = rec.relative_pct
    reps = sorted({rep for rep, _ in final})

    def rel(rep, method):
        val = final.get((rep, method))
        return np.inf if val is None else val

    naive = np.array([rel(rep, "naive_lenkpf") for rep in reps])
    block = np.array([rel(rep, "block_lenkpf") for rep in reps])
    lenkf = np.array([rel(rep, "lenkf") for rep in reps])
    beats_lenkf_naive = np.mean(naive < lenkf)
    beats_lenkf_block = np.mean(block < lenkf)
    ok = (
        len(reps) == 20
        and naive.mean() < 100.0
        and block.mean() < 100.0
        and beats_lenkf_naive >= 0.6
        and beats_lenkf_block >= 0.6
    )
    _report(
        10,
        ok,
        f"(mean rain CRPS rel. free: naive {naive.mean():.0f}%, block "
        f"{block.mean():.0f}%, lenkf {lenkf.mean():.0f}%; beats lenkf in "
        f"{beats_lenkf_naive:.0%}/{beats_lenkf_block:.0%} of reps, "
        f"{elapsed:.0f}s)",
    )


@pytest.mark.slow
def test_criterion_11_thread_determinism(desk_run):
    _, bytes1, el1 = desk_run["t1"]
    _, bytes8, el8 = desk_run["t8"]
    _report(
        11,
        bytes1 == bytes8,
        f"(scores.csv identical across threads 1/8: {bytes1 == bytes8}, "
        f"{el1:.0f}s vs {el8:.0f}s)",
    )
