import numpy as np
import pytest
import scipy.stats

from enkpf.errors import CflViolation, NumericalBlowup
from enkpf.grid import GridGeometry
from enkpf.sweq import (
    ModelParams,
    RadarObs,
    advance_members,
    gen_observations,
    load_ensemble_csv,
    load_state_csv,
    obs_to_gauss,
    rest_state,
    save_ensemble_csv,
    save_state_csv,
    spinup_ensemble,
    warm_state,
)


def small_params(**kw):
    defaults = dict(geometry=GridGeometry(50, 500.0), plume_rate=0.0)
    defaults.update(kw)
    return ModelParams(**defaults)


def state(h, u, r):
    """A (3n,) state vector from its three fields."""
    return np.concatenate([h, u, r])


def step(x, params, seed):
    """The fields of state x after one model step, drawn from rng seed."""
    out = advance_members(x[None, :], params, 1, [np.random.default_rng(seed)])
    return params.layout.split(out[0])


class FixedNormals:
    """Stub rng handing out pre-set standard normals (observation branch tests)."""

    def __init__(self, *blocks):
        self.blocks = [np.asarray(b, dtype=float) for b in blocks]

    def standard_normal(self, size=None):
        block = self.blocks.pop(0)
        assert block.shape == ((size,) if np.isscalar(size) else tuple(size or ()))
        return block


# ------------------------------------------------------------------- dynamics


def test_rest_state_is_fixed_point():
    params = small_params()
    x = rest_state(params)
    out = step(x, params, 0)
    rest = params.layout.split(x)
    np.testing.assert_array_equal(out["h"], rest["h"])
    np.testing.assert_array_equal(out["u"], rest["u"])
    np.testing.assert_array_equal(out["r"], rest["r"])


def test_mass_conservation_over_100_steps():
    params = small_params()
    rng = np.random.default_rng(1)
    n = params.geometry.n_points
    h = 90.0 + 0.1 * np.sin(2 * np.pi * np.arange(n) / n) + 0.01 * rng.standard_normal(n)
    u = 0.5 * rng.standard_normal(n)
    r = np.abs(0.01 * rng.standard_normal(n))
    vec = np.concatenate([h, u, r])[None, :]
    mass0 = h.sum()
    out = advance_members(vec, params, 100, [np.random.default_rng(2)])
    mass1 = out[0, :n].sum()
    assert abs(mass1 - mass0) / mass0 < 1e-10


def test_rain_decay_rate():
    params = small_params(alpha_rain=0.0012)
    n = params.geometry.n_points
    r0 = 0.08
    vec = np.concatenate([np.full(n, 90.0), np.zeros(n), np.full(n, r0)])[None, :]
    steps = 100
    out = advance_members(vec, params, steps, [np.random.default_rng(3)])
    r_end = out[0, 2 * n :]
    # uniform rain, no wind: only the removal term acts, each step scales by
    # (1 - alpha dt); that discrete factor is exact, the continuous rate to 1%
    discrete = r0 * (1.0 - params.alpha_rain * params.dt_s) ** steps
    np.testing.assert_allclose(r_end, discrete, rtol=1e-12)
    continuous = r0 * np.exp(-params.alpha_rain * steps * params.dt_s)
    assert abs(r_end[0] - continuous) / continuous < 0.01


def test_rain_production_only_in_convergent_cloud():
    params = small_params(diff_r=0.0, alpha_rain=0.0)
    n = params.geometry.n_points
    h = np.full(n, 90.5)  # above the rain threshold everywhere
    u = -0.1 * np.sin(2 * np.pi * np.arange(n) / n)
    out = step(state(h, u, np.zeros(n)), params, 4)
    dudx = (np.roll(u, -1) - np.roll(u, 1)) / (2 * params.geometry.spacing_m)
    assert (out["r"][dudx < 0] > 0).all()
    assert (out["r"][dudx >= 0] == 0).all()


def test_rain_never_negative():
    params = small_params(alpha_rain=0.5, dt_s=5.0)  # removal overshoots in one step
    n = params.geometry.n_points
    out = step(state(np.full(n, 90.0), np.zeros(n), np.full(n, 0.01)), params, 5)
    assert (out["r"] >= 0).all()


def test_cfl_violation_raises():
    params = small_params()
    n = params.geometry.n_points
    with pytest.raises(CflViolation):
        step(state(np.full(n, 90.0), np.full(n, 200.0), np.zeros(n)), params, 6)


def test_blowup_reports_grid_index():
    params = small_params()
    n = params.geometry.n_points
    h = np.full(n, 90.0)
    h[7] = np.nan
    with pytest.raises(NumericalBlowup) as info:
        step(state(h, np.zeros(n), np.zeros(n)), params, 7)
    assert info.value.grid_index in (6, 7, 8)


def test_plumes_perturb_wind_reproducibly():
    params = small_params(plume_rate=8e-5)
    vec = rest_state(params)[None, :]
    steps = 200  # lambda ~ 8e-5 * 25000 m * (5/60) min/step * 200 steps = 33 plumes
    out1 = advance_members(vec, params, steps, [np.random.default_rng(8)])
    out2 = advance_members(vec, params, steps, [np.random.default_rng(8)])
    out3 = advance_members(vec, params, steps, [np.random.default_rng(9)])
    assert np.abs(params.layout.split(out1[0])["u"]).max() > 0
    np.testing.assert_array_equal(out1, out2)
    assert not np.array_equal(out1, out3)


def test_members_evolve_independently():
    params = small_params(plume_rate=8e-5)
    vec = np.tile(rest_state(params), (2, 1))
    out = advance_members(
        vec, params, 100, [np.random.default_rng(10), np.random.default_rng(11)]
    )
    assert not np.array_equal(out[0], out[1])


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(h_rain=90.0, h_cloud=90.02)
    with pytest.raises(ValueError):
        small_params(dt_s=0.0)
    with pytest.raises(ValueError):
        small_params(alpha_rain=-1.0)


# --------------------------------------------------------------------- spinup


def test_spinup_zero_separation_degenerates():
    params = small_params()
    ens = spinup_ensemble(params, 4, 0.0, np.random.default_rng(14))
    assert ens.shape == (4, 3 * params.geometry.n_points)
    rest = rest_state(params)
    for i in range(4):
        np.testing.assert_array_equal(ens[i], rest)
    with pytest.raises(ValueError):
        spinup_ensemble(params, 1, 0.0, np.random.default_rng(15))


@pytest.mark.parametrize("plume_rate", [0.0, 8e-5])
def test_warm_state_is_read_only_and_cached(plume_rate):
    params = small_params(plume_rate=plume_rate, warm_start_days=0.001)
    first = warm_state(params)
    before = first.copy()
    with pytest.raises(ValueError):
        first[0] = 0.0
    again = warm_state(params)
    assert again is first
    np.testing.assert_array_equal(again, before)


def test_spinup_members_distinct():
    params = small_params(plume_rate=8e-5)
    ens = spinup_ensemble(params, 3, 0.005, np.random.default_rng(16))
    assert not np.array_equal(ens[0], ens[1])
    assert not np.array_equal(ens[1], ens[2])


# --------------------------------------------------------------- observations


def test_gen_observations_dry_state():
    params = small_params()
    radar = gen_observations(rest_state(params), params, np.random.default_rng(17))
    np.testing.assert_array_equal(radar.y_r, 0.0)
    assert radar.wet_idx.size == 0
    assert radar.y_u.size == 0


def test_gen_observations_branches():
    params = ModelParams(geometry=GridGeometry(4, 500.0), plume_rate=0.0)
    rc = params.rain_threshold
    r = np.array([0.0, rc + 0.09, rc + 0.0001, rc + 0.04])
    u = np.array([1.0, 2.0, 3.0, 4.0])
    x = state(np.full(4, 90.0), u, r)
    # eps: point 1 mild positive, point 2 hugely negative (truncates to 0),
    # point 3 negative enough that y_r lands below the wet threshold
    eps = np.array([0.5, 0.1, -20.0, -0.3]) / params.sigma_r
    wind_noise = np.array([2.0])
    radar = gen_observations(x, params, FixedNormals(eps, wind_noise))
    assert radar.y_r[0] == 0.0  # dry stays dry regardless of noise
    np.testing.assert_allclose(radar.y_r[1], (np.sqrt(0.09) + 0.05) ** 2, rtol=1e-12)
    assert radar.y_r[2] == 0.0  # negative amplitude truncates
    amp3 = np.sqrt(0.04) - 0.15
    np.testing.assert_allclose(radar.y_r[3], amp3**2, rtol=1e-12)
    assert radar.y_r[3] < rc  # wet in truth, dry in the observation
    np.testing.assert_array_equal(radar.wet_idx, [1])
    np.testing.assert_allclose(radar.y_u, [2.0 + 2.0 * params.sigma_u], rtol=1e-12)


def test_gen_observations_sqrt_transform_distribution():
    # sqrt(y_r) ~ N(sqrt(r - r_c), sigma_r^2/4) when truncation is negligible
    params = small_params()
    n = params.geometry.n_points
    rc = params.rain_threshold
    x = state(np.full(n, 90.0), np.zeros(n), np.full(n, rc + 0.09))
    rng = np.random.default_rng(18)
    samples = np.concatenate(
        [gen_observations(x, params, rng).y_r for _ in range(60)]
    )
    stat = scipy.stats.kstest(np.sqrt(samples), "norm", args=(0.3, params.sigma_r / 2))
    assert stat.pvalue > 1e-3


def test_gen_observations_independent_across_points():
    params = small_params()
    n = params.geometry.n_points
    x = state(np.full(n, 90.0), np.zeros(n), np.full(n, params.rain_threshold + 0.09))
    rng = np.random.default_rng(19)
    draws = np.array([gen_observations(x, params, rng).y_r for _ in range(3000)])
    rho = np.corrcoef(draws[:, 10], draws[:, 11])[0, 1]
    assert abs(rho) < 0.06


def test_obs_to_gauss_layout():
    radar_n = 4
    radar = RadarObs(
        y_r=np.array([0.0, 0.3, 0.0, 0.01]),
        wet_idx=np.array([1, 3]),
        y_u=np.array([1.5, -0.5]),
    )
    obs = obs_to_gauss(radar, 0.025**2, 0.0025**2)
    np.testing.assert_array_equal(obs.h_rows, [8, 9, 10, 11, 5, 7])
    np.testing.assert_allclose(obs.y, [0.0, 0.3, 0.0, 0.01, 1.5, -0.5])
    np.testing.assert_allclose(obs.r_diag[:radar_n], 0.025**2)
    np.testing.assert_allclose(obs.r_diag[radar_n:], 0.0025**2)


# ----------------------------------------------------------------------- csv


def test_state_csv_roundtrip(tmp_path):
    params = small_params(plume_rate=8e-5)
    vec = advance_members(
        rest_state(params)[None, :], params, 50, [np.random.default_rng(20)]
    )
    path = tmp_path / "state.csv"
    save_state_csv(vec[0], path)
    back = params.layout.split(load_state_csv(path))
    saved = params.layout.split(vec[0])
    np.testing.assert_array_equal(back["h"], saved["h"])
    np.testing.assert_array_equal(back["u"], saved["u"])
    np.testing.assert_array_equal(back["r"], saved["r"])


def test_ensemble_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(21)
    members = rng.standard_normal((3, 12))
    path = tmp_path / "ens.csv"
    save_ensemble_csv(members, path)
    back = load_ensemble_csv(path)
    np.testing.assert_array_equal(back, members)
