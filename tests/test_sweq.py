import hashlib

import numpy as np
import pytest
import scipy.stats

from enkpf import sweq
from enkpf.errors import CflViolation, NumericalBlowup
from enkpf.grid import GridGeometry
from enkpf.sweq import (
    ModelParams,
    RadarObs,
    advance_ensembles,
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
from oracles import roll_advance


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


def active_members(params, rows, seed):
    """(rows, 3n) random states with clouds, rain and convergence everywhere."""
    rng = np.random.default_rng(seed)
    n = params.geometry.n_points
    members = np.empty((rows, params.layout.dim))
    fields = params.layout.split(members)
    fields["h"][...] = params.h_rest + rng.normal(0.0, 0.2, (rows, n))
    fields["u"][...] = rng.normal(0.0, 1.0, (rows, n))
    fields["r"][...] = rng.exponential(0.02, (rows, n))
    return members


@pytest.mark.parametrize("plume_rate", [0.0, 8e-5])
@pytest.mark.parametrize("rows", [1, 2, 50])
def test_step_is_bitwise_the_roll_step(rows, plume_rate):
    params = ModelParams(plume_rate=plume_rate)
    members = active_members(params, rows, 20 + rows)
    rngs = [np.random.default_rng(i) for i in range(rows)]
    out = advance_members(members, params, 120, rngs)
    rngs = [np.random.default_rng(i) for i in range(rows)]
    np.testing.assert_array_equal(out, roll_advance(members, params, 120, rngs))
    fields = params.layout.split(out)
    assert (fields["h"] > params.h_rain).any() and (fields["r"] > params.rain_threshold).any()


@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_tiny_rings_are_bitwise_the_roll_step(n_points):
    # on one, two and three points the halos are the interior's own edges,
    # and each point may be its own neighbour on both sides
    params = small_params(geometry=GridGeometry(n_points, 500.0), plume_rate=1e-2)
    members = active_members(params, 4, 60 + n_points)
    out = advance_members(members, params, 50, fresh_rngs(4))
    np.testing.assert_array_equal(out, roll_advance(members, params, 50, fresh_rngs(4)))
    assert not np.array_equal(out, members)


def test_cfl_bound_above_the_limit_leaves_the_verdict_to_the_exact_check():
    # max|u| and max h at different points: max|u| + sqrt(g max h) is about
    # 131 m/s, above the dx / dt = 100 m/s limit, but no point moves faster
    # than 60 + sqrt(10 * 90) = 90 m/s
    params = small_params()
    n = params.geometry.n_points
    h, u = np.full(n, 90.0), np.zeros(n)
    u[10], h[30] = 60.0, 500.0
    limit = params.geometry.spacing_m / params.dt_s
    assert np.abs(u).max() + np.sqrt(params.gravity * h.max()) > limit
    x = state(h, u, np.zeros(n))[None, :]
    out = advance_members(x, params, 1, fresh_rngs(1))
    np.testing.assert_array_equal(out, roll_advance(x, params, 1, fresh_rngs(1)))
    # over the limit at one point: the message gives the true speed
    u[10] = 80.0
    with pytest.raises(CflViolation, match=r"^dt=5\.0s exceeds CFL bound 4\.545s "
                       r"\(max speed 110\.00 m/s\)$"):
        step(state(h, u, np.zeros(n)), params, 6)


class PlacedPlumes:
    """Stub rng: one plume per step at each of the given centers in turn."""

    def __init__(self, centers):
        self.centers = list(centers)
        self.count = 0

    def poisson(self, lam):
        return 1

    def uniform(self, low=0.0, high=1.0, size=None):
        self.count += 1
        if self.count % 2:  # the center draw
            return np.array([self.centers.pop(0)])
        return np.array([0.25 if self.count % 4 else 0.75])  # the sign draw


def test_plumes_at_the_wrap_points_match_the_roll_step():
    # the wrap's edge cases: a center just above length / 2, whose offset
    # from grid point 0 rounds up onto length; centers whose offsets land
    # exactly on 0 or length / 2; the largest center uniform can draw
    params = ModelParams()
    length = params.geometry.domain_m
    centers = [np.nextafter(0.5 * length, length), 0.5 * length, 0.0,
               np.nextafter(length, 0.0), 1e-9, 250.0]
    x = rest_state(params)[None, :]
    out = advance_members(x, params, len(centers), [PlacedPlumes(centers)])
    ref = roll_advance(x, params, len(centers), [PlacedPlumes(centers)])
    np.testing.assert_array_equal(out, ref)
    assert np.abs(params.layout.split(out[0])["u"]).max() > 0


# ---------------------------------------------------------- lock-step ensembles


def fresh_rngs(rows):
    return [np.random.default_rng(40 + i) for i in range(rows)]


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("n_ensembles", [1, 2, 3])
def test_lock_step_is_bitwise_separate_runs(monkeypatch, n_ensembles, rows):
    # about 2 plumes per row and step, so rows often get several in one step
    # and the order in which they are added matters
    params = small_params(plume_rate=1e-3)
    ensembles = [active_members(params, rows, 30 + j) for j in range(n_ensembles)]
    before = [x.copy() for x in ensembles]
    bump_rows = []
    real = sweq._plume_bumps

    def logged(params, rngs, xg):
        rows, bumps = real(params, rngs, xg)
        bump_rows.append(list(rows))
        return rows, bumps

    monkeypatch.setattr(sweq, "_plume_bumps", logged)
    out = advance_ensembles(ensembles, params, 40, fresh_rngs(rows))
    assert len(bump_rows) == 40
    assert any(len(set(step_rows)) < len(step_rows) for step_rows in bump_rows)
    assert len(out) == n_ensembles
    for x, x0, lock in zip(ensembles, before, out):
        assert x.tobytes() == x0.tobytes()  # the inputs are not modified
        np.testing.assert_array_equal(lock, advance_members(x, params, 40, fresh_rngs(rows)))


def jet(params, rows, row, speed):
    """Rest states of which one row carries a wind jet of the given speed."""
    members = np.tile(rest_state(params), (rows, 1))
    params.layout.split(members)["u"][row, 20:30] = speed
    return members


@pytest.mark.parametrize("kind", [CflViolation, NumericalBlowup])
def test_failed_ensemble_keeps_its_slot_and_others_carry_on(kind):
    params = small_params(plume_rate=1e-3)
    rows, steps = 5, 30
    if kind is CflViolation:
        bad = jet(params, rows, 2, 50.0)
        advance_members(bad, params, 17, fresh_rngs(rows))  # it fails at step 18
    else:
        bad = active_members(params, rows, 33)
        params.layout.split(bad)["h"][1, 7] = np.nan
    good = [active_members(params, rows, 31), active_members(params, rows, 32)]
    before = [x.copy() for x in (good[0], bad, good[1])]
    out = advance_ensembles([good[0], bad, good[1]], params, steps, fresh_rngs(rows))
    with pytest.raises(kind) as solo:
        advance_members(bad, params, steps, fresh_rngs(rows))
    assert type(out[1]) is kind and str(out[1]) == str(solo.value)
    for x, lock in zip(good, (out[0], out[2])):
        np.testing.assert_array_equal(lock, advance_members(x, params, steps, fresh_rngs(rows)))
    for x, x0 in zip((good[0], bad, good[1]), before):
        assert np.array_equal(x, x0, equal_nan=True)


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


# The digest of warm_state(ModelParams(warm_start_days=0.05)), keyed by the
# digest of exp over EXP_PROBE. float64 exp is the one operation of the
# model whose bits depend on the platform: numpy uses its own AVX-512 kernel
# where the CPU has one and the C library's exp elsewhere, and the two
# differ in the last bit for about 2 % of arguments.
EXP_PROBE = -np.linspace(0.0, 745.0, 100_001)
WARM_STATE_SHA256 = {
    # numpy 2.4 AVX-512 exp
    "8f191b961d2c9873cbfeadaaa9cd9a587f80a9d4a6492e6d2c17e165fb7ad7d6":
        "cdddf2191991459bffdd12c428b661c44b98a08872a018305452f70f91356c36",
    # glibc exp, as math.exp computes it
    "0a63b69d12e2092211195b9ed2a645f2f1fe57ba2f99c62ee52dd093b645233f":
        "ec8613545c584b9026db3bdca7ef05c2352bcb31b0660c0ba622662b70588490",
}


def test_warm_state_bits_are_pinned():
    expected = WARM_STATE_SHA256.get(_sha(np.exp(EXP_PROBE)))
    if expected is None:
        pytest.skip("no warm_state digest pinned for this platform's float64 exp")
    assert _sha(warm_state(ModelParams(warm_start_days=0.05))) == expected


def test_params_validation():
    with pytest.raises(ValueError):
        small_params(h_rain=90.0, h_cloud=90.02)
    with pytest.raises(ValueError):
        small_params(dt_s=0.0)
    with pytest.raises(ValueError):
        small_params(alpha_rain=-1.0)
    for gravity in (0.0, -10.0, float("nan")):
        with pytest.raises(ValueError, match="gravity"):
            small_params(gravity=gravity)


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
