import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import sweq
from enkpf.errors import CflViolation, NumericalBlowup
from enkpf.grid import Grid
from enkpf.sweq import (
    MAX_STEPS,
    ModelParams,
    advance_ensembles,
    advance_members,
    gen_observations,
    load_ensemble_csv,
    load_state_csv,
    rest_state,
    save_ensemble_csv,
    save_state_csv,
    spinup_ensemble,
    warm_state,
)
from oracles import plume_draws, roll_advance


def small_params(**kw):
    defaults = dict(grid=Grid(50, 500.0), plume_rate=0.0)
    defaults.update(kw)
    return ModelParams(**defaults)


def state(h, u, r):
    """A (3n,) state vector from its three fields."""
    return np.concatenate([h, u, r])


def step(x, params, seed):
    """The fields of state x after one model step, drawn from rng seed."""
    out = advance_members(x[None, :], params, 1, [np.random.default_rng(seed)])
    return params.grid.split(out[0])


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
    rest = params.grid.split(x)
    np.testing.assert_array_equal(out["h"], rest["h"])
    np.testing.assert_array_equal(out["u"], rest["u"])
    np.testing.assert_array_equal(out["r"], rest["r"])


def test_mass_conservation_over_100_steps():
    params = small_params()
    rng = np.random.default_rng(1)
    n = params.grid.n_points
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
    n = params.grid.n_points
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
    n = params.grid.n_points
    h = np.full(n, 90.5)  # above the rain threshold everywhere
    u = -0.1 * np.sin(2 * np.pi * np.arange(n) / n)
    out = step(state(h, u, np.zeros(n)), params, 4)
    dudx = (np.roll(u, -1) - np.roll(u, 1)) / (2 * params.grid.spacing_m)
    assert (out["r"][dudx < 0] > 0).all()
    assert (out["r"][dudx >= 0] == 0).all()


def test_rain_never_negative():
    params = small_params(alpha_rain=0.5, dt_s=5.0)  # removal overshoots in one step
    n = params.grid.n_points
    out = step(state(np.full(n, 90.0), np.zeros(n), np.full(n, 0.01)), params, 5)
    assert (out["r"] >= 0).all()


def test_cfl_violation_raises():
    params = small_params()
    n = params.grid.n_points
    with pytest.raises(CflViolation):
        step(state(np.full(n, 90.0), np.full(n, 200.0), np.zeros(n)), params, 6)


def test_blowup_reports_grid_index():
    params = small_params()
    n = params.grid.n_points
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
    assert np.abs(params.grid.split(out1[0])["u"]).max() > 0
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
    n = params.grid.n_points
    members = np.empty((rows, params.grid.dim))
    fields = params.grid.split(members)
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
    fields = params.grid.split(out)
    assert (fields["h"] > params.h_rain).any() and (fields["r"] > params.rain_threshold).any()


@pytest.mark.parametrize("n_points", [1, 2, 3])
def test_tiny_rings_are_bitwise_the_roll_step(n_points):
    # on one, two and three points the halos are the interior's own edges,
    # and each point may be its own neighbour on both sides
    params = small_params(grid=Grid(n_points, 500.0), plume_rate=1e-2)
    members = active_members(params, 4, 60 + n_points)
    out = advance_members(members, params, 50, fresh_rngs(4))
    np.testing.assert_array_equal(out, roll_advance(members, params, 50, fresh_rngs(4)))
    assert not np.array_equal(out, members)


def test_cfl_bound_above_the_limit_leaves_the_verdict_to_the_exact_check():
    # max|u| and max h at different points: max|u| + sqrt(g max h) is about
    # 131 m/s, above the dx / dt = 100 m/s limit, but no point moves faster
    # than 60 + sqrt(10 * 90) = 90 m/s
    params = small_params()
    n = params.grid.n_points
    h, u = np.full(n, 90.0), np.zeros(n)
    u[10], h[30] = 60.0, 500.0
    limit = params.grid.spacing_m / params.dt_s
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
    """Stub rng: one plume per step, centered at length * U for each of the
    given doubles U in turn, its sign draws 0.75 and 0.25 in turn."""

    def __init__(self, doubles):
        self.doubles = list(doubles)

    def poisson(self, lam, size):
        return np.ones(size, dtype=np.int64)

    def random(self, size):
        # a block's center doubles, then its sign draws
        plumes = size // 2
        centers = [self.doubles.pop(0) for _ in range(plumes)]
        return np.array(centers + [0.75, 0.25] * (plumes // 2) + [0.75] * (plumes % 2))


def test_plumes_at_the_wrap_points_match_the_roll_step():
    # the wrap's edge cases: a center just above length / 2, whose offset
    # from grid point 0 rounds up onto length; centers whose offsets land
    # exactly on 0 or length / 2; the largest center the draws can give
    params = ModelParams()
    length = params.grid.domain_m
    doubles = [np.nextafter(0.5, 1.0), 0.5, 0.0, np.nextafter(1.0, 0.0), 1e-9 / length,
               250.0 / length, np.nextafter(0.5, 0.0), 0.25]
    assert length * doubles[0] == np.nextafter(0.5 * length, length)
    assert length * doubles[3] == np.nextafter(length, 0.0)
    x = rest_state(params)[None, :]
    # two blocks of draws, the last step's plume drawn and dropped
    placed = PlacedPlumes(doubles)
    out = advance_members(x, params, 7, [placed])
    assert placed.doubles == []
    ref = roll_advance(x, params, 7, [PlacedPlumes(doubles)])
    np.testing.assert_array_equal(out, ref)
    assert np.abs(params.grid.split(out[0])["u"]).max() > 0


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
    rngs = fresh_rngs(rows)
    counts = {id(rng): [] for rng in rngs}
    real = sweq._plume_block

    def logged(rng, lam, length):
        block = real(rng, lam, length)
        counts[id(rng)].extend(block[0].tolist())
        return block

    with monkeypatch.context() as patch:
        patch.setattr(sweq, "_plume_block", logged)
        out = advance_ensembles(ensembles, params, 40, rngs)
    assert all(len(row_counts) == 40 for row_counts in counts.values())
    assert any(count > 1 for row_counts in counts.values() for count in row_counts)
    assert len(out) == n_ensembles
    for x, x0, lock in zip(ensembles, before, out):
        assert x.tobytes() == x0.tobytes()  # the inputs are not modified
        np.testing.assert_array_equal(lock, advance_members(x, params, 40, fresh_rngs(rows)))


def jet(params, rows, row, speed):
    """Rest states of which one row carries a wind jet of the given speed."""
    members = np.tile(rest_state(params), (rows, 1))
    params.grid.split(members)["u"][row, 20:30] = speed
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
        params.grid.split(bad)["h"][1, 7] = np.nan
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


@settings(max_examples=100, deadline=None)
@given(
    n_points=st.integers(1, 40),
    rows=st.integers(1, 6),
    n_ensembles=st.integers(1, 3),
    rate=st.floats(0.0, 1.0),
    steps=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_advance_ensembles_is_bitwise_the_roll_step(n_points, rows, n_ensembles, rate, steps,
                                                     seed, data):
    # plume_rate from 0 to the cap of n_points plumes per step; in some
    # examples one more ensemble, holding a NaN, fails at its first step
    spacing, dt = 500.0, 5.0
    params = ModelParams(grid=Grid(n_points, spacing), dt_s=dt,
                         plume_rate=rate * 60.0 / (spacing * dt))
    ensembles = [active_members(params, rows, seed + j) for j in range(n_ensembles)]
    failing = data.draw(st.none() | st.integers(0, n_ensembles))
    if failing is not None:
        bad = active_members(params, rows, seed + n_ensembles)
        params.grid.split(bad)["r"][rows - 1, n_points // 2] = np.nan
        ensembles.insert(failing, bad)

    def rngs():
        return [np.random.default_rng([seed, i]) for i in range(rows)]

    out = advance_ensembles(ensembles, params, steps, rngs())
    assert len(out) == len(ensembles)
    for j, (x, lock) in enumerate(zip(ensembles, out)):
        if j == failing:
            assert type(lock) is NumericalBlowup
        else:
            ref = roll_advance(x, params, steps, rngs())
            assert lock.shape == ref.shape and lock.tobytes() == ref.tobytes()


def nan_buffer(fields, rows, n):
    """A sweq._buffer that starts as NaN, halos and work buffers included."""
    return np.full((fields, rows, n + 2), np.nan)


@settings(max_examples=100, deadline=None)
@given(
    n_points=st.integers(1, 40),
    rows=st.integers(1, 6),
    n_ensembles=st.integers(1, 3),
    rate=st.floats(0.0, 1.0),
    steps=st.integers(1, 20),
    seed=st.integers(0, 2**32 - 1),
)
def test_garbage_in_halos_and_work_buffers_is_never_read(n_points, rows, n_ensembles, rate,
                                                         steps, seed):
    # a step runs its ufuncs over the halo columns between rows too, and the
    # values made there are overwritten before anything reads them: with
    # every buffer starting as NaN, any read of one would show as a NaN in
    # the output or a spurious NumericalBlowup or CflViolation
    spacing, dt = 500.0, 5.0
    params = ModelParams(grid=Grid(n_points, spacing), dt_s=dt,
                         plume_rate=rate * 60.0 / (spacing * dt))
    ensembles = [active_members(params, rows, seed + j) for j in range(n_ensembles)]

    def rngs():
        return [np.random.default_rng([seed, i]) for i in range(rows)]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweq, "_buffer", nan_buffer)
        out = advance_ensembles(ensembles, params, steps, rngs())
    for x, lock in zip(ensembles, out):
        assert isinstance(lock, np.ndarray)
        assert lock.tobytes() == roll_advance(x, params, steps, rngs()).tobytes()


@pytest.mark.parametrize("field, column, message", [
    ("h", 0, "non-finite h at grid index 0 (t=5.0s)"),
    ("u", 6, "non-finite h at grid index 0 (t=5.0s)"),
    ("r", 0, "non-finite u at grid index 1 (t=5.0s)"),
    ("r", 6, "non-finite u at grid index 0 (t=5.0s)"),
])
def test_nan_at_a_row_edge_fails_with_the_first_point_it_reaches(monkeypatch, field, column,
                                                                  message):
    # a NaN at the first or last interior column reaches its neighbours
    # across the wrap in one step; the error names the first non-finite
    # point, h before u before r, even when every buffer starts as NaN
    monkeypatch.setattr(sweq, "_buffer", nan_buffer)
    params = small_params(grid=Grid(7, 500.0))
    members = np.tile(rest_state(params), (3, 1))
    params.grid.split(members)[field][1, column] = np.nan
    with pytest.raises(NumericalBlowup) as info:
        advance_members(members, params, 2, fresh_rngs(3))
    assert str(info.value) == message and info.value.time == 5.0


@pytest.mark.parametrize("column", [0, 39])
def test_jet_at_a_row_edge_gets_the_cfl_verdict(monkeypatch, column):
    # the CFL bound reads the halos, which hold wrapped copies: a jet at a
    # row's first or last interior column is seen once, at its true speed
    monkeypatch.setattr(sweq, "_buffer", nan_buffer)
    params = small_params(grid=Grid(40, 500.0))
    members = np.tile(rest_state(params), (3, 1))
    params.grid.split(members)["u"][2, column] = 60.0  # 90 m/s, under dx / dt
    out = advance_members(members, params, 1, fresh_rngs(3))
    assert out.tobytes() == roll_advance(members, params, 1, fresh_rngs(3)).tobytes()
    for speed in (80.0, -80.0):
        params.grid.split(members)["u"][2, column] = speed
        with pytest.raises(CflViolation, match=r"^dt=5\.0s exceeds CFL bound 4\.545s "
                           r"\(max speed 110\.00 m/s\)$"):
            advance_members(members, params, 1, fresh_rngs(3))


def test_zero_rows_are_inconsistent():
    params = small_params(plume_rate=8e-5)
    with pytest.raises(ValueError, match="members/rngs inconsistent"):
        advance_ensembles([np.empty((0, params.grid.dim))], params, 3, [])
    with pytest.raises(ValueError, match="members/rngs inconsistent"):
        advance_members(np.empty((0, params.grid.dim)), params, 3, [])


# -------------------------------------------------------------- plume draws

BIT_GENERATORS = [np.random.Philox, np.random.PCG64]
# mean plume counts on both sides of 10, where numpy's poisson changes method
PLUME_MEANS = st.sampled_from([0.0, 1.0, 10.0]) | st.floats(0.0, 10.0) | st.floats(10.0, 40.0)


def plume_params(lam, **kw):
    """Model parameters on 40 points of 500 m with about lam plumes a step."""
    n_points, spacing, dt = 40, 500.0, 5.0
    return ModelParams(grid=Grid(n_points, spacing), dt_s=dt,
                       plume_rate=lam * 60.0 / (n_points * spacing * dt), **kw)


def twin_generators(bit_generator, seed, rows=1):
    """Two lists of generators with the same streams."""
    return [[np.random.Generator(bit_generator([seed, i])) for i in range(rows)]
            for _ in range(2)]


@settings(max_examples=100, deadline=None)
@given(bit_generator=st.sampled_from(BIT_GENERATORS), lam=PLUME_MEANS,
       blocks=st.integers(0, 10), extra=st.integers(1, sweq._BLOCK_STEPS - 1),
       rows=st.integers(1, 6), n_ensembles=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_a_row_is_bitwise_the_same_alone_and_in_lock_step(bit_generator, lam, blocks, extra, rows,
                                                          n_ensembles, seed, data):
    # each row draws its plumes from its own generator, block by block from
    # the first step, so its trajectory does not depend on the rows and
    # ensembles advanced with it, also when the steps end within a block
    params = plume_params(lam)
    steps = blocks * sweq._BLOCK_STEPS + extra
    row = data.draw(st.integers(0, rows - 1))
    ensembles = [active_members(params, rows, seed + j) for j in range(n_ensembles)]
    rngs, twins = twin_generators(bit_generator, seed, rows)
    out = advance_ensembles(ensembles, params, steps, rngs)
    for x, lock in zip(ensembles, out):
        alone = advance_members(x[row:row + 1], params, steps,
                                [np.random.Generator(bit_generator([seed, row]))])
        assert lock[row].tobytes() == alone[0].tobytes()
    # each generator is left after the blocks of the steps, the last one whole
    for rng, twin in zip(rngs, twins):
        plume_draws(twin, params.plumes_per_step, params.grid.domain_m, steps)
        assert rng.random(100).tobytes() == twin.random(100).tobytes()


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_bumps_from_rest_are_bitwise_the_roll_steps(bit_generator):
    # one step from rest leaves u equal to the step's bumps, so their tails,
    # subnormal down to exp's underflow, show bit for bit
    params = ModelParams()
    x = rest_state(params)[None, :]
    for seed in range(100):
        rngs, twins = twin_generators(bit_generator, seed)
        out = advance_members(x, params, 1, rngs)
        assert out.tobytes() == roll_advance(x, params, 1, twins).tobytes()


@pytest.mark.parametrize("lam", [0.0, 1.0, 30.0])
def test_no_ensembles_leave_the_generators_untouched(lam):
    params = plume_params(lam)
    rngs = [np.random.default_rng([5, i]) for i in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    assert advance_ensembles([], params, 10, rngs) == []
    assert [rng.bit_generator.state for rng in rngs] == before


def test_integration_memory_does_not_grow_with_steps():
    # the plumes are drawn and evaluated a chunk of blocks at a time, so a
    # run of 20 times the steps needs no more memory (drawn all at once,
    # the bumps of 10,000 steps would be 1.6 MB)
    params = small_params(grid=Grid(20, 500.0), plume_rate=1.2e-3)
    x = rest_state(params)[None, :]

    def peak(steps):
        tracemalloc.start()
        try:
            advance_members(x, params, steps, [np.random.default_rng(3)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(500), peak(10_000)
    assert long < 1.25 * short


def test_integration_memory_is_a_few_states():
    # a 50-row integration holds two (3, 50, 302) field buffers, three
    # two-field work buffers and one chunk of bumps at a time: its peak was
    # 6.3 times the bytes of the (50, 900) members (numpy 2.4, 300 points)
    params = ModelParams()
    members = np.tile(rest_state(params), (50, 1))
    tracemalloc.start()
    try:
        advance_members(members, params, 20, fresh_rngs(50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * members.nbytes


def test_integration_memory_is_bounded_at_high_plume_rates():
    # at 10 times the default plume_rate a 50-row chunk is one block of
    # about 2,000 plumes, whose bumps are evaluated about _CHUNK_PLUMES at a
    # time: the peak was 6.7 (compiled step) and 8.9 (numpy step) times the
    # bytes of the members, against 20.9 with all the chunk's bumps at once
    params = ModelParams(plume_rate=10 * ModelParams.plume_rate)
    members = np.tile(rest_state(params), (50, 1))
    tracemalloc.start()
    try:
        advance_members(members, params, 20, fresh_rngs(50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.0 * members.nbytes


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()


# The digest of warm_state(ModelParams(warm_start_days=0.05)), keyed by the
# digest of exp over EXP_PROBE. float64 exp is the one operation of the
# model whose bits depend on the platform: numpy uses its own AVX-512 kernel
# where the CPU has one and the C library's exp elsewhere, and the two
# differ in the last bit for about 2 % of arguments.
EXP_PROBE = -np.linspace(0.0, 745.0, 100_001)
# glibc exp, as math.exp computes it
GLIBC_EXP_SHA256 = "0a63b69d12e2092211195b9ed2a645f2f1fe57ba2f99c62ee52dd093b645233f"
WARM_STATE_SHA256 = {
    # numpy 2.4 AVX-512 exp
    "8f191b961d2c9873cbfeadaaa9cd9a587f80a9d4a6492e6d2c17e165fb7ad7d6":
        "9ecea3ff9b6aa9198ef697cb369e14c5f8a270e9bd9316d859aa70c8c6a651d9",
    GLIBC_EXP_SHA256:
        "78bb081d00672df82c96b6332905b898845d7a0c7149d82239f59b690ec14da2",
}


def test_warm_state_bits_are_pinned():
    expected = WARM_STATE_SHA256.get(_sha(np.exp(EXP_PROBE)))
    if expected is None:
        pytest.skip("no warm_state digest pinned for this platform's float64 exp")
    assert _sha(warm_state(ModelParams(warm_start_days=0.05))) == expected


@pytest.mark.parametrize("seconds", [-100.0, -1.0, -86400.0, float("nan"), float("inf"),
                                     5.0 * MAX_STEPS + 5.0])
def test_steps_rejects_negative_non_finite_and_huge_spans(seconds):
    params = ModelParams()
    with pytest.raises(ValueError):
        params.steps(seconds)
    with pytest.raises(ValueError):
        spinup_ensemble(params, 4, seconds / 86400.0, np.random.default_rng(4), rest_state(params))


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


@pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(ModelParams)
                                 if f.name != "grid"])
def test_params_reject_infinities_by_key(key):
    # inf passes a sign check; each float key reports it by name
    with pytest.raises(ValueError, match=f"^{key} must be finite$"):
        small_params(**{key: math.inf})
    with pytest.raises(ValueError, match=f"^{key} must be (finite|positive|nonnegative)$"):
        small_params(**{key: -math.inf})


# --------------------------------------------------------------------- spinup


def test_spinup_zero_separation_degenerates():
    params = small_params()
    ens = spinup_ensemble(params, 4, 0.0, np.random.default_rng(14))
    assert ens.shape == (4, 3 * params.grid.n_points)
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


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_spinup_is_bitwise_the_roll_step_on_one_generator(bit_generator):
    # about 2 plumes a step and 173 steps a span: a span draws two chunks
    # of blocks and ends one step into a block, whose other steps' plumes
    # are dropped; the next span takes the generator from where it ended
    params = small_params(plume_rate=1e-3)
    base = rest_state(params)
    ([rng], [twin]) = twin_generators(bit_generator, 24)
    members = spinup_ensemble(params, 4, 0.01, rng, base)
    steps = params.steps(0.01 * 86400.0)
    vec = base[None, :]
    for member in members:
        vec = roll_advance(vec, params, steps, [twin])
        assert member.tobytes() == vec[0].tobytes()
    assert rng.random(100).tobytes() == twin.random(100).tobytes()


def test_spinup_members_distinct():
    params = small_params(plume_rate=8e-5)
    ens = spinup_ensemble(params, 3, 0.005, np.random.default_rng(16))
    assert not np.array_equal(ens[0], ens[1])
    assert not np.array_equal(ens[1], ens[2])


# --------------------------------------------------------------- observations


R_R, R_U = 0.025**2, 0.0025**2


def test_gen_observations_dry_state():
    params = small_params()
    n = params.grid.n_points
    obs = gen_observations(rest_state(params), params, R_R, R_U, np.random.default_rng(17))
    np.testing.assert_array_equal(obs.y[:n], 0.0)
    assert obs.h_rows[n:].size == 0
    assert obs.y[n:].size == 0


def test_gen_observations_branches():
    params = ModelParams(grid=Grid(4, 500.0), plume_rate=0.0)
    rc = params.rain_threshold
    r = np.array([0.0, rc + 0.09, rc + 0.0001, rc + 0.04])
    u = np.array([1.0, 2.0, 3.0, 4.0])
    x = state(np.full(4, 90.0), u, r)
    # eps: point 1 mild positive, point 2 hugely negative (truncates to 0),
    # point 3 negative enough that y_r lands below the wet threshold
    eps = np.array([0.5, 0.1, -20.0, -0.3]) / params.sigma_r
    wind_noise = np.array([2.0])
    obs = gen_observations(x, params, R_R, R_U, FixedNormals(eps, wind_noise))
    y_r, n = obs.y[:4], 4
    assert y_r[0] == 0.0  # dry stays dry regardless of noise
    np.testing.assert_allclose(y_r[1], (np.sqrt(0.09) + 0.05) ** 2, rtol=1e-12)
    assert y_r[2] == 0.0  # negative amplitude truncates
    amp3 = np.sqrt(0.04) - 0.15
    np.testing.assert_allclose(y_r[3], amp3**2, rtol=1e-12)
    assert y_r[3] < rc  # wet in truth, dry in the observation
    np.testing.assert_array_equal(obs.h_rows[n:] - n, [1])
    np.testing.assert_allclose(obs.y[n:], [2.0 + 2.0 * params.sigma_u], rtol=1e-12)


def test_gen_observations_sqrt_transform_distribution():
    # sqrt(y_r) ~ N(sqrt(r - r_c), sigma_r^2/4) when truncation is negligible
    params = small_params()
    n = params.grid.n_points
    rc = params.rain_threshold
    x = state(np.full(n, 90.0), np.zeros(n), np.full(n, rc + 0.09))
    rng = np.random.default_rng(18)
    samples = np.concatenate(
        [gen_observations(x, params, R_R, R_U, rng).y[:n] for _ in range(60)]
    )
    stat = scipy.stats.kstest(np.sqrt(samples), "norm", args=(0.3, params.sigma_r / 2))
    assert stat.pvalue > 1e-3


def test_gen_observations_independent_across_points():
    params = small_params()
    n = params.grid.n_points
    x = state(np.full(n, 90.0), np.zeros(n), np.full(n, params.rain_threshold + 0.09))
    rng = np.random.default_rng(19)
    draws = np.array([gen_observations(x, params, R_R, R_U, rng).y[:n] for _ in range(3000)])
    rho = np.corrcoef(draws[:, 10], draws[:, 11])[0, 1]
    assert abs(rho) < 0.06


def test_gen_observations_layout():
    # rain at every point observes the rain block, then wind at the wet
    # points observes the wind block; no noise, so y is the truth
    radar_n = 4
    params = ModelParams(grid=Grid(radar_n, 500.0), plume_rate=0.0, sigma_r=0.0, sigma_u=0.0)
    rc = params.rain_threshold
    y_r = np.array([0.0, 0.3, 0.0, 0.01])
    x = state(np.full(radar_n, 90.0), np.array([9.0, 1.5, 9.0, -0.5]),
              np.where(y_r > 0, rc + y_r, 0.0))
    obs = gen_observations(x, params, R_R, R_U, np.random.default_rng(0))
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
    back = params.grid.split(load_state_csv(path))
    saved = params.grid.split(vec[0])
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
