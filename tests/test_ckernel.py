"""The compiled model step (enkpf/_step.c) against the numpy step and the
np.roll oracle, bit for bit, and the loader's fallbacks to the numpy step."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enkpf import ckernel, sweq
from enkpf.errors import CflViolation, NumericalBlowup
from enkpf.grid import Grid
from enkpf.sweq import ModelParams, advance_members, rest_state
from oracles import roll_advance

@pytest.fixture(scope="module")
def kernel():
    """The compiled step, whatever ENKPF_STEP says and before the self-check,
    so that a step that disagrees fails these tests; skips where none builds."""
    step = ckernel.load()
    if step is None:
        pytest.skip("no C compiler builds _step.c here")
    return step


def run(members, params, steps, seed, kernel):
    """advance_members with the given step (None: numpy), as its output's
    bytes or the failure's class and message."""
    rngs = [np.random.default_rng([seed, i]) for i in range(len(members))]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweq, "_kernel", lambda: kernel)
        try:
            return advance_members(members, params, steps, rngs).tobytes()
        except (CflViolation, NumericalBlowup) as exc:
            return type(exc), str(exc)


def random_members(params, rows, kind, rng):
    """(rows, 3n) states: dry (calm, no rain, some r of -0.0), wet (clouds,
    rain and convergence everywhere), near the CFL bound (one wind of about
    dx / dt - sqrt(g h)), or wet with a NaN in one field or a rain of 1e308,
    which overflows to infinities."""
    n = params.grid.n_points
    members = np.empty((rows, params.grid.dim))
    h, u, r = params.grid.split(members).values()
    if kind == "dry":
        h[...] = params.h_rest + rng.normal(0.0, 0.005, (rows, n))
        u[...] = rng.normal(0.0, 0.01, (rows, n))
        r[...] = np.where(rng.random((rows, n)) < 0.5, -0.0, 0.0)
        return members
    h[...] = params.h_rest + rng.normal(0.0, 0.2, (rows, n))
    u[...] = rng.normal(0.0, 1.0, (rows, n))
    r[...] = np.where(rng.random((rows, n)) < 0.2, -0.0, rng.exponential(0.02, (rows, n)))
    row, col = rng.integers(rows), rng.integers(n)
    if kind == "cfl":
        limit = params.grid.spacing_m / params.dt_s - np.sqrt(params.gravity * h[row, col])
        u[row, col] = rng.choice([-1.0, 1.0]) * (limit + rng.uniform(-0.5, 0.5))
    elif kind == "nan":
        (h, u, r)[rng.integers(3)][row, col] = np.nan
    elif kind == "huge":
        r[row, col] = 1e308
    return members


KINDS = ["dry", "wet", "cfl", "nan", "huge"]


@settings(max_examples=80, deadline=None)
@given(n_points=st.integers(1, 40), rows=st.integers(1, 60),
       kind=st.sampled_from(KINDS), rate=st.just(0.0) | st.floats(0.0, 1.0),
       steps=st.integers(1, 4),
       rain_geopotential=st.sampled_from([0.0, 300.0]), seed=st.integers(0, 2**32 - 1))
def test_the_c_step_is_bitwise_the_numpy_step_and_the_roll_step(kernel, n_points, rows, kind,
                                                                rate, steps, rain_geopotential,
                                                                seed):
    # plume_rate from none to the cap of n_points plumes per step; the
    # errors, where a state breaks the CFL bound or holds a NaN, must match
    # in class and message. Without rain in the geopotential a rain of
    # 1e308 overflows in r alone
    spacing, dt = 500.0, 5.0
    params = ModelParams(grid=Grid(n_points, spacing), dt_s=dt,
                         plume_rate=rate * 60.0 / (spacing * dt),
                         rain_geopotential=rain_geopotential)
    members = random_members(params, rows, kind, np.random.default_rng(seed))
    c, numpy = run(members, params, steps, seed, kernel), run(members, params, steps, seed, None)
    assert c == numpy
    if kind == "nan":
        assert c[0] is NumericalBlowup
    if isinstance(c, bytes):
        rngs = [np.random.default_rng([seed, i]) for i in range(rows)]
        with np.errstate(over="ignore", invalid="ignore"):
            assert c == roll_advance(members, params, steps, rngs).tobytes()


@settings(max_examples=60, deadline=None)
@given(n_points=st.integers(1, 40), rows=st.integers(1, 10), kind=st.sampled_from(KINDS),
       n_bumps=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_a_step_writes_the_numpy_steps_values_even_where_it_fails(kernel, n_points, rows,
                                                                  kind, n_bumps, seed):
    # one step of each, called as advance_ensembles calls it: the buffer
    # written, non-finite values included (a NaN in r stays NaN through the
    # clamp, as np.maximum keeps it), the non-finite flag and, where every
    # value is finite, the stats, which are the written buffer's extremes.
    # NaNs are compared as NaNs, since their sign bits need not agree. The
    # steps make no CFL check, so a state beyond the bound steps too
    rng = np.random.default_rng(seed)
    params = ModelParams(grid=Grid(n_points, 500.0))
    members = random_members(params, rows, kind, rng)
    bump_rows = rng.integers(0, rows, n_bumps).astype(np.intp)
    bumps = rng.normal(0.0, 0.01, (n_bumps, n_points))
    plumes = (bump_rows, bumps, bump_rows.ctypes.data, bumps.ctypes.data)
    out = []
    for step, views in (sweq._bind_c_step(params, rows, n_points, kernel),
                        sweq._bind_numpy_step(params, rows, n_points)):
        # src is kept: the compiled step's view, an address, does not keep
        # its buffer alive
        src, (buf, dst, stats) = (sweq._fields(params, rows, views, members),
                                  sweq._fields(params, rows, views))
        buf[...] = 0.0
        with np.errstate(all="ignore"):
            flag = bool(step(src[1], dst, plumes, stats))
        assert flag == (not np.isfinite(buf[..., 1:-1]).all())
        if not flag:
            assert list(stats) == [buf[1].max(), buf[1].min(), buf[0].max()]
        out.append((np.where(np.isnan(buf), np.nan, buf).tobytes(), flag,
                    None if flag else list(stats)))
    assert out[0] == out[1]


@pytest.mark.parametrize("speed", [50.0, -50.0])
def test_a_wind_that_breaks_the_cfl_bound_after_some_steps_fails_alike(kernel, speed):
    # the kernel's extremes of u and h make every later step's bound: a jet
    # that first breaks it at step 18 must fail there with either step
    params = ModelParams(grid=Grid(50, 500.0), plume_rate=1e-3)
    members = np.tile(rest_state(params), (5, 1))
    params.grid.split(members)["u"][2, 20:30] = speed
    c, numpy = run(members, params, 30, 1, kernel), run(members, params, 30, 1, None)
    assert c == numpy and c[0] is CflViolation
    assert isinstance(run(members, params, 17, 1, kernel), bytes)


def test_a_rain_of_minus_zero_is_clamped_to_plus_zero(kernel):
    # with a subnormal dt the rain tendency -u dr/dx underflows: r = -0.0
    # plus dt times a negative tendency is -0.0 before the clamp, which
    # makes it +0.0, as np.maximum(-0.0, 0.0) does
    params = ModelParams(grid=Grid(5, 500.0), dt_s=5e-324, plume_rate=0.0)
    x = rest_state(params)
    h, u, r = params.grid.split(x).values()
    u[:], r[:] = 1000.0, [0.0, -0.0, 1e-3, 0.0, 0.0]
    # the tendency at point 1 is about -u dr/dx = -1e-3
    assert np.signbit(r[1] + -1e-3 * params.dt_s)
    out = run(x[None, :], params, 1, 0, kernel)
    assert out == run(x[None, :], params, 1, 0, None)
    assert out == roll_advance(x[None, :], params, 1, []).tobytes()
    assert not np.signbit(params.grid.split(np.frombuffer(out))["r"]).any()


# ------------------------------------------------------------------ the loader


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """The step chosen anew, with an empty cache, and again after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.delenv("ENKPF_STEP", raising=False)
    sweq._kernel.cache_clear()
    yield tmp_path
    sweq._kernel.cache_clear()


def bits():
    """A few 3-row steps with plumes from a wet state, as bytes."""
    params = ModelParams(grid=Grid(30, 500.0), plume_rate=2e-3)
    members = random_members(params, 3, "wet", np.random.default_rng(5))
    rngs = [np.random.default_rng([5, i]) for i in range(3)]
    return advance_members(members, params, 12, rngs).tobytes()


@pytest.fixture(scope="module")
def expected_bits():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweq, "_kernel", lambda: None)
        return bits()


def test_the_kernel_compiles_into_the_cache_and_loads_from_it(kernel, fresh_loader,
                                                              expected_bits):
    assert sweq.STEP == "c" and bits() == expected_bits
    (library,) = (fresh_loader / "cache" / "enkpf").iterdir()
    assert library.name.startswith("step-") and library.suffix == ".so"
    sweq._kernel.cache_clear()
    stamp = library.stat().st_mtime_ns
    assert sweq.STEP == "c" and library.stat().st_mtime_ns == stamp


@pytest.mark.parametrize("fault", ["no compiler", "failed compile", "timed-out compile",
                                   "no loadable library", "ENKPF_STEP=numpy", "other bits"])
def test_each_fallback_runs_the_numpy_step(fresh_loader, monkeypatch, expected_bits, fault):
    if fault == "no compiler":
        monkeypatch.setattr(ckernel, "compiler", lambda: [])
    elif fault == "failed compile":
        monkeypatch.setattr(ckernel, "compiler", lambda: [sys.executable, "-c", "exit(1)"])
    elif fault == "timed-out compile":
        monkeypatch.setattr(ckernel, "COMPILE_TIMEOUT_S", 0.2)
        monkeypatch.setattr(ckernel, "compiler",
                            lambda: [sys.executable, "-c", "import time; time.sleep(30)"])
    elif fault == "no loadable library":
        # as where the cache and /tmp are both mounted noexec: the library
        # builds in each but maps in neither
        def refuse(path, *args, **kwargs):
            raise OSError(f"{path}: failed to map segment from shared object")

        monkeypatch.setattr(ckernel.ctypes, "CDLL", refuse)
    elif fault == "ENKPF_STEP=numpy":
        monkeypatch.setenv("ENKPF_STEP", "numpy")
    else:
        monkeypatch.setattr(sweq, "_agrees", lambda kernel: False)
    assert sweq.STEP == "numpy" and bits() == expected_bits
    if fault not in ("no loadable library", "other bits"):
        # nothing was built, and a failed build leaves nothing behind
        assert not list((fresh_loader / "cache" / "enkpf").glob("*"))


def test_the_self_check_rejects_a_kernel_one_ulp_off(kernel):
    # the same kernel with its dt one ulp larger
    def off(constants, *args):
        shifted = type(constants)(*constants)
        shifted[0] = np.nextafter(constants[0], np.inf)
        return kernel(shifted, *args)

    assert sweq._agrees(kernel) and not sweq._agrees(off)


def test_an_unwritable_cache_compiles_in_a_private_directory(kernel, fresh_loader,
                                                             monkeypatch, expected_bits):
    # the cache directory cannot be made under a regular file, even by root
    (fresh_loader / "file").write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(fresh_loader / "file" / "cache"))
    assert sweq.STEP == "c" and bits() == expected_bits
