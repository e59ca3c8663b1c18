"""Split-step master-equation solver.

Both Strang factors are exact, so trace conservation and hermiticity are
structural: the only discretization error is operator non-commutativity.
Agreement with the closed-form Gaussian flow is the substantive check.
"""
import math

import numpy as np
import pytest

from decwt.fields import ComplexField2D, load_field_2d, save_field_2d
from decwt.gaussian import GaussianParams, build_cubic, params_exact
from decwt.marginal_dynamics import IntegrationError
from decwt.master_eq import (
    GridSizeError,
    MasterEqStepper,
    boundary_leak,
    evolve_master_eq,
    init_gaussian_rho,
    suggest_extents,
)
from decwt.observables import hermiticity_defect, purity, trace_of
from decwt.scenario import GridSpec2D, NumericsSpec, Scenario


def moderate():
    return Scenario(m=1.0, hbar=1.0, lam=1.0, b=1.0, sigma=1.0, t0=0.0,
                    label="moderate")


def strong():
    return Scenario(m=1.0, hbar=1.0, lam=10.0, b=1.0, sigma=1.0, t0=0.0,
                    label="strong")


def pure_params(alpha):
    return GaussianParams(alpha=alpha, beta=0.0, gamma=0.0,
                          delta=0.5 * math.log(2.0 * alpha / math.pi))


def initial_state(s, n=256, t_end=0.25, n_z=None):
    p0 = pure_params(s.alpha0)
    ey, ez = suggest_extents(s, s.alpha0, 0.0, t_end)
    grid = GridSpec2D(n_y=n, n_z=n_z or n, extent_y=ey, extent_z=ez)
    return init_gaussian_rho(p0, grid), grid


def test_trace_conserved_every_step():
    s = moderate()
    f, _ = initial_state(s, n=128)
    stepper = MasterEqStepper(s, f.grid, 1e-3)
    tr0 = trace_of(f).real
    for _ in range(50):
        f = stepper.step(f)
        assert abs(trace_of(f).real - tr0) < 1e-13


def test_purity_monotone_nonincreasing():
    s = moderate()
    f, _ = initial_state(s, n=128)
    stepper = MasterEqStepper(s, f.grid, 1e-3)
    prev = purity(f)
    for _ in range(100):
        f = stepper.step(f)
        cur = purity(f)
        assert cur <= prev + 1e-12
        prev = cur
    assert prev < 0.95  # decoherence actually happened


def test_hermiticity_preserved():
    s = moderate()
    f, _ = initial_state(s, n=128)
    stepper = MasterEqStepper(s, f.grid, 1e-3)
    for _ in range(100):
        f = stepper.step(f)
    # round-off only: ~1.6e-13 per step through the FFT pair
    assert hermiticity_defect(f) < 1e-9


def test_matches_closed_form():
    s = moderate()
    f, grid = initial_state(s, n=256, t_end=0.25)
    num = NumericsSpec(dt=1e-3, t_end=0.25, sample_every=50)
    samples, final = evolve_master_eq(f, s, num)

    g = build_cubic(s, s.alpha0, 0.0)
    for smp in samples:
        p = params_exact(g, s, smp.t)
        l_exact = 1.0 / math.sqrt(p.alpha + p.gamma)
        w_exact = 0.5 / math.sqrt(p.alpha)
        assert abs(smp.coherence_length - l_exact) < 1e-7, f"t={smp.t}"
        assert abs(smp.ensemble_width - w_exact) < 1e-7, f"t={smp.t}"
        assert abs(smp.norm - 1.0) < 1e-12
    assert final.t == pytest.approx(0.25)


def test_init_rejects_undersized_grid():
    s = moderate()
    p0 = pure_params(s.alpha0)
    # sigma_z = 1/sqrt(alpha0) = sqrt(2) b: extent below 6 sigma must refuse
    grid = GridSpec2D(n_y=64, n_z=64, extent_y=12.0, extent_z=5.0)
    with pytest.raises(GridSizeError):
        init_gaussian_rho(p0, grid)


def test_boundary_leak_flags_aliasing():
    s = moderate()
    p0 = pure_params(s.alpha0)
    # a 6-sigma box never leaks at t = 0, so bypass the init guard:
    # 4.5 sigma puts the edge amplitude at exp(-4.5^2/2) ~ 4e-5 > 1e-6
    from decwt.gaussian import density_matrix_exact
    sig = 1.0 / math.sqrt(s.alpha0)
    grid = GridSpec2D(n_y=64, n_z=64, extent_y=4.5 * sig, extent_z=4.5 * sig)
    f = density_matrix_exact(p0, grid)
    assert boundary_leak(f.values) > 1e-6
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=5)
    samples, _ = evolve_master_eq(f, s, num)
    assert "aliasing" in samples[-1].flags


def test_no_aliasing_on_recommended_box():
    s = moderate()
    f, _ = initial_state(s, n=256, t_end=0.25)
    num = NumericsSpec(dt=1e-3, t_end=0.25, sample_every=50)
    samples, _ = evolve_master_eq(f, s, num)
    assert all("aliasing" not in smp.flags for smp in samples)


def test_suggest_extents_tracks_spread():
    s = moderate()
    ey, ez = suggest_extents(s, s.alpha0, 0.0, 2.0)
    g = build_cubic(s, s.alpha0, 0.0)
    from decwt.gaussian import eval_G
    assert ey == pytest.approx(6.0 / math.sqrt(s.alpha0))
    assert ez == pytest.approx(6.0 * math.sqrt(float(eval_G(g, 2.0))))
    ey1, ez1 = suggest_extents(s, s.alpha0, 0.0, 0.1)
    assert ez1 < ez  # shorter run needs less room
    assert ey1 == pytest.approx(ey)


def test_checkpoint_sink_cadence():
    s = moderate()
    f, _ = initial_state(s, n=128)
    seen = []
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=5)
    evolve_master_eq(f, s, num, checkpoint_every=7, checkpoint_sink=seen.append)
    assert [round(c.t / 1e-3) for c in seen] == [7, 14]


def test_observers_see_every_sample_field_in_order():
    s = moderate()
    f, _ = initial_state(s, n=128)
    num = NumericsSpec(dt=1e-3, t_end=0.012, sample_every=5)
    seen = []
    samples, _ = evolve_master_eq(
        f, s, num, observers=[lambda fld: seen.append((fld.t, trace_of(fld).real))]
    )
    assert [t for t, _ in seen] == [smp.t for smp in samples] == [0.0, 0.005, 0.01, 0.012]
    assert [tr for _, tr in seen] == [smp.norm for smp in samples]


def test_negative_span_raises():
    s = moderate()
    f, _ = initial_state(s, n=128)
    f.t = 1.0
    num = NumericsSpec(dt=1e-3, t_end=0.5, sample_every=5)
    with pytest.raises(IntegrationError):
        evolve_master_eq(f, s, num)


def test_stepper_rejects_bad_dt():
    s = moderate()
    _, grid = initial_state(s, n=64)
    with pytest.raises(ValueError):
        MasterEqStepper(s, grid, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_stepper_rejects_non_finite_dt(dt):
    s = moderate()
    _, grid = initial_state(s, n=64)
    with pytest.raises(ValueError):
        MasterEqStepper(s, grid, dt)


def test_negative_checkpoint_cadence_refused():
    # a negative cadence would checkpoint on multiples of its magnitude
    s = moderate()
    f, _ = initial_state(s, n=64)
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=5)
    with pytest.raises(ValueError):
        evolve_master_eq(f, s, num, checkpoint_every=-3, checkpoint_sink=[].append)


def test_suggested_box_passes_init_guard_off_preset_b():
    # 6/sqrt(alpha0) once rounded one ulp below the guard's 6*(1/sqrt(alpha0))
    for b in [0.98012] + list(np.linspace(0.98, 1.02, 401)):
        s = Scenario(lam=1.0, b=float(b), label="probe")
        p0 = pure_params(s.alpha0)
        for t_end in (0.0, 0.25):
            ey, ez = suggest_extents(s, s.alpha0, 0.0, t_end)
            grid = GridSpec2D(n_y=16, n_z=16, extent_y=ey, extent_z=ez)
            init_gaussian_rho(p0, grid)  # raises GridSizeError if undersized


def _row(smp):
    return (smp.coherence_length, smp.ensemble_width, smp.purity, smp.norm)


def test_resume_bit_identical_at_unaligned_checkpoint_cadence(tmp_path):
    s = moderate()
    f, _ = initial_state(s, n=128)
    num = NumericsSpec(dt=1e-3, t_end=0.06, sample_every=5)

    def sink(fld):
        save_field_2d(tmp_path / f"{round(fld.t / num.dt)}.ckpt", fld)

    def rows(samples):
        return {round(smp.t / num.dt): _row(smp) for smp in samples}

    full, _ = evolve_master_eq(f, s, num, checkpoint_every=7, checkpoint_sink=sink)
    resumed, _ = evolve_master_eq(load_field_2d(tmp_path / "35.ckpt"), s, num)
    got = rows(resumed)
    assert sorted(got) == [35, 40, 45, 50, 55, 60]
    assert got == {k: r for k, r in rows(full).items() if k >= 35}


# the interior evolves the k_z >= 0 half; non-square grids check the mirror
@pytest.mark.parametrize("n_y, n_z, n", [
    *(pytest.param(256, 256, n, id=f"{n}") for n in (1, 2, 50)),
    *(pytest.param(n_y, n_z, n, id=f"{n_y}x{n_z}-{n}")
      for n_y, n_z in ((32, 64), (64, 32)) for n in (1, 2, 7)),
])
@pytest.mark.parametrize("scenario", [moderate, strong])
def test_segment_matches_per_step_strang_reference(scenario, n_y, n_z, n):
    s = scenario()
    f, grid = initial_state(s, n=n_y, n_z=n_z)
    dt = 1e-3
    y = grid.axis_y.points()[:, None]
    h = np.exp(-(s.lam / s.hbar) * y * y * (0.5 * dt))
    ky = grid.axis_y.wavenumbers()[:, None]
    kz = grid.axis_z.wavenumbers()[None, :]
    kin = np.exp(-1j * (2.0 * s.hbar / s.m) * ky * kz * dt)
    ref, v = {}, f.values
    for k in range(1, n + 1):
        # spectrum first, as the stepper's v *= kin: numpy's complex product
        # is not bitwise commutative, and n = 1 is compared bit for bit
        v = h * np.fft.ifft2(np.fft.fft2(h * v) * kin)
        ref[k] = v
    mid = min(20, n // 2)  # an interior step, left as a copy; none when n = 1
    left = {}
    out = MasterEqStepper(s, grid, dt).step(
        f, n, leave=lambda j, c: left.setdefault(j, c), leave_at=(mid,))
    if n == 1:  # the plain 2-D Strang step: runs sampled every step keep bytes
        assert np.array_equal(out.values, ref[1]) and not left
    else:
        for got, want in ((out.values, ref[n]), (left[mid].values, ref[mid])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert left[mid].t == pytest.approx(mid * dt)
    assert out.values.flags["C_CONTIGUOUS"]
    assert out.t == pytest.approx(n * dt)


@pytest.mark.parametrize("sample_every, checkpoint_every", [(1, 0), (5, 0), (5, 3)])
def test_nan_in_field_stops_run(sample_every, checkpoint_every):
    s = moderate()
    f, _ = initial_state(s, n=64)
    f.values[20, 40] = np.nan
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=sample_every)
    saved = []
    with pytest.raises(IntegrationError) as err:
        evolve_master_eq(f, s, num, checkpoint_every=checkpoint_every,
                         checkpoint_sink=saved.append)
    assert saved == []  # the step-3 checkpoint inside the segment is refused
    assert err.value.t == pytest.approx((checkpoint_every or sample_every) * num.dt)
