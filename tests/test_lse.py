"""Marginal-wavefunction solver with logarithmic self-coupling.

Oracles: the prescribed-coupling parameter ODE (same dynamics, independent
discretization), the free-particle closed form at zero coupling, and the
stationary Gaussian of the static negative-coupling equation, whose inverse
width alpha* = kappa follows from balancing the kinetic curvature
against the log-potential curvature.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from decwt.cli import run_lse
from decwt.fields import ComplexField1D
from decwt.lse import (
    LseStepper,
    epsilon_of,
    evolve_lse,
    floored_log_density,
    init_gaussian_a,
    marginalme_residual,
)
from decwt.marginal_dynamics import IntegrationError, integrate_prescribed_gamma, linear_short
from decwt.scenario import (
    GridSpec1D,
    InvalidParameterError,
    NumericsSpec,
    Scenario,
    preset_bundle,
)


def moderate(lam=1.0):
    return Scenario(lam=lam, b=1.0, label="moderate")


def test_norm_conserved_exactly():
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)
    a = init_gaussian_a(s.alpha0, grid)
    stepper = LseStepper(s, grid, 1e-3)
    for _ in range(200):
        a = stepper.step(a)
        assert abs(a.norm() - 1.0) < 1e-12


def test_matches_prescribed_gamma_ode():
    # independent oracle: RK4 on the Gaussian parameter system with the
    # linear coupling gamma_l = 2 Lambda t
    s = moderate()
    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-4, t_end=0.5, sample_every=1000)
    samples, _ = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num)
    traj = integrate_prescribed_gamma(s, linear_short(s),
                                      dt=1e-5, t_end=0.5, sample_every=10000)
    t_ode = np.asarray(traj.t)
    for smp in samples:
        idx = int(np.argmin(np.abs(t_ode - smp.t)))
        assert abs(t_ode[idx] - smp.t) < 1e-12
        assert abs(smp.alpha - traj.alpha[idx]) < 1e-8, f"t={smp.t}"
        assert abs(smp.beta - traj.beta[idx]) < 1e-8, f"t={smp.t}"


def test_zero_coupling_is_free_particle():
    s0 = moderate(lam=0.0)
    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-3, t_end=2.0, sample_every=2000)
    samples, _ = evolve_lse(init_gaussian_a(s0.alpha0, grid), s0, num)
    t = samples[-1].t
    alpha_free = s0.alpha0 / (1.0 + (2.0 * s0.alpha0 * t) ** 2)
    assert abs(samples[-1].ensemble_width - 0.5 / math.sqrt(alpha_free)) < 1e-10


def test_positive_coupling_spreads_faster_than_free():
    s = moderate()
    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-3, t_end=2.0, sample_every=2000)
    coupled, _ = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num)
    free_width = 0.5 / math.sqrt(s.alpha0 / (1.0 + (2.0 * s.alpha0 * 2.0) ** 2))
    assert coupled[-1].ensemble_width > 2.0 * free_width


def test_gausson_is_stationary():
    # static phase rate -kappa, i.e. gamma_l = -kappa, admits
    # a = exp(-alpha* tau^2), alpha* = kappa
    s = moderate()
    kappa = 1.0
    alpha_star = kappa
    grid = GridSpec1D(n_points=512, extent=12.0)
    a = init_gaussian_a(alpha_star, grid)
    num = NumericsSpec(dt=1e-3, t_end=1.0, sample_every=200)
    samples, _ = evolve_lse(a, s, num, gamma_l=lambda t: -kappa)
    w0 = 0.5 / math.sqrt(alpha_star)
    for smp in samples:
        assert abs(smp.ensemble_width - w0) / w0 < 0.01, f"t={smp.t}"


def test_gamma_l_override_is_reported_and_sets_coherence():
    # an overridden gamma_l is the one the samples report, the one their
    # coherence length is built from, and the one the field evolved under
    s = moderate()

    def gamma_l(t):
        return 0.5 + 3.0 * t

    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-4, t_end=0.2, sample_every=500)
    samples, _ = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num,
                            gamma_l=gamma_l)
    traj = integrate_prescribed_gamma(s, gamma_l,
                                      dt=1e-5, t_end=0.2, sample_every=5000)
    assert [smp.t for smp in samples] == pytest.approx(list(traj.t), abs=1e-12)
    for i, smp in enumerate(samples):
        assert smp.gamma == gamma_l(smp.t)
        assert smp.coherence_length == 1.0 / math.sqrt(smp.alpha + gamma_l(smp.t))
        assert abs(smp.alpha - traj.alpha[i]) < 1e-8, f"t={smp.t}"
        assert abs(smp.beta - traj.beta[i]) < 1e-8, f"t={smp.t}"
    # the default gamma_l would have evolved a different packet
    default, _ = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num)
    assert abs(default[-1].alpha - samples[-1].alpha) > 1e-3


def test_marginal_equation_residual_converges():
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)

    def run(stride):
        num = NumericsSpec(dt=1e-4, t_end=0.1, sample_every=stride)
        _, fields = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num)
        return fields

    f100, f50 = run(100), run(50)
    r100 = marginalme_residual(f100, s)
    r50 = marginalme_residual(f50, s)
    assert r100 < 1e-4  # measured 6.2e-5
    assert 3.8 < r100 / r50 < 4.2  # second-order central difference

    # negative control: evaluating with the wrong coupling must blow the
    # residual up by orders of magnitude
    r_bad = marginalme_residual(f100, replace(s, lam=2.0 * s.lam))
    assert r_bad / r100 > 500.0


def test_marginal_residual_input_validation():
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(1.0, grid)
    with pytest.raises(InvalidParameterError):
        marginalme_residual([a, a], s)
    b = ComplexField1D(a.values.copy(), grid, t=0.1)
    c = ComplexField1D(a.values.copy(), grid, t=0.15)  # unequal spacing
    with pytest.raises(InvalidParameterError):
        marginalme_residual([a, b, c], s)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_init_gaussian_a_refuses_alpha_out_of_range(alpha):
    with pytest.raises(InvalidParameterError, match="^alpha: "):
        init_gaussian_a(alpha, GridSpec1D(n_points=64, extent=8.0))


def test_ln_floor_keeps_nodes_finite():
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)
    tau = grid.points()
    vals = tau * np.exp(-0.25 * tau * tau)  # node at tau = 0
    a = ComplexField1D(vals.astype(complex), grid, t=0.0)
    a.values /= a.norm()
    out = LseStepper(s, grid, 1e-3).step(a)
    assert np.all(np.isfinite(out.values))
    ln_d = floored_log_density(a.values)
    assert np.all(np.isfinite(ln_d))


def test_floored_log_density_rejects_zero_field():
    grid = GridSpec1D(n_points=64, extent=8.0)
    with pytest.raises(InvalidParameterError):
        floored_log_density(np.zeros(64, dtype=complex))


def test_epsilon_of_known_profile():
    # |a|^2 = exp(-tau^2): eps = 2 Lambda t ln|a|^2 = -4 tau^2 at t = 2
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    tau = grid.points()
    a = ComplexField1D(np.exp(-0.5 * tau * tau).astype(complex), grid, t=2.0)
    eps = epsilon_of(a, s)
    assert np.allclose(eps, -4.0 * tau * tau, atol=1e-12)
    # the coupling is read at the field's own time stamp
    eps1 = epsilon_of(ComplexField1D(a.values, grid, t=1.0), s)
    assert np.allclose(eps1, -2.0 * tau * tau, atol=1e-12)


def test_default_phase_rate_is_hbar_over_m_times_linear_short():
    # a uniform field sees no kinetic term, only the log phase: one step
    # from t - dt/2 turns it by gamma_l(t) ln|a|^2 dt (hbar / m = 1), and the
    # default linear_short is 2 Lambda t, the tangent at t = 0
    grid = GridSpec1D(n_points=64, extent=8.0)
    dt = 1e-3
    stepper = LseStepper(Scenario(lam=3.0, b=1.0, label="x"), grid, dt)
    for t_mid, rate in [(0.0, 0.0), (1.5, 2.0 * 3.0 * 1.5)]:
        a = ComplexField1D(np.full(64, math.exp(-0.5), dtype=complex), grid,
                           t=t_mid - 0.5 * dt)  # ln|a|^2 = -1
        out = stepper.step(a)
        assert np.allclose(np.angle(out.values / a.values) / dt, rate,
                           rtol=1e-9, atol=1e-9)


def test_negative_span_raises():
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(1.0, grid)
    a.t = 1.0
    with pytest.raises(IntegrationError):
        evolve_lse(a, s, NumericsSpec(dt=1e-3, t_end=0.5, sample_every=5))


@pytest.mark.parametrize("preset", ["moderate", "strong"])
@pytest.mark.parametrize("n", [1, 2, 50])
def test_segment_matches_per_step_strang_reference(preset, n):
    # inline step-by-step Strang: phase(t + dt/4) ifft(K fft(.)) phase(t + 3dt/4)
    bundle = preset_bundle(preset)
    s, grid, dt = bundle.scenario, bundle.grid.axis_z, 1e-3
    assert grid.n_points == 512
    a = init_gaussian_a(s.alpha0, grid)
    a.t = 0.25  # a nonzero coupling from the first half-step on
    gamma_l = linear_short(s)
    k = grid.wavenumbers()
    kinetic = np.exp(-1j * 0.5 * k * k * dt)

    def phase_half(v, t_mid):
        log_density = floored_log_density(v)
        return v * np.exp(-1j * gamma_l(t_mid) * log_density * (0.5 * dt))

    ref = a.values
    for j in range(n):
        t = a.t + j * dt
        ref = phase_half(ref, t + 0.25 * dt)
        ref = np.fft.ifft(kinetic * np.fft.fft(ref))
        ref = phase_half(ref, t + 0.75 * dt)

    out = LseStepper(s, grid, dt).step(a, n)
    assert out.t == a.t + n * dt
    if n == 1:
        assert np.array_equal(out.values, ref)
    else:
        rel = np.max(np.abs(out.values - ref)) / np.max(np.abs(ref))
        assert rel < 1e-12  # measured about 2e-15 at n = 50


@pytest.mark.parametrize("preset", ["moderate", "strong"])
def test_buffered_segment_is_the_fused_expression_bit_for_bit(preset):
    # the stepper works in place in real and complex buffers; the segment
    # must equal the plain fused expression, complex phase chain included
    bundle = preset_bundle(preset)
    s, grid, dt, n = bundle.scenario, bundle.grid.axis_z, 1e-3, 50
    a = init_gaussian_a(s.alpha0, grid)
    a.t = 0.25
    g = linear_short(s)
    k = grid.wavenumbers()
    kinetic = np.exp(-1j * 0.5 * k * k * dt)

    def phase(v, rate):
        return v * np.exp(-1j * rate * floored_log_density(v) * (0.5 * dt))

    ref = phase(a.values, g(a.t + 0.25 * dt))
    for j in range(1, n + 1):
        t = a.t + (j - 1) * dt
        ref = np.fft.ifft(kinetic * np.fft.fft(ref))
        rate = g(t + 0.75 * dt)
        ref = phase(ref, rate + g(t + 1.25 * dt) if j < n else rate)
    assert np.array_equal(LseStepper(s, grid, dt).step(a, n).values, ref)


@pytest.mark.parametrize("t_nan, t_stamp", [(0.0026, 0.003), (0.0032, 0.004)])
def test_blow_up_inside_a_segment_is_stamped_at_its_step(t_nan, t_stamp):
    # NaN from 0.0026 on: step 3's closing half-step (0.00275) blows up.
    # NaN from 0.0032 on: the fused factor after step 3 holds step 4's
    # opening half-step (0.00325), so the step-by-step field turns
    # non-finite only at step 4.
    bundle = preset_bundle("moderate")
    s = bundle.scenario
    g0 = linear_short(s)

    def gamma_l(t):
        return float("nan") if t >= t_nan else g0(t)

    a = init_gaussian_a(s.alpha0, bundle.grid.axis_z)
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=5)
    with pytest.raises(IntegrationError, match="field blew up") as err:
        evolve_lse(a, s, num, gamma_l=gamma_l)
    assert err.value.t == t_stamp


@pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
def test_stepper_refuses_bad_dt(dt):
    grid = GridSpec1D(n_points=64, extent=8.0)
    with pytest.raises(ValueError):
        LseStepper(moderate(), grid, dt)


def test_step_refuses_fewer_than_one_step():
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(1.0, grid)
    stepper = LseStepper(s, grid, 1e-3)
    for n in (0, -1):
        with pytest.raises(ValueError):
            stepper.step(a, n)


@pytest.mark.parametrize("index", [3, 32])
def test_non_finite_initial_field_fails_at_start(index):
    # index 3 used to surface as a fit-window error, the peak (32) as a
    # RuntimeWarning from the Gaussian fit
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(1.0, grid)
    a.t = 0.5
    a.values[index] = np.nan
    with pytest.raises(IntegrationError, match="not finite") as err:
        evolve_lse(a, s, NumericsSpec(dt=1e-3, t_end=0.51, sample_every=5))
    assert err.value.t == 0.5


def test_one_stepper_call_per_sample_interval(monkeypatch):
    # each sample interval is one segment; per-step calling would be 23 calls
    calls = []
    step = LseStepper.step

    def counting(self, a, n=1):
        calls.append(n)
        return step(self, a, n)

    monkeypatch.setattr(LseStepper, "step", counting)
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)
    num = NumericsSpec(dt=1e-3, t_end=0.023, sample_every=5)
    samples, _ = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num)
    assert [smp.t for smp in samples] == [0.0, 0.005, 0.01, 0.015, 0.02, 0.023]
    assert calls == [5, 5, 5, 5, 3]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the strong preset's lse route reuses the spread-sized z "
    "axis, which the linear-short chirp outruns; mended by the lens frame"))
def test_strong_preset_lse_route_tracks_its_prescribed_ode():
    # the route as `run --preset strong --routes lse` runs it, against RK4 on
    # the same gamma_l, within the AC3 bound over the whole run
    bundle = preset_bundle("strong")
    s, num = bundle.scenario, bundle.numerics
    samples = run_lse(bundle)
    ref = integrate_prescribed_gamma(s, linear_short(s), dt=num.dt,
                                     t_end=num.t_end, sample_every=num.sample_every)
    assert samples[-1].t == pytest.approx(2.0)
    assert [smp.t for smp in samples] == pytest.approx(list(ref.t), abs=1e-12)
    for i, smp in enumerate(samples[1:], start=1):  # beta(0) = 0
        assert abs(smp.alpha / ref.alpha[i] - 1.0) <= 1e-4, f"t={smp.t}"
        assert abs(smp.beta / ref.beta[i] - 1.0) <= 1e-4, f"t={smp.t}"


def residual_series(n=64):
    s = moderate()
    grid = GridSpec1D(n_points=n, extent=8.0)
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=5)
    _, fields = evolve_lse(init_gaussian_a(s.alpha0, grid), s, num)
    return fields, s


@pytest.mark.parametrize("n", [16, 64, 512])
def test_residual_equals_the_explicit_outer_product_formula(n):
    # the n x n products of the equation of motion, formed entry by entry
    fields, s = residual_series(n)
    am, ac, ap = fields[1], fields[2], fields[3]
    k = ac.grid.wavenumbers()
    a2 = np.fft.ifft(-(k * k) * np.fft.fft(ac.values))
    eps = epsilon_of(ac, s)

    def outer(x, y):
        return x[:, None] * np.conj(y)[None, :]

    rho = outer(ac.values, ac.values)
    rho_dot = (outer(ap.values, ap.values) - outer(am.values, am.values)) / (ap.t - am.t)
    kin = 0.5j * (outer(a2, ac.values) - outer(ac.values, a2))
    pot = -1j * (eps[:, None] - eps[None, :]) * rho
    want = np.max(np.abs(rho_dot - kin - pot)) / np.max(np.abs(rho))
    assert want > 0.0
    assert marginalme_residual(fields, s) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_step_leaves_its_input_and_returns_a_field_it_owns(n):
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(s.alpha0, grid)
    before = a.values.copy()
    out = LseStepper(s, grid, 1e-3).step(a, n)
    assert np.array_equal(a.values, before) and a.t == 0.0
    assert not np.shares_memory(out.values, a.values)
    again = LseStepper(s, grid, 1e-3).step(a, n)
    assert np.array_equal(again.values, out.values)
    assert not np.shares_memory(again.values, out.values)


def test_evolve_lse_returns_distinct_fields():
    # marginalme_residual reads three neighbouring fields of one run
    fields, _ = residual_series()
    assert len(fields) == 5
    for i, f in enumerate(fields):
        for g in fields[i + 1:]:
            assert not np.shares_memory(f.values, g.values)
    assert len({f.t for f in fields}) == 5


def test_start_off_the_dt_grid_is_refused():
    # stamps count steps from t = 0: a start between two steps would put
    # every sample off the sample grid and past t_end
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(s.alpha0, grid)
    num = NumericsSpec(dt=2e-3, t_end=0.05, sample_every=5)
    a.t = 0.035
    with pytest.raises(ValueError, match="not on the dt"):
        evolve_lse(a, s, num)
    a.t = math.nextafter(18 * num.dt, 1.0)  # an ulp off, as sums round
    samples, _ = evolve_lse(a, s, num)
    assert [smp.t for smp in samples] == [a.t, 20 * num.dt, 25 * num.dt]


def test_start_before_t0_is_refused():
    # the clock counts steps from t = 0, so a start before it has no step
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(s.alpha0, grid)
    a.t = -0.02
    with pytest.raises(ValueError, match="^field time -0.02 is before t = 0$"):
        evolve_lse(a, s, NumericsSpec(dt=1e-3, t_end=0.05, sample_every=5))
