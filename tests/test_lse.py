"""Marginal-wavefunction solver with logarithmic self-coupling.

Oracles: the prescribed-coupling parameter ODE (same dynamics, independent
discretization), the free-particle closed form at zero coupling, and the
stationary Gaussian of the static negative-coupling equation, whose inverse
width alpha* = kappa m / hbar follows from balancing the kinetic curvature
against the log-potential curvature.
"""
import math

import numpy as np
import pytest

from decwt.fields import ComplexField1D
from decwt.gaussian import GaussianParams
from decwt.lse import (
    LseStepper,
    default_coupling,
    epsilon_of,
    evolve_lse,
    floored_log_density,
    init_gaussian_a,
    marginalme_residual,
)
from decwt.marginal_dynamics import GammaModel, IntegrationError, integrate_prescribed_gamma
from decwt.scenario import GridSpec1D, InvalidParameterError, NumericsSpec, Scenario


def moderate(lam=1.0):
    return Scenario(m=1.0, hbar=1.0, lam=lam, b=1.0, sigma=1.0, t0=0.0,
                    label="moderate")


def pure_params(alpha):
    return GaussianParams(alpha=alpha, beta=0.0, gamma=0.0,
                          delta=0.5 * math.log(2.0 * alpha / math.pi))


def test_norm_conserved_exactly():
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)
    a = init_gaussian_a(pure_params(s.alpha0), grid)
    stepper = LseStepper(s, grid, 1e-3)
    for _ in range(200):
        a = stepper.step(a)
        assert abs(a.norm() - 1.0) < 1e-12


def test_matches_prescribed_gamma_ode():
    # independent oracle: RK4 on the Gaussian parameter system with the
    # linear coupling gamma_l = 2 Lambda (t - t0) / hbar
    s = moderate()
    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-4, t_end=0.5, sample_every=1000)
    samples, _ = evolve_lse(init_gaussian_a(pure_params(s.alpha0), grid), s, num)
    traj = integrate_prescribed_gamma(s, s.alpha0, 0.0, GammaModel.linear_short(s),
                                      dt=1e-5, t_end=0.5, sample_every=10000)
    t_ode = np.asarray(traj.t)
    for smp in samples:
        idx = int(np.argmin(np.abs(t_ode - smp.t)))
        assert abs(t_ode[idx] - smp.t) < 1e-12
        assert abs(smp.extras["alpha_fit"] - traj.alpha[idx]) < 1e-8, f"t={smp.t}"
        assert abs(smp.extras["beta_fit"] - traj.beta[idx]) < 1e-8, f"t={smp.t}"


def test_zero_coupling_is_free_particle():
    s0 = moderate(lam=0.0)
    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-3, t_end=2.0, sample_every=2000)
    samples, _ = evolve_lse(init_gaussian_a(pure_params(s0.alpha0), grid), s0, num)
    t = samples[-1].t
    alpha_free = s0.alpha0 / (1.0 + (2.0 * s0.alpha0 * t) ** 2)
    assert abs(samples[-1].ensemble_width - 0.5 / math.sqrt(alpha_free)) < 1e-10


def test_positive_coupling_spreads_faster_than_free():
    s = moderate()
    grid = GridSpec1D(n_points=1024, extent=24.0)
    num = NumericsSpec(dt=1e-3, t_end=2.0, sample_every=2000)
    coupled, _ = evolve_lse(init_gaussian_a(pure_params(s.alpha0), grid), s, num)
    free_width = 0.5 / math.sqrt(s.alpha0 / (1.0 + (2.0 * s.alpha0 * 2.0) ** 2))
    assert coupled[-1].ensemble_width > 2.0 * free_width


def test_gausson_is_stationary():
    # static coupling -kappa admits a = exp(-alpha* tau^2), alpha* = kappa m/hbar
    s = moderate()
    kappa = 1.0
    alpha_star = kappa * s.m / s.hbar
    grid = GridSpec1D(n_points=512, extent=12.0)
    a = init_gaussian_a(pure_params(alpha_star), grid)
    num = NumericsSpec(dt=1e-3, t_end=1.0, sample_every=200)
    samples, _ = evolve_lse(a, s, num, coupling=lambda t: -kappa)
    w0 = 0.5 / math.sqrt(alpha_star)
    for smp in samples:
        assert abs(smp.ensemble_width - w0) / w0 < 0.01, f"t={smp.t}"


def test_coupling_override_drops_gamma_from_coherence():
    # with a user coupling the sample's coherence length is 1/sqrt(alpha_fit)
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=12.0)
    a = init_gaussian_a(pure_params(1.0), grid)
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=5)
    samples, _ = evolve_lse(a, s, num, coupling=lambda t: -1.0)
    smp = samples[-1]
    assert math.isclose(smp.coherence_length,
                        1.0 / math.sqrt(smp.extras["alpha_fit"]), rel_tol=1e-12)


def test_marginal_equation_residual_converges():
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)
    p0 = pure_params(s.alpha0)

    def run(stride):
        num = NumericsSpec(dt=1e-4, t_end=0.1, sample_every=stride)
        _, fields = evolve_lse(init_gaussian_a(p0, grid), s, num, keep_fields=True)
        return fields

    f100, f50 = run(100), run(50)
    r100 = marginalme_residual(f100, s)
    r50 = marginalme_residual(f50, s)
    assert r100 < 1e-4  # measured 6.2e-5
    assert 3.8 < r100 / r50 < 4.2  # second-order central difference

    # negative control: evaluating with the wrong coupling must blow the
    # residual up by orders of magnitude
    r_bad = marginalme_residual(f100, s, lam_override=2.0 * s.lam)
    assert r_bad / r100 > 500.0


def test_marginal_residual_input_validation():
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(pure_params(1.0), grid)
    with pytest.raises(InvalidParameterError):
        marginalme_residual([a, a], s)
    b = ComplexField1D(a.values.copy(), grid, t=0.1)
    c = ComplexField1D(a.values.copy(), grid, t=0.15)  # unequal spacing
    with pytest.raises(InvalidParameterError):
        marginalme_residual([a, b, c], s)
    with pytest.raises(InvalidParameterError):
        marginalme_residual([a, b, c], s, index=0)


def test_ln_floor_keeps_nodes_finite():
    s = moderate()
    grid = GridSpec1D(n_points=512, extent=16.0)
    tau = grid.points()
    vals = tau * np.exp(-0.25 * tau * tau)  # node at tau = 0
    a = ComplexField1D(vals.astype(complex), grid, t=0.0)
    a.values /= a.norm()
    out = LseStepper(s, grid, 1e-3).step(a)
    assert np.all(np.isfinite(out.values))
    ln_d = floored_log_density(a.values, 1e-15)
    assert np.all(np.isfinite(ln_d))


def test_floored_log_density_rejects_zero_field():
    grid = GridSpec1D(n_points=64, extent=8.0)
    with pytest.raises(InvalidParameterError):
        floored_log_density(np.zeros(64, dtype=complex), 1e-15)


def test_epsilon_of_known_profile():
    # |a|^2 = exp(-tau^2): eps = (2 hbar Lambda / m) t ln|a|^2 = -4 tau^2 at t = 2
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    tau = grid.points()
    a = ComplexField1D(np.exp(-0.5 * tau * tau).astype(complex), grid, t=2.0)
    eps = epsilon_of(a, s)
    assert np.allclose(eps, -4.0 * tau * tau, atol=1e-12)
    # explicit t overrides the field stamp
    eps1 = epsilon_of(a, s, t=1.0)
    assert np.allclose(eps1, -2.0 * tau * tau, atol=1e-12)


def test_default_coupling_linear_in_time():
    s = Scenario(m=2.0, hbar=1.0, lam=3.0, b=1.0, sigma=1.0, t0=0.5, label="x")
    c = default_coupling(s)
    assert c(0.5) == 0.0
    assert c(1.5) == pytest.approx(2.0 * 3.0 / 2.0)


def test_negative_span_raises():
    s = moderate()
    grid = GridSpec1D(n_points=64, extent=8.0)
    a = init_gaussian_a(pure_params(1.0), grid, t=1.0)
    with pytest.raises(IntegrationError):
        evolve_lse(a, s, NumericsSpec(dt=1e-3, t_end=0.5, sample_every=5))
