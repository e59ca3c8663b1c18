"""Closed-form Gaussian solution: cubic width polynomial, parameter flow,
coherence length, ensemble width, and the sampled density matrix.

Oracle values below were derived by hand from the parameter ODEs
(natural units m = hbar = b = 1, Lambda = 1, alpha0 = 1/4, beta0 = 0):

    c = (4, 0, 1, 8/3)
    G(1) = 23/3          intG(1) = 5          Gdot(1) = 10
    gamma(1) = 2*5/(23/3) = 30/23
    alpha(1) = 3/23      beta(1) = -(1/4)*10/(23/3) = -15/46
    l(1) = sqrt((23/3)/(1 + 2*5)) = sqrt(23/33)
    width(1) = sqrt(23/3)/2
"""
import math

import numpy as np
import pytest

from decwt.gaussian import (
    CubicG,
    GaussianParams,
    build_cubic,
    coherence_exact,
    density_matrix_exact,
    ensemble_width_exact,
    eval_G,
    eval_G_dot,
    eval_int_G,
    gamma_exact,
    params_exact,
    sigma_profile,
)
from decwt.scenario import GridSpec2D, Scenario


def moderate():
    return Scenario(m=1.0, hbar=1.0, lam=1.0, b=1.0, sigma=1.0, t0=0.0,
                    label="moderate")


def test_cubic_coefficients_standard_ic():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    assert g.c0 == 4.0
    assert g.c1 == 0.0
    assert g.c2 == 1.0
    assert math.isclose(g.c3, 8.0 / 3.0, rel_tol=1e-15)


def test_cubic_coefficients_boosted_ic():
    # beta0 = 1/4: c1 = -4*hbar*beta0/(m*alpha0) = -4, c2 = 4*(a0 + b0^2/a0) = 2
    s = moderate()
    g = build_cubic(s, 0.25, 0.25)
    assert g.c1 == -4.0
    assert g.c2 == 2.0


def test_cubic_third_derivative_value():
    # G''' = 16 hbar Lambda / m^2, probed with a third central difference
    s = Scenario(m=2.0, hbar=1.5, lam=3.0, b=1.0, sigma=1.0, t0=0.0, label="x")
    g = build_cubic(s, s.alpha0, 0.1)
    h = 0.1
    t = 0.7
    d3 = (eval_G(g, t + 1.5 * h) - 3 * eval_G(g, t + 0.5 * h)
          + 3 * eval_G(g, t - 0.5 * h) - eval_G(g, t - 1.5 * h)) / h ** 3
    assert math.isclose(d3, 16.0 * s.hbar * s.lam / s.m ** 2, rel_tol=1e-9)


def test_G_values_and_derivatives():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    assert math.isclose(eval_G(g, 1.0), 23.0 / 3.0, rel_tol=1e-15)
    assert math.isclose(eval_G_dot(g, 1.0), 10.0, rel_tol=1e-15)
    assert math.isclose(eval_int_G(g, 1.0), 5.0, rel_tol=1e-15)
    assert eval_G(g, 0.0) == 4.0
    assert eval_int_G(g, 0.0) == 0.0


def test_gamma_exact_value():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    assert math.isclose(gamma_exact(g, s, 1.0), 30.0 / 23.0, rel_tol=1e-14)
    assert gamma_exact(g, s, 0.0) == 0.0


def test_params_exact_frozen_point():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    p = params_exact(g, s, 1.0)
    assert math.isclose(p.alpha, 3.0 / 23.0, rel_tol=1e-14)
    assert math.isclose(p.beta, -15.0 / 46.0, rel_tol=1e-14)
    assert math.isclose(p.gamma, 30.0 / 23.0, rel_tol=1e-14)
    # delta stays slaved to alpha so the reconstructed state stays normalized
    assert math.isclose(p.delta, 0.5 * math.log(2.0 * p.alpha / math.pi),
                        rel_tol=1e-14)


def test_alpha_times_G_is_one_along_flow():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    for t in np.linspace(0.0, 5.0, 21):
        p = params_exact(g, s, float(t))
        assert abs(p.alpha * eval_G(g, float(t)) - 1.0) < 1e-13


def test_coherence_exact_values():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    # t=0: no decoherence yet, l = 1/sqrt(alpha0) = 2b
    assert math.isclose(coherence_exact(g, s, 0.0), 2.0, rel_tol=1e-14)
    assert math.isclose(coherence_exact(g, s, 1.0), math.sqrt(23.0 / 33.0),
                        rel_tol=1e-14)
    # two equivalent routes: G-quotient form vs 1/sqrt(alpha+gamma)
    for t in (0.3, 1.0, 2.7):
        p = params_exact(g, s, t)
        assert math.isclose(coherence_exact(g, s, t),
                            1.0 / math.sqrt(p.alpha + p.gamma), rel_tol=1e-12)


def test_ensemble_width_values():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    assert math.isclose(ensemble_width_exact(g, 0.0), 1.0, rel_tol=1e-15)
    assert math.isclose(ensemble_width_exact(g, 1.0), math.sqrt(23.0 / 3.0) / 2.0,
                        rel_tol=1e-15)


def test_free_particle_limit():
    # Lambda = 0: no cubic term, gamma stays 0, pure wave-packet spreading
    s = Scenario(m=1.0, hbar=1.0, lam=0.0, b=1.0, sigma=1.0, t0=0.0, label="free")
    g = build_cubic(s, s.alpha0, 0.0)
    assert g.c3 == 0.0
    assert gamma_exact(g, s, 2.0) == 0.0
    p = params_exact(g, s, 2.0)
    assert math.isclose(p.alpha, 1.0 / 8.0, rel_tol=1e-14)  # G(2) = 4 + 4


def test_sigma_profile():
    p = GaussianParams(alpha=0.25, beta=0.0, gamma=1.0, delta=0.0)
    off_diag, diag = sigma_profile(p)
    assert math.isclose(off_diag, 1.0 / math.sqrt(1.25), rel_tol=1e-15)
    assert math.isclose(diag, 2.0, rel_tol=1e-15)


# --- sampled density matrix ---------------------------------------------


def grid_for(p: GaussianParams, n=256, factor=8.0) -> GridSpec2D:
    sig_y = 1.0 / math.sqrt(p.alpha + p.gamma)
    sig_z = 1.0 / math.sqrt(p.alpha)
    return GridSpec2D(n_y=n, n_z=n, extent_y=factor * sig_y,
                      extent_z=factor * sig_z)


def pure_params() -> GaussianParams:
    return GaussianParams(alpha=0.25, beta=0.0, gamma=0.0,
                          delta=0.5 * math.log(0.5 / math.pi))


def test_density_matrix_trace_is_one_on_adequate_grid():
    from decwt.observables import trace_of
    p = pure_params()
    f = density_matrix_exact(p, grid_for(p), t=0.0)
    assert abs(trace_of(f) - 1.0) < 1e-10
    assert f.flags == ()


def test_density_matrix_pure_state_purity():
    from decwt.observables import purity
    p = pure_params()
    f = density_matrix_exact(p, grid_for(p), t=0.0)
    assert abs(purity(f) - 1.0) < 1e-10


def test_density_matrix_off_diagonal_width():
    # |rho(y, z=0)| / rho(0, 0) = exp(-(alpha+gamma) y^2 / 2); the 1/e
    # half-width is sqrt(2/(alpha+gamma))
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    p = params_exact(g, s, 1.0)
    grid = grid_for(p)
    f = density_matrix_exact(p, grid, t=1.0)
    ys = grid.axis_y.points()
    iz0 = grid.n_z // 2
    iy0 = grid.n_y // 2
    curv = p.alpha + p.gamma
    y_star = math.sqrt(2.0 / curv)
    assert curv * y_star ** 2 / 2.0 == 1.0
    i = int(np.argmin(np.abs(ys - y_star)))
    ratio = abs(f.values[i, iz0]) / abs(f.values[iy0, iz0])
    assert math.isclose(ratio, math.exp(-curv * ys[i] ** 2 / 2.0), rel_tol=1e-12)


def test_density_matrix_gamma_doubling_halves_y_variance():
    from decwt.observables import coherence_from_rho
    base = GaussianParams(alpha=1e-9, beta=0.0, gamma=1.0,
                          delta=0.5 * math.log(2e-9 / math.pi))
    dbl = GaussianParams(alpha=1e-9, beta=0.0, gamma=2.0, delta=base.delta)
    grid = GridSpec2D(n_y=256, n_z=256, extent_y=12.0, extent_z=300000.0)
    l1 = coherence_from_rho(density_matrix_exact(base, grid, 0.0))
    l2 = coherence_from_rho(density_matrix_exact(dbl, grid, 0.0))
    assert l2 < l1  # more decoherence, narrower off-diagonal profile
    assert math.isclose(l1 ** 2 / l2 ** 2, 2.0, rel_tol=1e-6)


def test_density_matrix_undersized_grid_flag():
    p = pure_params()  # sigma_z = 2
    small = GridSpec2D(n_y=64, n_z=64, extent_y=16.0, extent_z=8.0)
    f = density_matrix_exact(p, small, t=0.0)
    assert "undersized-grid" in f.flags
