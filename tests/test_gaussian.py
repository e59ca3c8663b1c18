"""Closed-form Gaussian solution: cubic width polynomial, parameter flow,
coherence length, ensemble width, and the sampled density matrix.

Oracle values below were derived by hand from the parameter ODEs
(the fixed natural units m = hbar = 1, b = 1, Lambda = 1, alpha0 = 1/4,
beta0 = 0):

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
from decwt.scenario import GridSpec2D, InvalidParameterError, Scenario


def moderate():
    return Scenario(lam=1.0, b=1.0, label="moderate")


def test_cubic_coefficients_standard_ic():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    assert g.c0 == 4.0
    assert g.c1 == 0.0
    assert g.c2 == 1.0
    assert math.isclose(g.c3, 8.0 / 3.0, rel_tol=1e-15)


def test_cubic_coefficients_boosted_ic():
    # beta0 = 1/4: c1 = -4*beta0/alpha0 = -4, c2 = 4*(a0 + b0^2/a0) = 2
    s = moderate()
    g = build_cubic(s, 0.25, 0.25)
    assert g.c1 == -4.0
    assert g.c2 == 2.0


def test_cubic_third_derivative_value():
    # G''' = 16 Lambda, probed with a third central difference
    s = Scenario(lam=3.0, b=1.0, label="x")
    g = build_cubic(s, s.alpha0, 0.1)
    h = 0.1
    t = 0.7
    d3 = (eval_G(g, t + 1.5 * h) - 3 * eval_G(g, t + 0.5 * h)
          + 3 * eval_G(g, t - 0.5 * h) - eval_G(g, t - 1.5 * h)) / h ** 3
    assert math.isclose(d3, 16.0 * s.lam, rel_tol=1e-9)


def test_natural_units_map_a_dimensional_scenario():
    # mass m, Planck constant hbar and strength Lambda at time t are the
    # natural-unit scenario Lambda' = m Lambda / hbar^2 at t' = hbar t / m;
    # lengths and alpha, beta, gamma are unchanged. The dimensional side is
    # written out: G = 1/alpha0 + 4 (hbar/m)^2 alpha0 t^2
    # + (8/3)(hbar/m)(Lambda/m) t^3 and gamma = (2 Lambda/hbar) int_0^t G / G.
    m, hbar, lam, alpha0 = 1.7, 0.8, 1.3, 0.25
    h_m, l_m = hbar / m, lam / m
    s = Scenario(lam=m * lam / hbar ** 2, b=1.0, label="mapped")
    g = build_cubic(s, alpha0, 0.0)
    for t in (0.1, 0.7, 2.0, 5.0):
        G = 1.0 / alpha0 + 4.0 * h_m ** 2 * alpha0 * t ** 2 + (8.0 / 3.0) * h_m * l_m * t ** 3
        G_dot = 8.0 * h_m ** 2 * alpha0 * t + 8.0 * h_m * l_m * t ** 2
        int_G = (t / alpha0 + (4.0 / 3.0) * h_m ** 2 * alpha0 * t ** 3
                 + (2.0 / 3.0) * h_m * l_m * t ** 4)
        p = params_exact(g, s, hbar * t / m)
        assert math.isclose(p.alpha, 1.0 / G, rel_tol=1e-13)
        assert math.isclose(p.beta, -(m / (4.0 * hbar)) * G_dot / G, rel_tol=1e-13)
        assert math.isclose(p.gamma, (2.0 * lam / hbar) * int_G / G, rel_tol=1e-13)


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


def test_params_exact_refuses_an_overflowing_G():
    # G(t) overflows to inf at t = 1e140 on the moderate preset; alpha = 1/G
    # would round to 0 and the log of delta fail with "math domain error"
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    with pytest.raises(InvalidParameterError, match=r"^t: G\(t\) = inf not finite at t = 1e\+140$"):
        params_exact(g, s, 1e140)


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
    s = Scenario(lam=0.0, b=1.0, label="free")
    g = build_cubic(s, s.alpha0, 0.0)
    assert g.c3 == 0.0
    assert gamma_exact(g, s, 2.0) == 0.0
    p = params_exact(g, s, 2.0)
    assert math.isclose(p.alpha, 1.0 / 8.0, rel_tol=1e-14)  # G(2) = 4 + 4


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_pure_packet_is_the_closed_form_at_t0(b):
    # alpha0 = 1/(4 b^2) is a power of two here, so 1/G(0) gives it back exactly
    s = Scenario(lam=1.0, b=b, label="probe")
    assert GaussianParams.pure(s.alpha0) == params_exact(build_cubic(s, s.alpha0, 0.0), s, 0.0)


@pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf])
def test_pure_packet_refuses_alpha_out_of_range(alpha):
    # refused by name before the normalisation's log sees it
    with pytest.raises(InvalidParameterError, match="^alpha: must be positive and finite$"):
        GaussianParams.pure(alpha)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "delta"])
def test_params_refuse_a_non_finite_field(field, value):
    # a NaN passes a bare "< 0.0" guard; every field is refused by name
    fields = {"alpha": 0.5, "beta": 0.3, "gamma": 0.2, "delta": -0.7, field: value}
    with pytest.raises(InvalidParameterError, match=f"^{field}: must be .*finite"):
        GaussianParams(**fields)


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


def test_density_matrix_trace_is_one_on_adequate_grid():
    from decwt.observables import trace_of
    p = GaussianParams.pure(0.25)
    f = density_matrix_exact(p, grid_for(p))
    assert abs(trace_of(f) - 1.0) < 1e-10


def test_density_matrix_pure_state_purity():
    from decwt.observables import purity
    p = GaussianParams.pure(0.25)
    f = density_matrix_exact(p, grid_for(p))
    assert abs(purity(f) - 1.0) < 1e-10


def test_density_matrix_off_diagonal_width():
    # |rho(y, z=0)| / rho(0, 0) = exp(-(alpha+gamma) y^2 / 2); the 1/e
    # half-width is sqrt(2/(alpha+gamma))
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    p = params_exact(g, s, 1.0)
    grid = grid_for(p)
    f = density_matrix_exact(p, grid)
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
    l1 = coherence_from_rho(density_matrix_exact(base, grid))
    l2 = coherence_from_rho(density_matrix_exact(dbl, grid))
    assert l2 < l1  # more decoherence, narrower off-diagonal profile
    assert math.isclose(l1 ** 2 / l2 ** 2, 2.0, rel_tol=1e-6)



def test_density_matrix_is_its_one_expression_bit_for_bit():
    # density_matrix_exact is the closed form's one expression, the tests'
    # reference for master_eq.init_gaussian_rho's outer product (beta and
    # gamma nonzero, so every term shows)
    p = GaussianParams(alpha=0.5, beta=0.3, gamma=0.2, delta=-0.7)
    grid = GridSpec2D(n_y=32, n_z=64, extent_y=14.0, extent_z=11.0)
    y = grid.axis_y.points()[:, None]
    z = grid.axis_z.points()[None, :]
    want = np.exp(p.delta - 0.5 * p.alpha * (z * z + y * y)
                  - 1j * p.beta * y * z - 0.5 * p.gamma * y * y)
    assert density_matrix_exact(p, grid).values.tobytes() == want.tobytes()
