"""Measurement layer: trace, purity, widths, parameter fits, and the
Taylor-coefficient hierarchy residuals.

The diagonal of rho in rotated coordinates is p(tau) = rho(0, z = 2 tau)
with Jacobian 1/2, hence the halved sums in trace and purity.
"""
import math
from dataclasses import replace

import numpy as np
import pytest

from decwt import observables
from decwt.gaussian import (
    GaussianParams,
    build_cubic,
    density_matrix_exact,
    params_exact,
)
from decwt.fields import ComplexField1D, ComplexField2D
from decwt.observables import (
    FIT_WINDOW,
    coherence_from_rho,
    ensemble_width_from_a,
    ensemble_width_from_rho,
    fit_gaussian_alpha_beta,
    hermiticity_defect,
    purity,
    qseries_residual,
    trace_of,
)
from decwt.master_eq import init_gaussian_rho
from decwt.scenario import GridSpec1D, GridSpec2D, InvalidParameterError, Scenario, preset_bundle


def moderate():
    return Scenario(lam=1.0, b=1.0, label="moderate")


def mixed_params():
    # alpha = 1/4, gamma = 1: purity sqrt(alpha/(alpha+gamma)) = sqrt(0.2)
    return GaussianParams(alpha=0.25, beta=0.0, gamma=1.0,
                          delta=0.5 * math.log(0.5 / math.pi))


def sample_field(p, n=256, factor=8.0):
    sig_y = 1.0 / math.sqrt(p.alpha + p.gamma)
    sig_z = 1.0 / math.sqrt(p.alpha)
    grid = GridSpec2D(n_y=n, n_z=n, extent_y=factor * sig_y,
                      extent_z=factor * sig_z)
    return density_matrix_exact(p, grid)


def test_trace_of_exact_state():
    f = sample_field(mixed_params())
    assert abs(trace_of(f) - 1.0) < 1e-10


def test_purity_matches_gaussian_formula():
    p = mixed_params()
    f = sample_field(p)
    assert math.isclose(purity(f), math.sqrt(0.2), rel_tol=1e-10)


def test_hermiticity_defect_zero_on_exact_state():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    p = params_exact(g, s, 1.0)
    f = sample_field(p)
    assert hermiticity_defect(f) < 1e-13


def test_hermiticity_defect_detects_asymmetry():
    f = sample_field(mixed_params())
    broken = ComplexField2D(f.values + 0.01j, f.grid, f.t)
    assert hermiticity_defect(broken) > 1e-3


def test_coherence_from_rho_matches_curvature():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    p = params_exact(g, s, 1.0)
    f = sample_field(p)
    # ln|rho| is exactly quadratic in y, so the fit is exact
    assert math.isclose(coherence_from_rho(f),
                        1.0 / math.sqrt(p.alpha + p.gamma), rel_tol=1e-9)


def test_coherence_from_rho_ignores_zeros_outside_the_window():
    # exact zeros far from the fit window (as an underflowing decay factor
    # leaves at the y edge) must not reach the log: under
    # error::RuntimeWarning a full-column log raises "divide by zero"
    b = preset_bundle("strong")
    s = b.scenario
    f = init_gaussian_rho(GaussianParams.pure(s.alpha0), b.grid)
    f.values[:3, :] = 0.0
    assert math.isclose(coherence_from_rho(f), 1.0 / math.sqrt(s.alpha0),
                        rel_tol=1e-12)


def test_ensemble_width_from_rho():
    s = moderate()
    g = build_cubic(s, s.alpha0, 0.0)
    p = params_exact(g, s, 1.0)
    f = sample_field(p)
    assert math.isclose(ensemble_width_from_rho(f),
                        0.5 / math.sqrt(p.alpha), rel_tol=1e-8)


def test_ensemble_width_from_a():
    grid = GridSpec1D(n_points=512, extent=16.0)
    tau = grid.points()
    alpha = 0.25
    vals = np.exp(-alpha * tau ** 2).astype(complex)
    a = ComplexField1D(vals, grid, t=0.0)
    # |a|^2 ~ exp(-2 alpha tau^2): std = 1/(2 sqrt(alpha)) = 1
    assert math.isclose(ensemble_width_from_a(a), 1.0, rel_tol=1e-10)


def test_fit_gaussian_alpha_beta():
    grid = GridSpec1D(n_points=1024, extent=24.0)
    tau = grid.points()
    alpha, beta = 0.37, -0.21
    vals = np.exp(-(alpha + 1j * beta) * tau ** 2)
    a = ComplexField1D(vals, grid, t=0.0)
    af, bf = fit_gaussian_alpha_beta(a)
    assert math.isclose(af, alpha, rel_tol=1e-10)
    assert math.isclose(bf, beta, rel_tol=1e-10)


def test_fit_tolerates_global_phase_and_scale():
    grid = GridSpec1D(n_points=1024, extent=24.0)
    tau = grid.points()
    vals = 0.3 * np.exp(1j * 1.1) * np.exp(-(0.25 + 0.05j) * tau ** 2)
    a = ComplexField1D(vals, grid, t=0.0)
    af, bf = fit_gaussian_alpha_beta(a)
    assert math.isclose(af, 0.25, rel_tol=1e-9)
    assert math.isclose(bf, 0.05, rel_tol=1e-9)


@pytest.mark.parametrize("h", [0.05, 0.1, 0.35])  # the presets' spacings span 0.047-0.35
def test_curvature_fit_is_the_least_squares_quadratic(h):
    # the closed-form fit is exact on quadratics, as np.polyfit is
    x0, c0, c1, c2 = 1.3, 0.7, -1.9, 2.6
    x = x0 + h * np.arange(-(FIT_WINDOW // 2), FIT_WINDOW // 2 + 1)
    curvature, slope = observables._curvature_fit(c0 + c1 * x + c2 * x * x, h)
    coeff = np.polyfit(x - x0, c0 + c1 * x + c2 * x * x, 2)
    for got, exact, fitted in ((curvature, 2.0 * c2, 2.0 * coeff[0]),
                               (slope, c1 + 2.0 * c2 * x0, coeff[1])):
        assert got == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert got == pytest.approx(fitted, rel=1e-12, abs=0.0)


def test_coherence_from_rho_refuses_a_y_axis_shorter_than_the_fit_window():
    s = moderate()
    p = params_exact(build_cubic(s, s.alpha0, 0.0), s, 1.0)
    grid = GridSpec2D(n_y=8, n_z=64, extent_y=4.0, extent_z=16.0)
    with pytest.raises(InvalidParameterError, match=f"{FIT_WINDOW}-point fit window.*8-point grid"):
        coherence_from_rho(density_matrix_exact(p, grid))


def test_fit_gaussian_alpha_beta_refuses_a_peak_near_the_edge():
    grid = GridSpec1D(n_points=64, extent=8.0)
    tau = grid.points()
    a = ComplexField1D(np.exp(-(tau - tau[2]) ** 2).astype(complex), grid, t=0.0)
    with pytest.raises(InvalidParameterError, match=f"{FIT_WINDOW}-point fit window around index 2"):
        fit_gaussian_alpha_beta(a)


# --- Taylor-coefficient hierarchy ----------------------------------------


def exact_params_fn(s):
    g = build_cubic(s, s.alpha0, 0.0)
    return lambda t: params_exact(g, s, t)


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("t", [0.3, 1.0])
def test_qseries_residual_small_along_exact_flow(order, t):
    s = moderate()
    res = qseries_residual(exact_params_fn(s), s, t)[order]
    assert res < 1e-6, f"order {order}, t {t}: {res}"


def test_qseries_negative_control_recovers_source():
    # an evaluator with Lambda = 0 drops the collisional source at order 2,
    # which leaves exactly 2 Lambda
    s = moderate()
    res = qseries_residual(exact_params_fn(s), replace(s, lam=0.0), 1.0)[2]
    assert math.isclose(res, 2.0 * s.lam, rel_tol=1e-6)


def test_qseries_scales_with_coupling():
    s2 = Scenario(lam=10.0, b=1.0, label="strong")
    res = qseries_residual(exact_params_fn(s2), replace(s2, lam=0.0), 1.0)[2]
    assert math.isclose(res, 20.0, rel_tol=1e-5)
