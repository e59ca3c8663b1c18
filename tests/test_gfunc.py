"""Environment-mode overlap table and its structural identities.

For the Gaussian mode family with linear phase the overlaps are computable by
hand: g_(0,0) = 1, g_(0,1) = 0, g_(1,1) = gamma_k/hbar, g_(0,2) = -gamma_k/hbar,
and the pair overlap is K = exp(-(gamma_k/hbar) y^2 / 2) with y = tau - tau'.
Every quadrature result is checked against those closed forms.
"""
import math

import numpy as np
import pytest

from decwt.fields import ComplexField1D
from decwt.gfunc import (
    ConditionalSampler,
    compute_K,
    compute_g_table,
    gauge_transform,
    kernel_from_k_derivative,
    reconstruct_from_column,
    sample_phi,
    verify_g_identities,
)
from decwt.scenario import GridSpec1D, InvalidParameterError


def sampler(gamma_k=2.0, sigma=1.0, hbar=1.0, n_q=1024, factor=20.0):
    return ConditionalSampler(sigma=sigma, gamma_k=gamma_k, hbar=hbar,
                              q_grid=GridSpec1D(n_points=n_q,
                                                extent=factor * sigma))


def tau_grid():
    return np.linspace(-4.0, 4.0, 128)


def test_phi_unit_norm_in_q():
    cs = sampler()
    phi = sample_phi(cs, np.array([0.0, 1.3]))
    norms = np.sum(np.abs(phi) ** 2, axis=0) * cs.q_grid.spacing
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_identities_hold_at_quadrature_precision():
    cs = sampler()
    table = compute_g_table(cs, tau_grid())
    reports = verify_g_identities(table, cs)
    assert len(reports) == 6
    for r in reports:
        assert r.passed, f"{r.name}: {r.residual}"
        assert r.residual < 1e-12, f"{r.name}: {r.residual}"


def test_low_order_entries_match_closed_forms():
    gamma_k, hbar = 2.0, 1.0
    cs = sampler(gamma_k=gamma_k, hbar=hbar)
    table = compute_g_table(cs, tau_grid())
    assert set(table.entries) == {(n, m) for n in range(5) for m in range(5 - n)}
    assert np.allclose(table.entries[(0, 0)], 1.0, atol=1e-12)
    assert np.allclose(table.entries[(0, 1)], 0.0, atol=1e-12)
    assert np.allclose(table.entries[(1, 1)], gamma_k / hbar, atol=1e-10)
    assert np.allclose(table.entries[(0, 2)], -gamma_k / hbar, atol=1e-10)


def test_entries_constant_in_tau():
    # the linear-phase family has tau-independent overlaps
    cs = sampler(gamma_k=3.0)
    table = compute_g_table(cs, tau_grid())
    for key, vals in table.entries.items():
        assert np.max(np.abs(vals - vals[0])) < 1e-12, key


def test_kernel_matches_gaussian_form():
    gamma_k, hbar = 2.0, 1.0
    cs = sampler(gamma_k=gamma_k, hbar=hbar)
    tau = np.array([-1.0, 0.0, 0.5])
    tau_p = np.array([0.0, 0.5])
    K = compute_K(cs, tau, tau_p)
    y = tau[:, None] - tau_p[None, :]
    expected = np.exp(-(gamma_k / hbar) * y * y / 2.0)
    assert np.max(np.abs(K - expected)) < 1e-10
    # spot value: y = 1 at gamma_k = 2 gives e^{-1}
    assert abs(K[0, 0] - math.exp(-1.0)) < 1e-10


def test_kernel_y_derivative_vanishes_without_gauge_potential():
    # A = -i hbar g_(0,1) = 0 for the untransformed family, so dK/dy|_{y=0} = 0
    cs = sampler()
    d = kernel_from_k_derivative(cs, tau0=0.7)
    assert abs(d) < 1e-8


def test_reconstruction_from_one_sided_column():
    cs = sampler(gamma_k=2.5)
    table = compute_g_table(cs, tau_grid())
    rebuilt = reconstruct_from_column(table)
    assert set(rebuilt) == set(table.entries)
    worst = max(float(np.max(np.abs(rebuilt[k] - table.entries[k])))
                for k in table.entries)
    assert worst < 1e-8


def test_gauge_invariance_of_the_product():
    cs = sampler()
    grid = GridSpec1D(n_points=256, extent=4.0)
    tau = grid.points()
    a = ComplexField1D(np.exp(-0.25 * tau * tau).astype(complex), grid, t=0.0)
    theta = 0.3 * tau
    a_new, rep = gauge_transform(a, cs, theta)
    assert rep.max_psi_deviation < 1e-12
    assert rep.max_gauge_law_residual < 1e-12
    assert np.allclose(a_new.values, a.values * np.exp(1j * theta))


def test_gauge_potential_shift_sign():
    # theta = 0.3 tau shifts A by -hbar * 0.3
    cs = sampler()
    grid = GridSpec1D(n_points=256, extent=4.0)
    tau = grid.points()
    a = ComplexField1D(np.exp(-0.25 * tau * tau).astype(complex), grid, t=0.0)
    _, rep = gauge_transform(a, cs, 0.3 * tau)
    assert np.max(np.abs(rep.potential_before)) < 1e-12
    assert np.allclose(rep.potential_after, -cs.hbar * 0.3, atol=1e-10)


def test_gauge_theta_shape_checked():
    cs = sampler()
    grid = GridSpec1D(n_points=64, extent=4.0)
    a = ComplexField1D(np.ones(64, dtype=complex), grid, t=0.0)
    with pytest.raises(InvalidParameterError):
        gauge_transform(a, cs, np.zeros(32))


def test_sampler_validation():
    grid = GridSpec1D(n_points=256, extent=20.0)
    with pytest.raises(InvalidParameterError):
        ConditionalSampler(sigma=0.0, gamma_k=1.0, hbar=1.0, q_grid=grid)
    with pytest.raises(InvalidParameterError):
        ConditionalSampler(sigma=1.0, gamma_k=-0.1, hbar=1.0, q_grid=grid)
    with pytest.raises(InvalidParameterError):
        ConditionalSampler(sigma=1.0, gamma_k=1.0, hbar=0.0, q_grid=grid)
    with pytest.raises(InvalidParameterError):
        ConditionalSampler(sigma=3.0, gamma_k=1.0, hbar=1.0,
                           q_grid=GridSpec1D(n_points=256, extent=20.0))


def test_zero_curvature_family_is_static():
    # gamma_k = 0 removes the phase entirely: K = 1 everywhere
    cs = sampler(gamma_k=0.0)
    K = compute_K(cs, np.array([-2.0, 1.0]), np.array([0.5]))
    assert np.allclose(K, 1.0, atol=1e-12)
