"""Environment-mode overlap table and its structural identities.

For the Gaussian mode family with linear phase the overlaps are computable by
hand: g_(0,0) = 1, g_(0,1) = 0, g_(1,1) = gamma_k, g_(0,2) = -gamma_k, and the
pair overlap is K = exp(-gamma_k y^2 / 2) with y = tau - tau' (hbar = 1).
The table is the closed form g_(n,m) = (-i s)^n (i s)^m <q^(n+m)>, s =
sqrt(gamma_k). Its low-order entries, the pair overlap and the gauge checks
are checked against the hand values, and the q-quadrature of the overlaps,
which does not use the closed form, against the table at every tau.
"""
import csv
import math

import numpy as np
import pytest

from decwt import cli
from decwt.fields import ComplexField1D
from decwt.gfunc import (
    Q_GRID,
    compute_K,
    compute_g_table,
    gauge_transform,
    kernel_from_k_derivative,
    quadrature_entries,
    reconstruct_from_column,
    sample_phi,
    verify_g_identities,
)
from decwt.scenario import GridSpec1D, InvalidParameterError


def tau_grid():
    return np.linspace(-4.0, 4.0, 128)


def test_phi_unit_norm_in_q():
    phi = sample_phi(2.0, np.array([0.0, 1.3]))
    norms = np.sum(np.abs(phi) ** 2, axis=0) * Q_GRID.spacing
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_identities_hold_at_quadrature_precision():
    table = compute_g_table(2.0, tau_grid())
    reports = verify_g_identities(table)
    assert len(reports) == 9
    for r in reports:
        assert r.passed, f"{r.name}: {r.residual}"
        assert r.residual < 1e-12, f"{r.name}: {r.residual}"


@pytest.mark.parametrize("gamma_k", [0.0, 0.37, 2.5])
def test_quadrature_matches_the_table_at_every_tau(gamma_k):
    # verify_g_identities compares the two at three tau only
    table = compute_g_table(gamma_k, tau_grid())
    quad = quadrature_entries(gamma_k, tau_grid())
    assert quad.shape == (len(table.entries), tau_grid().size)
    for key, row in zip(table.entries, quad):
        assert np.max(np.abs(row - table.entries[key])) < 1e-12, key


def test_low_order_entries_match_closed_forms():
    gamma_k = 2.0
    table = compute_g_table(gamma_k, tau_grid())
    assert set(table.entries) == {(n, m) for n in range(5) for m in range(5 - n)}
    assert np.allclose(table.entries[(0, 0)], 1.0, atol=1e-12)
    assert np.allclose(table.entries[(0, 1)], 0.0, atol=1e-12)
    assert np.allclose(table.entries[(1, 1)], gamma_k, atol=1e-10)
    assert np.allclose(table.entries[(0, 2)], -gamma_k, atol=1e-10)


def test_entries_constant_in_tau():
    # the linear-phase family has tau-independent overlaps
    table = compute_g_table(3.0, tau_grid())
    for key, vals in table.entries.items():
        assert np.max(np.abs(vals - vals[0])) < 1e-12, key


def test_kernel_matches_gaussian_form():
    gamma_k = 2.0
    tau = np.array([-1.0, 0.0, 0.5])
    tau_p = np.array([0.0, 0.5])
    K = compute_K(gamma_k, tau, tau_p)
    y = tau[:, None] - tau_p[None, :]
    expected = np.exp(-gamma_k * y * y / 2.0)
    assert np.max(np.abs(K - expected)) < 1e-10
    # spot value: y = 1 at gamma_k = 2 gives e^{-1}
    assert abs(K[0, 0] - math.exp(-1.0)) < 1e-10


def test_kernel_y_derivative_vanishes_without_gauge_potential():
    # A = -i g_(0,1) = 0 for the untransformed family, so dK/dy|_{y=0} = 0
    d = kernel_from_k_derivative(2.0)
    assert abs(d) < 1e-8


def test_reconstruction_from_one_sided_column():
    table = compute_g_table(2.5, tau_grid())
    rebuilt = reconstruct_from_column(table)
    assert set(rebuilt) == set(table.entries)
    worst = max(float(np.max(np.abs(rebuilt[k] - table.entries[k])))
                for k in table.entries)
    assert worst < 1e-8


@pytest.mark.parametrize("theta_of", [
    lambda tau: 0.3 * tau,
    lambda tau: 0.3 * tau + 0.2 * np.sin(tau),
    lambda tau: 5.0 * np.cos(2.0 * tau),
], ids=["linear", "linear+sin", "5cos2tau"])
@pytest.mark.parametrize("gamma_k", [0.0, 0.37, 2.5])
def test_gauge_invariance_of_the_product(gamma_k, theta_of):
    # the shift law holds for any theta: it is checked against the same
    # np.gradient theta' that the product rule uses
    grid = GridSpec1D(n_points=256, extent=4.0)
    tau = grid.points()
    a = ComplexField1D(np.exp(-0.25 * tau * tau).astype(complex), grid, t=0.0)
    theta = theta_of(tau)
    a_new, reports = gauge_transform(a, gamma_k, theta)
    assert [r.name for r in reports] == ["gauge invariance of the joint product",
                                         "gauge potential shift law"]
    for r in reports:
        assert r.passed and r.residual < 1e-13, f"{r.name}: {r.residual}"
    assert np.array_equal(a_new.values, a.values * np.exp(1j * theta))


def test_gauge_theta_shape_checked():
    grid = GridSpec1D(n_points=64, extent=4.0)
    a = ComplexField1D(np.ones(64, dtype=complex), grid, t=0.0)
    with pytest.raises(InvalidParameterError):
        gauge_transform(a, 2.0, np.zeros(32))


def test_sampler_validation():
    # every g-function refuses a negative kernel curvature gamma_k
    tau = tau_grid()
    grid = GridSpec1D(n_points=64, extent=4.0)
    a = ComplexField1D(np.ones(64, dtype=complex), grid, t=0.0)
    for call in (lambda: sample_phi(-0.1, tau),
                 lambda: compute_K(-0.1, tau, tau),
                 lambda: compute_g_table(-0.1, tau),
                 lambda: kernel_from_k_derivative(-0.1),
                 lambda: gauge_transform(a, -0.1, np.zeros(64))):
        with pytest.raises(InvalidParameterError) as exc:
            call()
        assert exc.value.field == "gamma_k"


@pytest.mark.parametrize("gamma_k", [math.inf, math.nan])
def test_non_finite_curvature_is_refused_by_name(gamma_k):
    # refused before numpy sees it: the suite turns RuntimeWarnings into errors
    for call in (lambda: compute_g_table(gamma_k, tau_grid()),
                 lambda: sample_phi(gamma_k, tau_grid())):
        with pytest.raises(InvalidParameterError, match=f"got {gamma_k!r}") as exc:
            call()
        assert exc.value.field == "gamma_k"


def test_zero_curvature_family_is_static():
    # gamma_k = 0 removes the phase entirely: K = 1 everywhere
    K = compute_K(0.0, np.array([-2.0, 1.0]), np.array([0.5]))
    assert np.allclose(K, 1.0, atol=1e-12)


def test_gfunc_csv_rows_are_verify_first_nine(tmp_path, capsys):
    # both commands print the one list of verify_g_identities
    assert cli.main(["run", "--routes", "gfunc", "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "gfunc.csv", newline="") as fh:
        csv_names = [row["name"] for row in csv.DictReader(fh)]
    capsys.readouterr()
    assert cli.main(["verify"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:10]
    assert len(csv_names) == 9
    assert [row.split("  ")[0] for row in rows] == csv_names
