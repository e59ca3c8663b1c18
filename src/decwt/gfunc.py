"""Environment-mode overlap functions and their structural identities.

The conditional environment amplitude used throughout is the Gaussian family

    phi(q, tau) = (2 pi)^(-1/4) exp(-q^2/4 + i q tau s),   s = sqrt(gamma_k),

in the fixed natural units hbar = m = 1, with q measured in the width sigma = 1
of the environment-mode amplitude profile. Its pair overlap reproduces the
decoherence kernel:
K(tau, tau') = int conj(phi(q, tau')) phi(q, tau) dq = exp(-gamma_k y^2 / 2).
Because the phase is linear in tau, every tau-derivative is analytic,
d^n phi / d tau^n = (i q s)^n phi, and |phi|^2 does not depend on tau. So the
overlap moments

    g_(n,m)(tau) = int (d^n conj phi)(d^m phi) dq = (-i s)^n (i s)^m <q^(n+m)>

are constants, with the Gaussian q-moments <q^0..4> = 1, 0, 1, 0, 3;
compute_g_table returns that closed form. The table obeys, identically in tau:

    g_(0,0) = 1
    d/dtau g_(n,m) = g_(n+1,m) + g_(n,m+1)
    sum_k C(N,k) g_(N-k,k) = 0          (N-th derivative of g_(0,0))
    g_(m,n) = conj(g_(n,m))
    A = -i g_(0,1) real,  Re g_(0,2) = -g_(1,1)

and the kernel's y-expansion at fixed z is generated by the one-sided column:
K = sum_n g_(0,n) y^n / n! + O(y^{N+1}). verify_g_identities checks these;
the table against a trapezoid q-quadrature of the overlaps at its first,
middle and last tau (the one check independent of the closed form); the
table rebuilt from its one-sided column; and dK/dy = i A = 0 at y = 0.
gauge_transform adds the two gauge rows from the separable form
|phi(q, tau)| = phi0(q), without sampling phi on the (q, tau) grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import ComplexField1D
from .scenario import GridSpec1D, InvalidParameterError


Q_GRID = GridSpec1D(1024, 20.0)  # the q quadrature grid, 20 mode widths each way


def _phase_slope(gamma_k: float) -> float:
    """s = sqrt(gamma_k); gamma_k is the kernel curvature the family encodes."""
    if not 0.0 <= gamma_k < math.inf:  # NaN fails both
        raise InvalidParameterError("gamma_k", f"must be finite and >= 0, got {gamma_k!r}")
    return math.sqrt(gamma_k)


def sample_phi(gamma_k: float, tau: np.ndarray) -> np.ndarray:
    """phi on the (q, tau) tensor grid; shape (n_q, n_tau), unit q-norm."""
    q = Q_GRID.points()[:, None]
    tau = np.asarray(tau, dtype=float)[None, :]
    norm = (2.0 * math.pi) ** -0.25
    return norm * np.exp(-q * q / 4.0 + 1j * q * tau * _phase_slope(gamma_k))


def _dphi(gamma_k: float, phi: np.ndarray, order: int) -> np.ndarray:
    """Analytic tau-derivative: the phase is linear in tau."""
    q = Q_GRID.points()[:, None]
    return (1j * q * _phase_slope(gamma_k)) ** order * phi


def _quad(integrand: np.ndarray) -> np.ndarray:
    """Trapezoid over q (periodic-uniform grid: plain Riemann sum, |phi|^2
    decays to exp(-200) at the boundary q = 20)."""
    return np.sum(integrand, axis=0) * Q_GRID.spacing


def compute_K(gamma_k: float, tau: np.ndarray, tau_p: np.ndarray) -> np.ndarray:
    """Pair overlap K(tau, tau') by quadrature; broadcasts over both arguments."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    tau_p = np.atleast_1d(np.asarray(tau_p, dtype=float))
    phi = sample_phi(gamma_k, tau)
    phi_p = sample_phi(gamma_k, tau_p)
    # conj(phi(q,tau')) phi(q,tau), contracted over q
    out = np.einsum("qa,qb->ab", np.conj(phi_p), phi) * Q_GRID.spacing
    return out.T  # rows tau, columns tau'


ORDER = 4  # table order n + m <= 4: the Taylor order of the kernel check
THRESHOLD = 1e-8  # pass bound of the table identities: quadrature round-off


@dataclass
class GFunctionTable:
    """g_(n,m)(tau) for all n + m <= ORDER, keyed by (n, m), of the family
    with kernel curvature gamma_k."""

    tau: np.ndarray
    gamma_k: float
    entries: dict = field(default_factory=dict)


_PAIRS = [(n, m) for n in range(ORDER + 1) for m in range(ORDER + 1 - n)]
_Q_MOMENTS = (1.0, 0.0, 1.0, 0.0, 3.0)  # <q^k> under |phi|^2, k = 0..ORDER


def compute_g_table(gamma_k: float, tau: np.ndarray) -> GFunctionTable:
    """The closed form g_(n,m) = (-i s)^n (i s)^m <q^(n+m)> on the tau grid."""
    tau = np.asarray(tau, dtype=float)
    s = _phase_slope(gamma_k)
    return GFunctionTable(tau=tau, gamma_k=gamma_k, entries={
        (n, m): np.full(tau.shape, (-1j * s) ** n * (1j * s) ** m * _Q_MOMENTS[n + m])
        for n, m in _PAIRS})


def quadrature_entries(gamma_k: float, tau: np.ndarray) -> np.ndarray:
    """g_(n,m) at the tau points by trapezoid quadrature over q; one row per
    (n, m) in the table's key order."""
    phi = sample_phi(gamma_k, tau)
    derivs = [_dphi(gamma_k, phi, n) for n in range(ORDER + 1)]
    return np.array([_quad(np.conj(derivs[n]) * derivs[m]) for n, m in _PAIRS])


def _spectral_ddtau(vals: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """d/dtau on a uniform tau grid via FFT (the table entries are smooth and
    constant-in-tau for this family, so this is exact up to round-off)."""
    n = len(tau)
    span = tau[-1] - tau[0] + (tau[1] - tau[0])
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=span / n)
    return np.fft.ifft(1j * k * np.fft.fft(vals))


@dataclass
class IdentityReport:
    name: str
    residual: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.threshold


def verify_g_identities(table: GFunctionTable) -> list[IdentityReport]:
    """Residuals of the structural identities, of the table against the
    q-quadrature at its first, middle and last tau, of the table rebuilt from
    its one-sided column, and of the kernel's y-derivative at y = 0; all
    should sit at round-off for the Gaussian family, below THRESHOLD."""
    out: list[IdentityReport] = []
    g = table.entries

    out.append(IdentityReport(
        "normalization g_(0,0) = 1",
        float(np.max(np.abs(g[(0, 0)] - 1.0))), THRESHOLD))

    # derivative recursion, checked spectrally on the tau grid
    worst = 0.0
    for (n, m), vals in g.items():
        if n + m >= ORDER:
            continue
        lhs = _spectral_ddtau(vals, table.tau)
        worst = max(worst, float(np.max(np.abs(lhs - g[(n + 1, m)] - g[(n, m + 1)]))))
    out.append(IdentityReport("recursion d g_(n,m) = g_(n+1,m) + g_(n,m+1)", worst, THRESHOLD))

    worst = 0.0
    for order in range(1, ORDER + 1):
        acc = sum(math.comb(order, k) * g[(order - k, k)] for k in range(order + 1))
        worst = max(worst, float(np.max(np.abs(acc))))
    out.append(IdentityReport("binomial sums over each diagonal", worst, THRESHOLD))

    worst = max(
        float(np.max(np.abs(g[(m, n)] - np.conj(g[(n, m)]))))
        for (n, m) in g
    )
    out.append(IdentityReport("conjugate symmetry g_(m,n) = conj g_(n,m)", worst, THRESHOLD))

    out.append(IdentityReport(
        "gauge potential -i hbar g_(0,1) real",
        float(np.max(np.abs(np.imag(-1j * g[(0, 1)])))), THRESHOLD))
    out.append(IdentityReport(
        "Re g_(0,2) = -g_(1,1)",
        float(np.max(np.abs(np.real(g[(0, 2)]) + g[(1, 1)]))), THRESHOLD))

    picked = [0, table.tau.size // 2, -1]  # first, middle and last tau
    quad = quadrature_entries(table.gamma_k, table.tau[picked])
    out.append(IdentityReport(
        "table against q-quadrature",
        max(float(np.max(np.abs(g[k][picked] - row))) for k, row in zip(_PAIRS, quad)),
        THRESHOLD))

    rebuilt = reconstruct_from_column(table)
    out.append(IdentityReport(
        "reconstruction from one-sided column",
        max(float(np.max(np.abs(rebuilt[k] - g[k]))) for k in g), THRESHOLD))
    out.append(IdentityReport(
        "kernel y-derivative at zero gauge potential",
        abs(kernel_from_k_derivative(table.gamma_k)), THRESHOLD))
    return out


def reconstruct_from_column(table: GFunctionTable) -> dict:
    """Rebuild every entry from the one-sided column {g_(0,k)} and the
    derivative recursion: g_(n+1,m) = d g_(n,m) - g_(n,m+1)."""
    rebuilt = {(0, m): np.array(table.entries[(0, m)]) for m in range(ORDER + 1)}
    for n in range(ORDER):
        for m in range(ORDER - n):
            d = _spectral_ddtau(rebuilt[(n, m)], table.tau)
            rebuilt[(n + 1, m)] = d - rebuilt[(n, m + 1)]
    return rebuilt


def kernel_from_k_derivative(gamma_k: float) -> complex:
    """Centered dK/dy at y = 0 (step 1e-5), z = 0: equals i A(0)."""
    h = 1e-5
    kp = compute_K(gamma_k, np.array([0.5 * h]), np.array([-0.5 * h]))[0, 0]
    km = compute_K(gamma_k, np.array([-0.5 * h]), np.array([0.5 * h]))[0, 0]
    return complex((kp - km) / (2.0 * h))


def gauge_transform(a: ComplexField1D, gamma_k: float,
                    theta: np.ndarray) -> tuple[ComplexField1D, list[IdentityReport]]:
    """Apply a -> a e^{i theta}, phi -> phi e^{-i theta} and report the gauge
    checks: the product a(tau) phi(q, tau) must be pointwise invariant, and the
    induced potential must shift by -d(theta)/d tau.

    As |phi(q, tau)| = phi0(q), the product's deviation is max_q |phi| times
    max_tau |a_new e^{-i theta} - a|, and the potentials come from the
    q-quadrature g_(0,0) and g_(0,1) at one tau: A = Re(-i g_(0,1)) before and
    Re(-i (g_(0,1) - i theta' g_(0,0))) after, by the product rule. theta' is
    np.gradient of theta on a's tau grid (exact for linear phases).
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != a.values.shape:
        raise InvalidParameterError("theta", "must match the tau grid of a")
    phase = np.exp(1j * theta)
    a_new = ComplexField1D(a.values * phase, a.grid, a.t)
    theta_dot = np.gradient(theta, a.grid.spacing)

    tau0 = a.grid.points()[:1]
    phi0 = float(np.max(np.abs(sample_phi(gamma_k, tau0))))
    dev = phi0 * float(np.max(np.abs(a_new.values * np.conj(phase) - a.values)))
    g = dict(zip(_PAIRS, quadrature_entries(gamma_k, tau0)[:, 0]))
    pot_before = np.real(-1j * g[(0, 1)])
    pot_after = np.real(-1j * (g[(0, 1)] - 1j * theta_dot * g[(0, 0)]))
    law = float(np.max(np.abs(pot_after - (pot_before - theta_dot))))
    return a_new, [
        # |e^{i theta}|^2 - 1 is round-off, so the product holds to 1e-12
        IdentityReport("gauge invariance of the joint product", dev, 1e-12),
        IdentityReport("gauge potential shift law", law, THRESHOLD),
    ]
