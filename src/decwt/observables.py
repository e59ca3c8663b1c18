"""Observable extraction from grid fields, plus the exponent-hierarchy residual.

Coordinate bookkeeping for density matrices rho(y, z): the physical pair is
tau = (z + y)/2, tau' = (z - y)/2, so d tau d tau' = (1/2) dy dz. Every trace-like
sum below carries that Jacobian 1/2, and the diagonal density lives on the
y = 0 slice with p(tau) = rho(0, 2 tau). Units are the fixed natural ones,
hbar = m = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import ComplexField1D, ComplexField2D
from .gaussian import GaussianParams
from .scenario import InvalidParameterError, Scenario

FIT_WINDOW = 9  # points in every curvature fit, odd

# Least-squares quadratic through FIT_WINDOW equally spaced values, k = -4..4
# around the middle point (Savitzky & Golay, Anal. Chem. 36, 1627 (1964)):
# slope = sum k v_k / (60 h), curvature = 2 sum (k^2 - 20/3) v_k / (308 h^2).
_K = np.arange(FIT_WINDOW, dtype=float) - FIT_WINDOW // 2
_SLOPE = _K / np.dot(_K, _K)
_K2 = _K * _K - np.mean(_K * _K)
_CURVATURE = 2.0 * _K2 / np.dot(_K2, _K2)


@dataclass(kw_only=True)
class ObservableSample:
    """One sampled time of a route. The fields are the columns of the route
    CSVs, in order; None (or NaN) is a column the route does not produce."""

    t: float
    alpha: float | None = None       # Gaussian parameters, where the route has them
    beta: float | None = None
    gamma: float | None = None
    delta: float | None = None
    coherence_length: float
    ensemble_width: float
    purity: float
    norm: float                      # trace for rho, L2 norm for wavefunctions
    flags: tuple[str, ...] = ()


def trace_of(f: ComplexField2D) -> complex:
    """Trace = (1/2) * sum_z rho(0, z) dz; y = 0 sits at row n_y // 2."""
    row = f.values[f.grid.n_y // 2, :]
    return complex(0.5 * np.sum(row) * f.grid.axis_z.spacing)


def purity(f: ComplexField2D, abs2: np.ndarray | None = None) -> float:
    """tr(rho^2) = (1/2) * sum |rho|^2 dy dz (hermiticity folds the double trace
    into a plain square sum); abs2 is |rho|^2 when the caller has it already."""
    g = f.grid
    if abs2 is None:
        abs2 = np.abs(f.values) ** 2
    val = 0.5 * np.sum(abs2) * g.axis_y.spacing * g.axis_z.spacing
    return float(val)


def hermiticity_defect(f: ComplexField2D) -> float:
    """max |rho(-y, z) - conj(rho(y, z))| / max |rho|. The periodic reflection
    maps row i to row (n - i) mod n."""
    refl = np.roll(f.values[::-1, :], 1, axis=0)
    denom = float(np.max(np.abs(f.values)))
    if denom == 0.0:
        return 0.0
    return float(np.max(np.abs(refl - np.conj(f.values))) / denom)


def _fit_window(n: int, center: int) -> slice:
    """The FIT_WINDOW indices around center, refused if they leave the
    n-point grid."""
    half = FIT_WINDOW // 2
    if center < half or center + half >= n:
        raise InvalidParameterError("grid", f"the {FIT_WINDOW}-point fit window around index"
                                            f" {center} leaves the {n}-point grid")
    return slice(center - half, center + half + 1)


def _curvature_fit(vals: np.ndarray, h: float) -> tuple[float, float]:
    """Quadratic fit of the FIT_WINDOW values vals, spaced h, at their middle
    point; returns (curvature, linear coef)."""
    return float(np.dot(_CURVATURE, vals)) / (h * h), float(np.dot(_SLOPE, vals)) / h


def coherence_from_rho(f: ComplexField2D) -> float:
    """Off-diagonal 1/e scale: fit -ln|rho(y, z_peak)| = const + c y^2 / 2 over
    the central FIT_WINDOW points and return 1/sqrt(c)."""
    g = f.grid
    iy0 = g.n_y // 2
    iz_peak = int(np.argmax(np.abs(f.values[iy0, :])))
    cut = np.abs(f.values[_fit_window(g.n_y, iy0), iz_peak])
    if np.min(cut) <= 0.0:
        raise InvalidParameterError("rho", "vanishing amplitude inside the fit window")
    c, _ = _curvature_fit(-np.log(cut), g.axis_y.spacing)
    if c <= 0.0:
        raise InvalidParameterError("rho", f"non-convex log profile (curvature {c:g})")
    return 1.0 / math.sqrt(c)


def _spread(x: np.ndarray, p: np.ndarray, what: str) -> float:
    """Standard deviation of x under the weights p; what names the field."""
    w = np.sum(p)
    if w <= 0.0:
        raise InvalidParameterError(what, "field has no weight")
    mean = np.sum(x * p) / w
    var = np.sum((x - mean) ** 2 * p) / w
    return math.sqrt(max(var, 0.0))


def ensemble_width_from_rho(f: ComplexField2D) -> float:
    """Std of the diagonal density: second moment of rho(0, z) over z, halved
    (tau = z/2 on the diagonal)."""
    g = f.grid
    return 0.5 * _spread(g.axis_z.points(), np.real(f.values[g.n_y // 2, :]), "rho")


def ensemble_width_from_a(a: ComplexField1D) -> float:
    """Std of |a|^2 over tau."""
    return _spread(a.grid.points(), np.abs(a.values) ** 2, "a")


def fit_gaussian_alpha_beta(a: ComplexField1D) -> tuple[float, float]:
    """Extract (alpha, beta) from a Gaussian-like wavefunction.

    alpha is half the curvature of -ln|a| at the peak; beta is minus half the
    curvature of the phase relative to the peak (phase taken as
    angle(a / a_peak) so the window never straddles a branch cut).
    """
    amp = np.abs(a.values)
    i0 = int(np.argmax(amp))
    if amp[i0] <= 0.0:
        raise InvalidParameterError("a", "empty field")
    w, h = _fit_window(len(amp), i0), a.grid.spacing
    c_amp, _ = _curvature_fit(-np.log(np.maximum(amp[w], 1e-300)), h)
    c_ph, _ = _curvature_fit(np.angle(a.values[w] / a.values[i0]), h)
    return 0.5 * c_amp, -0.5 * c_ph


# ---------------------------------------------------------------------------
# Exponent hierarchy: y-Taylor coefficients of the density-matrix exponent.
#
# Write rho = exp(Q(y, z) + Gth(y, z)) with Q from the wavefunction product and
# Gth from the decoherence kernel, and expand both in y at fixed z:
# Q_n(z) = d^n/dy^n Q|_{y=0}. For the Gaussian family the wavefunction exponent
# is r(tau) = delta/2 - (alpha + i beta) tau^2, which gives
#   Q_0 = delta - alpha z^2 / 2,  Q_1 = -i beta z,  Q_2 = -alpha,  Q_{n>=3} = 0,
#   Gth_2 = -gamma, all other Gth_n = 0.
# Order n of the master equation then reads
#   dQ_n/dt + dGth_n/dt = 2 i [F'_{n+1} + sum_k C(n,k) F_{k+1} F'_{n-k}]
#                          - 2 Lambda delta_{n,2}
# with F = Q + Gth and prime = d/dz. The sum closes at n = 2 because every
# higher coefficient vanishes identically for Gaussians.
# ---------------------------------------------------------------------------

_MAX_ORDER = 2
FD_STEP = 1e-4  # half-width of the centered time difference


def _q_coeffs(p: GaussianParams, z: np.ndarray) -> list[np.ndarray]:
    """F_n = Q_n + Gth_n for n = 0..3 on the z grid."""
    q0 = p.delta - 0.5 * p.alpha * z * z + 0j
    q1 = -1j * p.beta * z
    q2 = np.full_like(z, -p.alpha - p.gamma, dtype=np.complex128)
    q3 = np.zeros_like(z, dtype=np.complex128)
    return [q0, q1, q2, q3]


def _q_coeffs_dz(p: GaussianParams, z: np.ndarray) -> list[np.ndarray]:
    """d/dz of F_n, analytic (polynomial in z)."""
    d0 = -p.alpha * z + 0j
    d1 = np.full_like(z, -1j * p.beta, dtype=np.complex128)
    d2 = np.zeros_like(z, dtype=np.complex128)
    d3 = np.zeros_like(z, dtype=np.complex128)
    return [d0, d1, d2, d3]


def qseries_residual(
    params_fn: Callable[[float], GaussianParams],
    s: Scenario,
    t: float,
) -> list[float]:
    """Max-norm residuals of hierarchy orders 0..2 at time t on 64 z points
    over [-3b, 3b], from one evaluation of params_fn at each of t - FD_STEP,
    t and t + FD_STEP.

    Time derivatives come from central differences of params_fn with
    half-width FD_STEP, so t must be at least FD_STEP; z derivatives
    are analytic.
    """
    z = np.linspace(-3.0 * s.b, 3.0 * s.b, 64)
    f_plus = _q_coeffs(params_fn(t + FD_STEP), z)
    f_minus = _q_coeffs(params_fn(t - FD_STEP), z)
    p = params_fn(t)
    f_now = _q_coeffs(p, z)
    f_dz = _q_coeffs_dz(p, z)

    residuals = []
    for n in range(_MAX_ORDER + 1):
        lhs = (f_plus[n] - f_minus[n]) / (2.0 * FD_STEP)
        acc = f_dz[n + 1].astype(np.complex128)
        for k in range(n + 1):
            acc = acc + math.comb(n, k) * f_now[k + 1] * f_dz[n - k]
        rhs = 2j * acc
        if n == 2:
            rhs = rhs - 2.0 * s.lam
        residuals.append(float(np.max(np.abs(lhs - rhs))))
    return residuals
