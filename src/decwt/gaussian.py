"""Closed-form Gaussian solution of the collisional-decoherence master equation.

The marginal wavefunction ansatz a(tau) = exp(delta/2 - (alpha + i beta) tau^2)
with decoherence kernel K = exp(-gamma y^2 / 2) solves

    i drho/dt = -2 d^2 rho / dy dz - i Lambda y^2 rho

in rotated coordinates y = tau - tau', z = tau + tau' and the fixed natural
units hbar = m = 1, when the parameters obey

    d(delta)/dt = 2 beta
    d(alpha)/dt = 4 alpha beta
    d(gamma)/dt = 4 beta gamma + 2 Lambda
    d(beta)/dt  = 2 (beta^2 - alpha^2 - alpha gamma)

The inverse width G(t) = 1/alpha(t) is then an exact cubic in t, and gamma
follows by one quadrature: gamma(t) = 2 Lambda * int_0^t G / G(t).
Everything in this module is closed-form; no time stepping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ComplexField2D
from .scenario import GridSpec2D, InvalidParameterError, Scenario


@dataclass(frozen=True)
class GaussianParams:
    """Instantaneous Gaussian state: exponent delta - (alpha/2)(y^2+z^2) - i beta y z - (gamma/2) y^2."""

    alpha: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.inf):
            raise InvalidParameterError("alpha", "must be positive and finite")
        if not (0.0 <= self.gamma < math.inf):
            raise InvalidParameterError("gamma", "must be finite and >= 0")
        for name in ("beta", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameterError(name, "must be finite")

    @classmethod
    def pure(cls, alpha: float) -> GaussianParams:
        """The normalised, unchirped packet a(tau) = exp(delta/2 - alpha tau^2)."""
        if not (0.0 < alpha < math.inf):  # before the log sees it
            raise InvalidParameterError("alpha", "must be positive and finite")
        return cls(alpha, 0.0, 0.0, 0.5 * math.log(2.0 * alpha / math.pi))


@dataclass(frozen=True)
class CubicG:
    """G(t) = c0 + c1 t + c2 t^2 + c3 t^3, the inverse ensemble-width parameter."""

    c0: float
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if not (self.c0 > 0.0):
            raise InvalidParameterError("c0", "must be positive (G(0) = 1/alpha0)")


def build_cubic(s: Scenario, alpha0: float, beta0: float) -> CubicG:
    """Cubic coefficients from initial conditions (gamma(0) = 0).

    The third derivative of G along the parameter flow is 16 Lambda after the
    alpha/beta/gamma cross terms cancel.
    """
    if not (alpha0 > 0.0):
        raise InvalidParameterError("alpha0", "must be positive")
    c0 = 1.0 / alpha0
    c1 = -4.0 * beta0 / alpha0
    c2 = 4.0 * (alpha0 + beta0 * beta0 / alpha0)
    c3 = (8.0 / 3.0) * s.lam
    return CubicG(c0, c1, c2, c3)


def eval_G(g: CubicG, t) -> float | np.ndarray:
    return g.c0 + t * (g.c1 + t * (g.c2 + t * g.c3))


def eval_G_dot(g: CubicG, t) -> float | np.ndarray:
    return g.c1 + t * (2.0 * g.c2 + t * 3.0 * g.c3)


def eval_int_G(g: CubicG, t) -> float | np.ndarray:
    """int_0^t G, exact (G is polynomial)."""
    return t * (g.c0 + t * (g.c1 / 2.0 + t * (g.c2 / 3.0 + t * g.c3 / 4.0)))


def gamma_exact(g: CubicG, s: Scenario, t) -> float | np.ndarray:
    return (2.0 * s.lam) * eval_int_G(g, t) / eval_G(g, t)


def params_exact(g: CubicG, s: Scenario, t: float) -> GaussianParams:
    """Closed-form parameter set at time t. delta is slaved to normalization:
    exp(delta) = sqrt(2 alpha / pi) keeps the tau-integral of |a|^2 at one."""
    G = eval_G(g, t)
    if not math.isfinite(G):
        raise InvalidParameterError("t", f"G(t) = {G} not finite at t = {t}")
    if G <= 0.0:
        raise InvalidParameterError("t", f"G(t) = {G} not positive at t = {t}")
    alpha = 1.0 / G
    beta = -0.25 * eval_G_dot(g, t) / G
    gamma = (2.0 * s.lam) * eval_int_G(g, t) / G
    if not math.isfinite(gamma):  # int_0^t G overflows before G does
        raise InvalidParameterError("t", f"gamma(t) = {gamma} not finite at t = {t}")
    delta = 0.5 * math.log(2.0 * alpha / math.pi)
    return GaussianParams(alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def coherence_exact(g: CubicG, s: Scenario, t) -> float | np.ndarray:
    """Off-diagonal 1/e scale 1/sqrt(alpha + gamma) = sqrt(G / (1 + 2 Lambda int G))."""
    return np.sqrt(eval_G(g, t) / (1.0 + (2.0 * s.lam) * eval_int_G(g, t)))


def ensemble_width_exact(g: CubicG, t) -> float | np.ndarray:
    """Position spread of the diagonal density, sqrt(G)/2."""
    return np.sqrt(eval_G(g, t)) / 2.0


def sigma_profile(p: GaussianParams) -> tuple[float, float]:
    """Gaussian standard deviations of |rho| along y and z."""
    return 1.0 / math.sqrt(p.alpha + p.gamma), 1.0 / math.sqrt(p.alpha)


def density_matrix_exact(p: GaussianParams, grid: GridSpec2D) -> ComplexField2D:
    """Sample rho(y, z) = exp(delta - (alpha/2)(z^2+y^2) - i beta y z - (gamma/2) y^2)
    at t = 0.

    Pure closed-form sample, chirped or not, no renormalization and no grid
    check: the tests' reference for master_eq.init_gaussian_rho's product.
    """
    y = grid.axis_y.points()[:, None]
    z = grid.axis_z.points()[None, :]
    expo = (
        p.delta
        - 0.5 * p.alpha * (z * z + y * y)
        - 1j * p.beta * y * z
        - 0.5 * p.gamma * y * y
    )
    return ComplexField2D(np.exp(expo), grid, 0.0)
