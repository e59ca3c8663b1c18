"""Direct integration of the Gaussian parameter flow.

Two drivers share one fixed-step RK4 core on (alpha, beta, gamma):
integrate_closed_system evolves the full set, integrate_prescribed_gamma
freezes the decoherence coupling to a prescribed gamma_l(t), so its gamma
slot has zero rate and only (alpha, beta) move. Both sample on the grid of
sample_grid, which the grid and wavefunction routes share.

delta never enters a right-hand side: normalization pins exp(delta) =
sqrt(2 alpha / pi), and d(delta)/dt = (2 hbar/m) beta is exactly d(ln alpha)/2
along either flow, so delta is reported analytically from alpha. Fixed step
keeps runs bit-reproducible; no adaptive control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import CubicG, build_cubic, gamma_exact
from .scenario import InvalidParameterError, Scenario


class IntegrationError(RuntimeError):
    """Raised when the state leaves its admissible region (alpha <= 0, NaN)."""

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"t = {t:g}: {message}")


def sample_grid(t_start: float, t_end: float, dt: float,
                sample_every: int) -> list[int]:
    """Sampled step indices from t_start to t_end; the last one is the step
    count.

    Step k is stamped t_start + k * dt. The samples are step 0, every step
    that lands on a multiple of sample_every counted from t = 0 (not from
    t_start), and the last step, so a run resumed from any step shares the
    time grid of the run that started at t = 0.
    """
    n_steps = int(round((t_end - t_start) / dt))
    if n_steps < 0:
        raise IntegrationError(t_start, "t_end precedes the start time")
    k0 = int(round(t_start / dt))
    ks = [0] + [k for k in range(1, n_steps + 1) if (k0 + k) % sample_every == 0]
    if ks[-1] != n_steps:
        ks.append(n_steps)
    return ks


@dataclass(frozen=True)
class GammaModel:
    """Prescribed decoherence coupling gamma_l(t).

    kinds: 'exact-closure' (quadrature closed form), 'linear-short'
    (2 Lambda (t - t0) / hbar), 'linear-long' (late-time tangent with constant
    offset), 'user' (arbitrary callable).
    """

    kind: str
    scenario: Scenario | None = None
    cubic: CubicG | None = None
    t0: float = 0.0
    const: float = 0.0   # linear-long offset
    slope: float = 0.0   # linear slope in t
    fn: Callable[[float], float] | None = None

    @staticmethod
    def exact_closure(s: Scenario, alpha0: float, beta0: float) -> "GammaModel":
        return GammaModel(kind="exact-closure", scenario=s,
                          cubic=build_cubic(s, alpha0, beta0))

    @staticmethod
    def linear_short(s: Scenario, t0: float = 0.0) -> "GammaModel":
        return GammaModel(kind="linear-short", t0=t0, slope=2.0 * s.lam / s.hbar)

    @staticmethod
    def linear_long(s: Scenario, alpha0: float, beta0: float) -> "GammaModel":
        # Offset c2 m^2 / (16 hbar^2): the residue of the early-time memory in
        # the long-time expansion of the exact quadrature. c2 comes from the
        # same cubic that the closed form uses.
        c2 = build_cubic(s, alpha0, beta0).c2
        const = c2 * s.m * s.m / (16.0 * s.hbar * s.hbar)
        return GammaModel(kind="linear-long", const=const, slope=0.5 * s.lam / s.hbar)

    @staticmethod
    def user(fn: Callable[[float], float]) -> "GammaModel":
        return GammaModel(kind="user", fn=fn)


def gamma_model_eval(gm: GammaModel, t: float) -> float:
    if gm.kind == "exact-closure":
        return float(gamma_exact(gm.cubic, gm.scenario, t))
    if gm.kind == "linear-short":
        return gm.slope * (t - gm.t0)
    if gm.kind == "linear-long":
        return gm.const + gm.slope * t
    if gm.kind == "user":
        return gm.fn(t)
    raise InvalidParameterError("kind", f"unknown gamma model {gm.kind!r}")


@dataclass
class ParamTrajectory:
    """Sampled parameter history, delta = ln(2 alpha / pi) / 2 throughout."""

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def _check_state(t: float, alpha: float, beta: float) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta)) or alpha <= 0.0:
        raise IntegrationError(t, f"state left admissible region (alpha = {alpha!r})")


def _delta_of(alpha: np.ndarray) -> np.ndarray:
    return 0.5 * np.log(2.0 * alpha / math.pi)


def _rk4(rhs, a: float, b: float, g: float, dt: float, t_end: float,
         sample_every: int) -> tuple[list, list, list, list]:
    """Hand-unrolled scalar RK4 on (a, b, g) with rhs(t, a, b, g); returns the
    sampled (t, a, b, g) lists. Scalar floats keep the hot loop cheap."""
    if dt <= 0.0:
        raise InvalidParameterError("dt", "must be positive")
    if a <= 0.0:
        raise InvalidParameterError("alpha0", "must be positive")
    ks = sample_grid(0.0, t_end, dt, sample_every)
    h, w = 0.5 * dt, dt / 6.0
    ts, al, be, ga = [0.0], [a], [b], [g]
    k = 0
    for stop in ks[1:]:
        while k < stop:
            t = k * dt
            a1, b1, g1 = rhs(t, a, b, g)
            a2, b2, g2 = rhs(t + h, a + h * a1, b + h * b1, g + h * g1)
            a3, b3, g3 = rhs(t + h, a + h * a2, b + h * b2, g + h * g2)
            a4, b4, g4 = rhs(t + dt, a + dt * a3, b + dt * b3, g + dt * g3)
            a += w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            b += w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            g += w * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            k += 1
            _check_state(k * dt, a, b)
        ts.append(k * dt); al.append(a); be.append(b); ga.append(g)
    return ts, al, be, ga


def _trajectory(ts: list, al: list, be: list, ga: list) -> ParamTrajectory:
    al = np.array(al)
    return ParamTrajectory(np.array(ts), al, np.array(be), np.array(ga), _delta_of(al))


def integrate_closed_system(
    s: Scenario,
    alpha0: float,
    beta0: float,
    dt: float,
    t_end: float,
    sample_every: int = 1,
) -> ParamTrajectory:
    """RK4 on the closed (alpha, beta, gamma) flow from gamma(0) = 0."""
    c_ab = 4.0 * s.hbar / s.m     # alpha coupling
    c_b = 2.0 * s.hbar / s.m      # beta coupling
    c_g = 2.0 * s.lam / s.hbar    # gamma source

    def rhs(t, a, b, g):
        return (c_ab * a * b,
                c_b * (b * b - a * a - a * g),
                c_ab * b * g + c_g)

    return _trajectory(*_rk4(rhs, float(alpha0), float(beta0), 0.0, dt, t_end,
                             sample_every))


def integrate_prescribed_gamma(
    s: Scenario,
    alpha0: float,
    beta0: float,
    gm: GammaModel,
    dt: float,
    t_end: float,
    sample_every: int = 1,
) -> ParamTrajectory:
    """RK4 on (alpha, beta) with gamma_l(t) prescribed; the gamma column of the
    result reports gamma_l at the sample times."""
    c_ab = 4.0 * s.hbar / s.m
    c_b = 2.0 * s.hbar / s.m

    def rhs(t, a, b, _g):
        g = gamma_model_eval(gm, t)
        return c_ab * a * b, c_b * (b * b - a * a - a * g), 0.0

    ts, al, be, _ = _rk4(rhs, float(alpha0), float(beta0), 0.0, dt, t_end,
                         sample_every)
    return _trajectory(ts, al, be, [gamma_model_eval(gm, t) for t in ts])
