"""Direct integration of the Gaussian parameter flow.

Two drivers run one fixed-step RK4 loop, _rk4, which writes the equations
of alpha and beta once: integrate_closed_system evolves gamma with them as a
state, integrate_prescribed_gamma takes gamma = gamma_l(t) at each stage
time, so only (alpha, beta) move. Both start from the scenario's pure,
unchirped packet and sample on the grid of sample_grid, which the grid and
wavefunction routes share.

delta never enters a right-hand side: normalization pins exp(delta) =
sqrt(2 alpha / pi), and d(delta)/dt = 2 beta is exactly d(ln alpha)/2
along either flow, so delta is reported analytically from alpha. Fixed step
keeps runs bit-reproducible; no adaptive control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .gaussian import build_cubic, gamma_exact
from .scenario import InvalidParameterError, Scenario


class IntegrationError(RuntimeError):
    """Raised when the state leaves its admissible region (alpha <= 0, NaN)."""

    def __init__(self, t: float, message: str):
        self.t = t
        super().__init__(f"t = {t:g}: {message}")


def sample_grid(t_start: float, t_end: float, dt: float,
                sample_every: int) -> list[int]:
    """Sampled step indices from t_start to t_end, counted from t = 0.

    Step k lies at k * dt. The samples are the start step, every later step
    on a multiple of sample_every and the last step, so a run resumed from
    any step shares the time grid of the run that started at t = 0. A
    t_start not finite or below 0, a t_end / dt not finite and either end
    more than 4 ulps off the dt grid raise ValueError.
    """
    if sample_every < 1:
        raise InvalidParameterError("sample_every", "must be >= 1")
    if not math.isfinite(t_start):
        raise ValueError(f"field time {t_start!r} is not finite")
    if t_start < 0.0:
        raise ValueError(f"field time {t_start!r} is before t = 0")
    if not math.isfinite(t_end / dt):
        raise ValueError(f"t_end = {t_end!r} is not a finite number of dt = {dt!r} steps")
    k0, last = int(round(t_start / dt)), int(round(t_end / dt))
    if last < k0:
        raise IntegrationError(t_start, "t_end precedes the start time")
    for name, t, k in (("field time", t_start, k0), ("t_end =", t_end, last)):
        if abs(t - k * dt) > 4 * math.ulp(t):  # else the stamps or the end would move
            raise ValueError(f"{name} {t!r} is not on the dt = {dt!r} grid")
    first = (k0 // sample_every + 1) * sample_every  # the first multiple past k0
    ks = [k0, *range(first, last + 1, sample_every)]
    if ks[-1] != last:
        ks.append(last)
    return ks


# Prescribed decoherence couplings gamma_l(t), each a plain function of t.

def exact_closure(s: Scenario) -> Callable[[float], float]:
    """The closed-form gamma(t) of the exact flow."""
    g = build_cubic(s, s.alpha0, 0.0)
    return lambda t: float(gamma_exact(g, s, t))


def linear_short(s: Scenario) -> Callable[[float], float]:
    """Early-time tangent 2 Lambda t."""
    slope = 2.0 * s.lam
    return lambda t: slope * t


def linear_long(s: Scenario) -> Callable[[float], float]:
    """Late-time tangent c2 / 16 + (Lambda / 2) t."""
    # The offset is the residue of the early-time memory in the long-time
    # expansion of the exact quadrature. c2 comes from the same cubic that
    # the closed form uses.
    c2 = build_cubic(s, s.alpha0, 0.0).c2
    const = c2 / 16.0
    slope = 0.5 * s.lam
    return lambda t: const + slope * t


@dataclass
class ParamTrajectory:
    """Sampled parameter history, delta = ln(2 alpha / pi) / 2 throughout."""

    t: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


def _delta_of(alpha: np.ndarray) -> np.ndarray:
    return 0.5 * np.log(2.0 * alpha / math.pi)


def _rk4(s: Scenario, dt: float, t_end: float, sample_every: int,
         gamma_l: Callable[[float], float] | None = None
         ) -> tuple[list, list, list, list]:
    """Hand-unrolled scalar RK4 of alpha' = 4 alpha beta,
    beta' = 2 (beta^2 - alpha^2 - alpha gamma) from the scenario's pure,
    unchirped packet (alpha, beta) = (s.alpha0, 0); returns the sampled
    (t, a, b, g) lists.

    With gamma_l None, gamma is the state g, from g = 0, with
    gamma' = 4 beta gamma + 2 Lambda. Otherwise gamma = gamma_l(t), called
    once per distinct stage time (t, t + dt/2, t + dt), and g stays 0.
    Scalar floats and no call per stage keep the hot loop cheap. A step that
    ends with alpha <= 0 or a non-finite alpha or beta raises
    IntegrationError stamped with its end time.
    """
    if not 0.0 < dt < math.inf:
        raise InvalidParameterError("dt", "must be positive and finite")
    if not math.isfinite(t_end):
        raise InvalidParameterError("t_end", "must be finite")
    ks = sample_grid(0.0, t_end, dt, sample_every)
    a, b, c_g = s.alpha0, 0.0, 2.0 * s.lam
    h, w, inf = 0.5 * dt, dt / 6.0, math.inf
    closed, g = gamma_l is None, 0.0
    ts, al, be, ga = [0.0], [a], [b], [g]
    k = 0
    for stop in ks[1:]:
        while k < stop:
            if closed:
                c1 = g
            else:
                t = k * dt
                c1 = gamma_l(t)
                c2 = c3 = gamma_l(t + h)
                c4 = gamma_l(t + dt)
            a1 = 4.0 * a * b
            b1 = 2.0 * (b * b - a * a - a * c1)
            x, y = a + h * a1, b + h * b1
            if closed:
                g1 = 4.0 * b * g + c_g
                c2 = g + h * g1
            a2 = 4.0 * x * y
            b2 = 2.0 * (y * y - x * x - x * c2)
            if closed:
                g2 = 4.0 * y * c2 + c_g
                c3 = g + h * g2
            x, y = a + h * a2, b + h * b2
            a3 = 4.0 * x * y
            b3 = 2.0 * (y * y - x * x - x * c3)
            if closed:
                g3 = 4.0 * y * c3 + c_g
                c4 = g + dt * g3
            x, y = a + dt * a3, b + dt * b3
            a4 = 4.0 * x * y
            b4 = 2.0 * (y * y - x * x - x * c4)
            if closed:
                g4 = 4.0 * y * c4 + c_g
                g += w * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
            a += w * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            b += w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            k += 1
            if not (0.0 < a < inf and -inf < b < inf):
                raise IntegrationError(
                    k * dt, f"state left admissible region (alpha = {a!r})")
        ts.append(k * dt); al.append(a); be.append(b); ga.append(g)
    return ts, al, be, ga


def _trajectory(ts: list, al: list, be: list, ga: list) -> ParamTrajectory:
    al = np.array(al)
    return ParamTrajectory(np.array(ts), al, np.array(be), np.array(ga), _delta_of(al))


def integrate_closed_system(s: Scenario, dt: float, t_end: float,
                            sample_every: int = 1) -> ParamTrajectory:
    """RK4 on the closed (alpha, beta, gamma) flow from gamma(0) = 0."""
    return _trajectory(*_rk4(s, dt, t_end, sample_every))


def integrate_prescribed_gamma(s: Scenario, gamma_l: Callable[[float], float],
                               dt: float, t_end: float,
                               sample_every: int = 1) -> ParamTrajectory:
    """RK4 on (alpha, beta) with gamma_l(t) prescribed; the gamma column of the
    result reports gamma_l at the sample times."""
    ts, al, be, _ = _rk4(s, dt, t_end, sample_every, gamma_l)
    return _trajectory(ts, al, be, [gamma_l(t) for t in ts])
