"""Split-step solver for the marginal-wavefunction equation with a
time-growing logarithmic self-coupling:

    i da/dt = -(hbar / 2m) d^2 a / d tau^2 + (2 Lambda / m)(t - t0) ln|a|^2 a

(the potential is eps / hbar with eps = (2 hbar Lambda / m)(t - t0) ln|a|^2).
Both Strang factors preserve the L2 norm exactly: the kinetic factor is a
unimodular Fourier multiplier and the potential factor is a pure local phase,
|a| being invariant under it. The potential half-steps evaluate the coupling
at t + dt/4 and t + 3 dt/4; for a coupling linear in t the midpoint value
integrates the prefactor exactly, keeping the scheme second order despite the
explicit time dependence. The logarithm is floored at a small fraction of the
peak amplitude so exact zeros stay finite; the floored region carries weight
of order floor^2 and never feeds back on the bulk.

The positive-coupling branch is unbounded (the effective potential deepens
with time and the packet spreads without limit); only a negative static
coupling admits the stationary Gaussian used as a sanity check in the tests.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .fields import ComplexField1D
from .gaussian import GaussianParams
from .marginal_dynamics import IntegrationError, sample_grid
from .observables import ObservableSample, ensemble_width_from_a, fit_gaussian_alpha_beta
from .scenario import GridSpec1D, InvalidParameterError, NumericsSpec, Scenario


def init_gaussian_a(p: GaussianParams, grid: GridSpec1D, t: float = 0.0) -> ComplexField1D:
    """a(tau) = exp(delta/2 - (alpha + i beta) tau^2), renormalized on the grid."""
    tau = grid.points()
    vals = np.exp(0.5 * p.delta - (p.alpha + 1j * p.beta) * tau * tau)
    f = ComplexField1D(vals, grid, t)
    f.values /= f.norm()
    return f


def default_coupling(s: Scenario) -> Callable[[float], float]:
    """Phase-rate prefactor (2 Lambda / m)(t - t0) of the log potential."""
    return lambda t: (2.0 * s.lam / s.m) * (t - s.t0)


def floored_log_density(values: np.ndarray, ln_floor: float) -> np.ndarray:
    """ln max(|a|^2, floor^2) with floor = ln_floor * max|a|."""
    amp2 = np.abs(values) ** 2
    peak = float(np.max(amp2))
    if peak == 0.0:
        raise InvalidParameterError("a", "field is identically zero")
    return np.log(np.maximum(amp2, (ln_floor ** 2) * peak))


def epsilon_of(a: ComplexField1D, s: Scenario, t: float | None = None,
               ln_floor: float = 1e-15) -> np.ndarray:
    """eps(tau) = (2 hbar Lambda / m)(t - t0) ln max(|a|^2, floor^2)."""
    when = a.t if t is None else t
    return s.hbar * default_coupling(s)(when) * floored_log_density(a.values, ln_floor)


class LseStepper:
    """Strang stepper; coupling defaults to the decoherence form but can be
    overridden (e.g. a negative constant for the stationary-Gaussian check)."""

    def __init__(self, s: Scenario, grid: GridSpec1D, dt: float,
                 ln_floor: float = 1e-15,
                 coupling: Callable[[float], float] | None = None):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.scenario = s
        self.grid = grid
        self.dt = dt
        self.ln_floor = ln_floor
        self.coupling = coupling if coupling is not None else default_coupling(s)
        k = grid.wavenumbers()
        self._kinetic = np.exp(-1j * (s.hbar / (2.0 * s.m)) * k * k * dt)

    def _phase_half(self, values: np.ndarray, t_mid: float) -> np.ndarray:
        rate = self.coupling(t_mid)
        log_density = floored_log_density(values, self.ln_floor)
        return values * np.exp(-1j * rate * log_density * (0.5 * self.dt))

    def step(self, a: ComplexField1D) -> ComplexField1D:
        dt = self.dt
        v = self._phase_half(a.values, a.t + 0.25 * dt)
        v = np.fft.ifft(self._kinetic * np.fft.fft(v))
        v = self._phase_half(v, a.t + 0.75 * dt)
        return ComplexField1D(v, a.grid, a.t + dt, a.flags)


def _sample(a: ComplexField1D, fit_window: int, gamma_l: float) -> ObservableSample:
    alpha_fit, beta_fit = fit_gaussian_alpha_beta(a, fit_window)
    scale = alpha_fit + gamma_l
    return ObservableSample(
        t=a.t,
        coherence_length=1.0 / math.sqrt(scale) if scale > 0.0 else float("nan"),
        ensemble_width=ensemble_width_from_a(a),
        purity=float("nan"),  # pure state by construction; kernel not tracked here
        norm=a.norm(),
        flags=a.flags,
        extras={"alpha_fit": alpha_fit, "beta_fit": beta_fit},
    )


def evolve_lse(
    a: ComplexField1D,
    s: Scenario,
    numerics: NumericsSpec,
    coupling: Callable[[float], float] | None = None,
    keep_fields: bool = False,
) -> tuple[list[ObservableSample], list[ComplexField1D]]:
    """Evolve to numerics.t_end, sampling the start, every step on a multiple
    of sample_every counted from t = 0 (see sample_grid) and the last step.
    Returns (samples, fields); fields holds the sampled snapshots when
    keep_fields, otherwise just the final state."""
    stepper = LseStepper(s, a.grid, numerics.dt, numerics.ln_floor, coupling)
    ks = sample_grid(a.t, numerics.t_end, numerics.dt, numerics.sample_every)
    gamma_rate = 2.0 * s.lam / s.hbar  # gamma_l implied by the default coupling

    def gamma_l(t: float) -> float:
        return gamma_rate * (t - s.t0) if coupling is None else 0.0

    t_start = a.t
    samples = [_sample(a, numerics.fit_window, gamma_l(a.t))]
    fields = [a] if keep_fields else []
    k = 0
    for stop in ks[1:]:
        while k < stop:
            a = stepper.step(a)
            k += 1
            a.t = t_start + k * numerics.dt
            if not np.all(np.isfinite(a.values)):
                raise IntegrationError(a.t, "field blew up")
        samples.append(_sample(a, numerics.fit_window, gamma_l(a.t)))
        if keep_fields:
            fields.append(a)
    if not keep_fields:
        fields = [a]
    return samples, fields


def marginalme_residual(
    a_series: Sequence[ComplexField1D],
    s: Scenario,
    ln_floor: float = 1e-15,
    lam_override: float | None = None,
    index: int | None = None,
) -> float:
    """Residual of the marginal-density-matrix equation of motion on a sampled
    wavefunction trajectory.

    Builds rho_m(tau, tau') = a(tau) conj(a(tau')) from three consecutive
    snapshots, differences the outer two for d rho_m/dt, and evaluates the
    right-hand side on the middle one: spectral kinetic cross-derivative plus
    the potential difference -(i/hbar)[eps(tau) - eps(tau')] rho_m, which is
    how the prescribed linear coupling acts on the marginal. Returns
    max |lhs - rhs| / max |rho_m|. lam_override replaces Lambda inside the
    evaluator only (negative control: a mismatched coupling inflates the
    residual by orders of magnitude).
    """
    if len(a_series) < 3:
        raise InvalidParameterError("a_series", "need at least three snapshots")
    i = len(a_series) // 2 if index is None else index
    if not (1 <= i <= len(a_series) - 2):
        raise InvalidParameterError("index", "need neighbors on both sides")
    am, ac, ap = a_series[i - 1], a_series[i], a_series[i + 1]
    dt_m, dt_p = ac.t - am.t, ap.t - ac.t
    if not math.isclose(dt_m, dt_p, rel_tol=1e-9):
        raise InvalidParameterError("a_series", "snapshots not equally spaced in t")

    def outer(f: ComplexField1D) -> np.ndarray:
        return f.values[:, None] * np.conj(f.values)[None, :]

    rho = outer(ac)
    rho_dot = (outer(ap) - outer(am)) / (dt_p + dt_m)

    k = ac.grid.wavenumbers()
    a2 = np.fft.ifft(-(k * k) * np.fft.fft(ac.values))
    kin = (0.5j * s.hbar / s.m) * (
        a2[:, None] * np.conj(ac.values)[None, :]
        - ac.values[:, None] * np.conj(a2)[None, :]
    )

    s_eval = s if lam_override is None else Scenario(
        m=s.m, hbar=s.hbar, lam=lam_override, b=s.b, sigma=s.sigma, t0=s.t0, label=s.label
    )
    eps_over_h = epsilon_of(ac, s_eval, ln_floor=ln_floor) / s.hbar
    pot = -1j * (eps_over_h[:, None] - eps_over_h[None, :]) * rho

    denom = float(np.max(np.abs(rho)))
    return float(np.max(np.abs(rho_dot - kin - pot)) / denom)
