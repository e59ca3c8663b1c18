"""Split-step spectral solver for the collisional-decoherence master equation.

    drho/dt = (2 i hbar / m) d^2 rho / dy dz - (Lambda / hbar) y^2 rho

on a periodic (y, z) grid. Strang splitting: half-step of the local decay
factor exp(-(Lambda/hbar) y^2 dt/2), full kinetic step in Fourier space where
d^2/dy dz is the diagonal multiplier -k_y k_z, half-step of the decay factor
again. Both factors are exact, so the only time error is the O(dt^2)
non-commutativity of the pair. The decay factor is unity on y = 0 and the
kinetic multiplier is unity on k_z = 0, so the trace is conserved to round-off
step by step.

Segments. The decay factor acts on y alone, so it commutes with the Fourier
transform along z. evolve_master_eq therefore advances each sample interval
as one segment: a decay half-step and fft2 open it, then each interior step
applies the kinetic multiplier, a y-iFFT, one fused full decay step and a
y-FFT, with the field held as a C-contiguous (k_z, k_y) array so the
y-transforms run on the contiguous axis; the last kinetic multiplier, ifft2
and a decay half-step close it. A one-step segment is the plain 2-D Strang
step, with no interior. The scheme, dt and O(dt^2) error are those of
step-by-step Strang; only the order of the transforms differs, which moves
the results of longer segments by about 1e-14 relative.

Resume contract. Segments end only at sample steps and at the final step,
and the field leaves a segment C-contiguous (the observables sum in memory
order). A checkpoint taken at a sample step is a segment boundary, so a run
resumed from it reproduces the uninterrupted run's rows bit for bit, for any
checkpoint cadence. A checkpoint inside a segment is a real-space copy of the
segment's state; the segment goes on from its own state, so taking the copy
does not perturb the run.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ComplexField2D
from .gaussian import GaussianParams, density_matrix_exact, sigma_profile
from .marginal_dynamics import IntegrationError, sample_grid
from .observables import (
    ObservableSample,
    coherence_from_rho,
    ensemble_width_from_rho,
    purity,
    trace_of,
)
from .scenario import GridSpec2D, NumericsSpec, Scenario

ALIAS_THRESHOLD = 1e-6  # boundary amplitude relative to the peak


class GridSizeError(ValueError):
    pass


def init_gaussian_rho(p: GaussianParams, grid: GridSpec2D) -> ComplexField2D:
    """Gaussian initial condition at t = 0, trace-normalized on the grid.

    Refuses grids narrower than six standard deviations per axis; the closed
    form says sigma_y = 1/sqrt(alpha+gamma) and sigma_z = 1/sqrt(alpha).
    """
    sig_y, sig_z = sigma_profile(p)
    if grid.extent_y < 6.0 * sig_y or grid.extent_z < 6.0 * sig_z:
        raise GridSizeError(
            f"grid extents ({grid.extent_y:g}, {grid.extent_z:g}) below the "
            f"6-sigma minimum ({6.0 * sig_y:g}, {6.0 * sig_z:g})"
        )
    f = density_matrix_exact(p, grid)
    f.values /= trace_of(f).real
    return f


class MasterEqStepper:
    """Precomputed Strang multipliers for one (scenario, grid, dt) triple.

    The kinetic multiplier is kept in both layouts: (k_y, k_z) for the
    segment's closing step and (k_z, k_y) for its interior steps.
    """

    def __init__(self, s: Scenario, grid: GridSpec2D, dt: float):
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        self.dt = dt
        y = grid.axis_y.points()
        self._decay_half = np.exp(-(s.lam / s.hbar) * y * y * (0.5 * dt))
        self._decay = np.exp(-(s.lam / s.hbar) * y * y * dt)
        ky = grid.axis_y.wavenumbers()[None, :]
        kz = grid.axis_z.wavenumbers()[:, None]
        self._kinetic_t = np.exp(-1j * (2.0 * s.hbar / s.m) * ky * kz * dt)
        self._kinetic = np.ascontiguousarray(self._kinetic_t.T)

    def step(self, f: ComplexField2D, n: int = 1, leave=None,
             leave_at=()) -> ComplexField2D:
        """Advance n Strang steps as one segment (see the module docstring).

        leave(j, field) gets a real-space copy of the field after each step j
        in leave_at (0 < j < n), stamped f.t + j * dt.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        dh = self._decay_half
        v = np.fft.fft2(f.values * dh[:, None])
        if n > 1:
            v = np.ascontiguousarray(v.T)
            for j in range(1, n):
                v *= self._kinetic_t
                v = np.fft.ifft(v, axis=1)
                if j in leave_at:
                    leave(j, ComplexField2D(_to_real(v * dh), f.grid,
                                            f.t + j * self.dt))
                v *= self._decay
                v = np.fft.fft(v, axis=1)
            v = np.ascontiguousarray(v.T)
        v *= self._kinetic
        v = np.fft.ifft2(v)
        v *= dh[:, None]
        return ComplexField2D(v, f.grid, f.t + n * self.dt)


def _to_real(m: np.ndarray) -> np.ndarray:
    """(k_z, y) -> C-contiguous (y, z). The observables sum in memory order,
    so a resumed run reproduces the rows bit for bit only in a fixed layout."""
    return np.ascontiguousarray(np.fft.ifft(np.ascontiguousarray(m.T), axis=1))


def boundary_leak(values: np.ndarray) -> float:
    """Largest edge amplitude relative to the peak; the aliasing sentinel."""
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return 0.0
    edges = max(
        float(np.max(np.abs(values[0, :]))),
        float(np.max(np.abs(values[-1, :]))),
        float(np.max(np.abs(values[:, 0]))),
        float(np.max(np.abs(values[:, -1]))),
    )
    return edges / peak


def _sample(f: ComplexField2D, fit_window: int) -> ObservableSample:
    return ObservableSample(
        t=f.t,
        coherence_length=coherence_from_rho(f, fit_window),
        ensemble_width=ensemble_width_from_rho(f),
        purity=purity(f),
        norm=trace_of(f).real,
        flags=("aliasing",) if boundary_leak(f.values) > ALIAS_THRESHOLD else (),
    )


def evolve_master_eq(
    f: ComplexField2D,
    s: Scenario,
    numerics: NumericsSpec,
    observers=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
) -> tuple[list[ObservableSample], ComplexField2D]:
    """Evolve from f.t to numerics.t_end, sampling f, every step on a
    multiple of sample_every counted from t = 0 (see sample_grid) and the
    last step; a run resumed from any step keeps the time grid of a run from
    t = 0.

    observers: optional iterable of callables, each called with the field at
    every sample, after it is sampled. checkpoint_every > 0 hands the field
    to checkpoint_sink (callable, gets the current ComplexField2D) every that
    many steps. Each sample interval is one stepper segment; the finite check
    runs at its end and before each checkpoint, so no non-finite field
    reaches the sink.
    """
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    stepper = MasterEqStepper(s, f.grid, numerics.dt)
    ks = sample_grid(f.t, numerics.t_end, numerics.dt, numerics.sample_every)

    def observe(fld: ComplexField2D) -> ObservableSample:
        smp = _sample(fld, numerics.fit_window)
        for obs in observers or ():
            obs(fld)
        return smp

    t_start = f.t
    ckpt = checkpoint_every if checkpoint_sink else 0
    samples = [observe(f)]

    def leave(j: int, c: ComplexField2D) -> None:
        # runs inside stepper.step, while k is still the segment's first step
        c.t = t_start + (k + j) * numerics.dt
        if not np.isfinite(c.values[0, 0]):
            raise IntegrationError(c.t, "field blew up")
        checkpoint_sink(c)

    for k, stop in zip(ks, ks[1:]):
        # one segment per sample interval; checkpoints inside it get copies
        n = stop - k
        inner = [j for j in range(1, n) if ckpt and (k + j) % ckpt == 0]
        f = stepper.step(f, n, leave, inner)
        f.t = t_start + stop * numerics.dt  # stamp from the step count, no drift
        if not np.isfinite(f.values[0, 0]):
            raise IntegrationError(f.t, "field blew up")
        samples.append(observe(f))
        if ckpt and stop % ckpt == 0:
            checkpoint_sink(f)

    return samples, f


def suggest_extents(s: Scenario, alpha0: float, beta0: float, t_end: float) -> tuple[float, float]:
    """6-sigma box sized from the closed-form spread at t_end. The coherence
    scale only shrinks, so the y extent follows the initial state. Both
    extents are at least the initial 6-sigma minimum that init_gaussian_rho
    checks, evaluated with the same expression, so they never round below it."""
    from .gaussian import build_cubic, eval_G

    g = build_cubic(s, alpha0, beta0)
    sig_y, sig_z = sigma_profile(GaussianParams(alpha=alpha0, beta=beta0, gamma=0.0, delta=0.0))
    ext_y = 6.0 * sig_y
    ext_z = 6.0 * max(math.sqrt(float(eval_G(g, t_end))), sig_z)
    return ext_y, ext_z
