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
as one segment: decay half-step and z-FFT once, then per step a y-FFT pair
around the kinetic multiplier and one fused full decay step, with the field
held as a C-contiguous (k_z, y) array so the y-transforms run on the
contiguous axis; the last step takes a decay half-step and the z-transform is
undone once. A single-step segment is the plain 2-D Strang step. The scheme,
dt and O(dt^2) error are those of step-by-step Strang; only the order of the
transforms differs, which moves results by about 1e-14 relative.

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
from dataclasses import dataclass

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


def init_gaussian_rho(p: GaussianParams, grid: GridSpec2D, t: float = 0.0) -> ComplexField2D:
    """Gaussian initial condition, trace-normalized on the grid.

    Refuses grids narrower than six standard deviations per axis; the closed
    form says sigma_y = 1/sqrt(alpha+gamma) and sigma_z = 1/sqrt(alpha).
    """
    sig_y, sig_z = sigma_profile(p)
    if grid.extent_y < 6.0 * sig_y or grid.extent_z < 6.0 * sig_z:
        raise GridSizeError(
            f"grid extents ({grid.extent_y:g}, {grid.extent_z:g}) below the "
            f"6-sigma minimum ({6.0 * sig_y:g}, {6.0 * sig_z:g})"
        )
    f = density_matrix_exact(p, grid, t)
    tr = trace_of(f)
    f.values /= tr.real
    return ComplexField2D(f.values, grid, t)


class MasterEqStepper:
    """Precomputed Strang multipliers for one (scenario, grid, dt) triple.

    The kinetic multiplier is kept in both layouts: (k_y, k_z) for the plain
    2-D step and (k_z, k_y) for segments, whose field is held as (k_z, y).
    """

    def __init__(self, s: Scenario, grid: GridSpec2D, dt: float):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.scenario = s
        self.grid = grid
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
        """Advance n Strang steps as one segment (see the module docstring);
        n = 1 is the plain 2-D Strang step.

        leave(j, field) gets a real-space copy of the field after each step j
        in leave_at (0 < j < n), stamped f.t + j * dt.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        dh = self._decay_half
        if n == 1:
            # the 2-D pair reproduces step-by-step Strang bit for bit, so runs
            # sampled every step keep their output bytes, and perfbench counts
            # two fft2/ifft2 calls per step. Not kept for speed: the 1-D path
            # below takes as long for one step (256^2 and 512^2 alike).
            v = np.fft.fft2(f.values * dh[:, None])
            v *= self._kinetic
            v = np.fft.ifft2(v)
            v *= dh[:, None]
            return ComplexField2D(v, f.grid, f.t + self.dt, f.flags)
        m = np.ascontiguousarray(np.fft.fft(f.values * dh[:, None], axis=1).T)
        for j in range(1, n):
            m = self._kinetic_y(m)
            if j in leave_at:
                leave(j, ComplexField2D(_to_real(m * dh), f.grid,
                                        f.t + j * self.dt, f.flags))
            m *= self._decay
        m = self._kinetic_y(m)
        m *= dh
        return ComplexField2D(_to_real(m), f.grid, f.t + n * self.dt, f.flags)

    def _kinetic_y(self, m: np.ndarray) -> np.ndarray:
        """Kinetic step on a (k_z, y) field: y-FFT pair on the contiguous
        axis around the transposed multiplier."""
        m = np.fft.fft(m, axis=1)
        m *= self._kinetic_t
        return np.fft.ifft(m, axis=1)


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
    flags = list(f.flags)
    if boundary_leak(f.values) > ALIAS_THRESHOLD:
        flags.append("aliasing")
    return ObservableSample(
        t=f.t,
        coherence_length=coherence_from_rho(f, fit_window),
        ensemble_width=ensemble_width_from_rho(f),
        purity=purity(f),
        norm=trace_of(f).real,
        flags=tuple(flags),
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

    observers: optional iterable of callables field -> dict, merged into each
    sample's extras. checkpoint_every > 0 hands the field to checkpoint_sink
    (callable, gets the current ComplexField2D) every that many steps. Each
    sample interval is one stepper segment; the finite check runs at its end
    and before each checkpoint, so no non-finite field reaches the sink.
    """
    stepper = MasterEqStepper(s, f.grid, numerics.dt)
    ks = sample_grid(f.t, numerics.t_end, numerics.dt, numerics.sample_every)

    def observe(fld: ComplexField2D) -> ObservableSample:
        smp = _sample(fld, numerics.fit_window)
        for obs in observers or ():
            smp.extras.update(obs(fld))
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

    if boundary_leak(f.values) > ALIAS_THRESHOLD:
        f.flags = tuple(set(f.flags) | {"aliasing"})
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
