"""Split-step solver for the marginal-wavefunction equation with a
time-dependent logarithmic self-coupling:

    i da/dt = -(1/2) d^2 a / d tau^2 + gamma_l(t) ln|a|^2 a

in the fixed natural units hbar = m = 1, where gamma_l is a prescribed
decoherence coupling, the same callable that integrate_prescribed_gamma
integrates (marginal_dynamics; linear_short by default). The potential is
eps = gamma_l ln|a|^2.
Both Strang factors preserve the L2 norm exactly: the kinetic factor is a
unimodular Fourier multiplier and the potential factor is a pure local phase,
|a| being invariant under it. The potential half-steps evaluate gamma_l at
t + dt/4 and t + 3 dt/4; for a gamma_l linear in t the midpoint value
integrates the prefactor exactly, keeping the scheme second order despite the
explicit time dependence. The logarithm is floored at a small fraction of the
peak amplitude so exact zeros stay finite; the floored region carries weight
of order floor^2 and never feeds back on the bulk. This is the regularised
splitting of Bao, Carles, Su & Tang, Numer. Math. 143, 461 (2019).

Segments. The phase factor leaves |a| unchanged, so the closing half-step of
one step and the opening half-step of the next act on the same |a| and fuse
into one factor exp(-i (gamma_l(t + 3dt/4) + gamma_l(t + 5dt/4))
ln max(|a|^2, floor^2) dt/2). evolve_lse therefore advances each sample
interval as one segment: an opening half-step, then per step a kinetic FFT
pair followed by the fused factor (the closing half-step alone after the
last), which halves the log and exp evaluations. A one-step segment is the
plain Strang step, bit for bit; longer segments differ from step-by-step
Strang only by round-off. The finite check runs after every step inside the
segment, so a blow-up is stamped at the step where the field turned
non-finite.

Buffers. A segment allocates its work arrays once, one real and two
complex, and the field moves between the complex two, so the input field is
left as it is and each segment returns an array of its own. The stepper runs
on the calling thread: its arrays hold one tau axis, far below a row block's
work minimum (master_eq.MIN_BLOCK_WORK).

Residual. marginalme_residual checks the marginal equation of motion on
rho_m = a conj(a)^T. Its lhs - rhs is a sum of six outer products
u_k conj(v_k)^T of tau vectors (see its docstring), so the n x n residual
is one (n x 6) @ (6 x n) matrix product on the calling thread.

A positive gamma_l is unbounded (the effective potential deepens with time
and the packet spreads without limit); only a negative constant gamma_l
admits the stationary Gaussian used as a sanity check in the tests.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .fields import ComplexField1D
from .gaussian import GaussianParams
from .marginal_dynamics import IntegrationError, linear_short, sample_grid
from .observables import ObservableSample, ensemble_width_from_a, fit_gaussian_alpha_beta
from .scenario import GridSpec1D, InvalidParameterError, NumericsSpec, Scenario

LN_FLOOR = 1e-15  # amplitude floor of the logarithm, relative to max|a|


def init_gaussian_a(alpha: float, grid: GridSpec1D) -> ComplexField1D:
    """The packet GaussianParams.pure(alpha), a(tau) = exp(delta/2 - alpha tau^2),
    at t = 0, renormalized on the grid."""
    p = GaussianParams.pure(alpha)
    tau = grid.points()
    vals = np.exp(0.5 * p.delta - (p.alpha + 1j * p.beta) * tau * tau)
    f = ComplexField1D(vals, grid, 0.0)
    f.values /= f.norm()
    return f


def floored_log_density(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """ln max(|a|^2, floor^2) with floor = LN_FLOOR * max|a|, computed in
    place in out (a real array of values' shape) when it is given."""
    amp2 = np.abs(values, out=out)
    np.square(amp2, out=amp2)
    peak = float(np.max(amp2))
    if peak == 0.0:
        raise InvalidParameterError("a", "field is identically zero")
    np.maximum(amp2, (LN_FLOOR ** 2) * peak, out=amp2)
    return np.log(amp2, out=amp2)


def epsilon_of(a: ComplexField1D, s: Scenario) -> np.ndarray:
    """eps(tau) = gamma_l(t) ln max(|a|^2, floor^2) at t = a.t,
    gamma_l = linear_short(s)."""
    return linear_short(s)(a.t) * floored_log_density(a.values)


class LseStepper:
    """Strang stepper under a prescribed gamma_l(t), linear_short(s) by
    default (e.g. a negative constant for the stationary-Gaussian check)."""

    def __init__(self, s: Scenario, grid: GridSpec1D, dt: float,
                 gamma_l: Callable[[float], float] | None = None):
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        self.dt = dt
        self.gamma_l = gamma_l if gamma_l is not None else linear_short(s)
        k = grid.wavenumbers()
        self._kinetic = np.exp(-1j * 0.5 * k * k * dt)

    def _phase(self, u: np.ndarray, rate: float, theta: np.ndarray,
               out: np.ndarray) -> np.ndarray:
        """out = u exp(-i rate ln max(|u|^2, floor^2) dt/2), with theta as a
        real work array; u is left as it is. The angle is taken in real
        arithmetic, which gives the bits of the complex product
        -1j * rate * ln * (dt/2), whose real part is zero."""
        theta = floored_log_density(u, out=theta)
        np.multiply(theta, -rate, out=theta)
        np.multiply(theta, 0.5 * self.dt, out=theta)
        np.cos(theta, out=out.real)
        np.sin(theta, out=out.imag)
        return np.multiply(u, out, out=out)

    def step(self, a: ComplexField1D, n: int = 1) -> ComplexField1D:
        """Advance n Strang steps as one segment (see the module docstring);
        raises IntegrationError stamped a.t + j * dt if step j leaves the
        field non-finite. The returned field owns its values; a is left as
        it is."""
        if n < 1:
            raise ValueError("n must be >= 1")
        dt, g = self.dt, self.gamma_l
        # the field moves between v and w, each phase writing into the other
        theta = np.empty(a.values.shape)
        v, w = (np.empty(a.values.shape, dtype=np.complex128) for _ in range(2))
        self._phase(a.values, g(a.t + 0.25 * dt), theta, v)
        for j in range(1, n + 1):
            t = a.t + (j - 1) * dt  # start of step j
            np.fft.fft(v, out=v)
            np.multiply(self._kinetic, v, out=v)
            np.fft.ifft(v, out=v)
            rate = g(t + 0.75 * dt)
            self._phase(v, rate + g(t + 1.25 * dt) if j < n else rate, theta, w)
            if not np.isfinite(w).all():
                # the fused factor also holds step j + 1's opening half-step
                if j < n and np.isfinite(self._phase(v, rate, theta, w)).all():
                    j += 1
                raise IntegrationError(a.t + j * dt, "field blew up")
            v, w = w, v
        return ComplexField1D(v, a.grid, a.t + n * dt)


def _sample(a: ComplexField1D, gamma_l: float) -> ObservableSample:
    alpha, beta = fit_gaussian_alpha_beta(a)
    scale = alpha + gamma_l
    return ObservableSample(
        t=a.t, alpha=alpha, beta=beta, gamma=gamma_l,
        coherence_length=1.0 / math.sqrt(scale) if scale > 0.0 else float("nan"),
        ensemble_width=ensemble_width_from_a(a),
        purity=float("nan"),  # pure state by construction; kernel not tracked here
        norm=a.norm(),
    )


def evolve_lse(
    a: ComplexField1D,
    s: Scenario,
    numerics: NumericsSpec,
    gamma_l: Callable[[float], float] | None = None,
) -> tuple[list[ObservableSample], list[ComplexField1D]]:
    """Evolve to numerics.t_end under gamma_l (linear_short(s) by default),
    sampling the steps of sample_grid from a.t, each stamped step * dt (an
    a.t off the dt grid raises ValueError there). Returns (samples, fields),
    one field per sample; each sample reports the gamma_l it ran with. A
    non-finite initial field raises IntegrationError at its own time, before
    any sample is taken."""
    if not np.isfinite(a.values).all():
        raise IntegrationError(a.t, "initial field is not finite")
    stepper = LseStepper(s, a.grid, numerics.dt, gamma_l)
    ks = sample_grid(a.t, numerics.t_end, numerics.dt, numerics.sample_every)

    samples = [_sample(a, stepper.gamma_l(a.t))]
    fields = [a]
    for k, stop in zip(ks, ks[1:]):
        # one segment per sample interval
        a = stepper.step(a, stop - k)
        a.t = stop * numerics.dt  # stamp from the step count, no drift
        samples.append(_sample(a, stepper.gamma_l(a.t)))
        fields.append(a)
    return samples, fields


def marginalme_residual(
    a_series: Sequence[ComplexField1D],
    s: Scenario,
) -> float:
    """Residual of the marginal-density-matrix equation of motion on a sampled
    wavefunction trajectory.

    Builds rho_m(tau, tau') = c(tau) conj(c(tau')) from the middle snapshot c
    of a_series, differences its neighbors m and p for d rho_m/dt, and
    evaluates the right-hand side on c: the spectral kinetic term
    (i/2) [c'' conj(c)^T - c conj(c'')^T] plus the potential difference
    -i [eps(tau) - eps(tau')] rho_m, which is how the prescribed linear
    coupling acts on the marginal. With span the time between m and p and
    e = i eps c, lhs - rhs is the sum of six outer products u_k conj(v_k)^T:

        u = [p/span, -m/span, -(i/2) c'', (i/2) c, e, c]
        v = [p,       m,       c,         c'',     c, e]

    Returns max |lhs - rhs| / max |rho_m|, with max |rho_m| = max |c|^2.
    """
    if len(a_series) < 3:
        raise InvalidParameterError("a_series", "need at least three snapshots")
    i = len(a_series) // 2
    am, ac, ap = a_series[i - 1], a_series[i], a_series[i + 1]
    dt_m, dt_p = ac.t - am.t, ap.t - ac.t
    if not math.isclose(dt_m, dt_p, rel_tol=1e-9):
        raise InvalidParameterError("a_series", "snapshots not equally spaced in t")

    m, c, p = am.values, ac.values, ap.values
    k = ac.grid.wavenumbers()
    a2 = np.fft.ifft(-(k * k) * np.fft.fft(c))
    ieps = 1j * epsilon_of(ac, s) * c
    span = dt_p + dt_m
    u = np.stack([p / span, -m / span, -0.5j * a2, 0.5j * c, ieps, c])
    v = np.stack([p, m, c, a2, c, ieps])
    resid = np.max(np.abs(u.T @ v.conj()))
    return float(resid) / float(np.max(np.abs(c)) ** 2)
