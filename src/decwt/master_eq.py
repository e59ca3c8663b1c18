"""Split-step spectral solver for the collisional-decoherence master equation.

    drho/dt = 2 i d^2 rho / dy dz - Lambda y^2 rho

on a periodic (y, z) grid, in the fixed natural units hbar = m = 1. Strang
splitting: half-step of the local decay factor exp(-Lambda y^2 dt/2), full
kinetic step in Fourier space where d^2/dy dz is the diagonal multiplier
-k_y k_z, half-step of the decay factor again. Both factors are exact, so the
only time error is the O(dt^2) non-commutativity of the pair. The decay
factor is unity on y = 0 and the kinetic multiplier is unity on k_z = 0, so
the trace is conserved to round-off step by step.

Segments. The decay factor acts on y alone, so it commutes with the Fourier
transform along z. evolve_master_eq therefore advances each sample interval
as one segment: a decay half-step and a 2-D FFT open it, then each interior
step applies the kinetic multiplier, a y-iFFT, one fused full decay step and
a y-FFT, with the field held as a C-contiguous (k_z, k_y) array so the
y-transforms run on the contiguous axis; the last kinetic multiplier, a
y-iFFT, a decay half-step and a z-iFFT close it. A one-step segment is the
plain 2-D Strang step (fft2, kinetic multiplier, inverse 2-D FFT), with no
interior. The scheme, dt and O(dt^2) error are those of step-by-step Strang;
only the order of the transforms differs, which moves the results of longer
segments by about 1e-14 relative.

Half spectrum. The master equation keeps rho Hermitian, rho(-y, z) =
conj rho(y, z), so rho^(k_y, -k_z) = conj rho^(k_y, k_z), and both factors
keep that symmetry. A segment of more than one step therefore holds only the
n_z // 2 + 1 rows with k_z >= 0; the k_z Nyquist row is one of them and
evolves as it would in the full spectrum. The open is fft2's own pair of
1-D transforms in fft2's order, a z-FFT on the contiguous axis and then a
y-FFT on the k_z >= 0 half only, so the half equals fft2's columns bit for
bit. The close and a copy left inside a segment are one expression
(_to_real): the k_z < 0 columns are rebuilt in (k_z, y) as conjugates of
their mirrors, where the mirror also reflects y, and a z-iFFT returns to
real space. A copy left after step j is thus the j-step segment's result
bit for bit. No rfft/irfft pair is used: irfft projects the Nyquist row onto
its Hermitian part, a change of scheme rather than round-off.

Threads. Every full-grid pass of a segment splits its rows into contiguous
blocks (row_blocks), one per CPU the process may run on but none with less
than MIN_BLOCK_WORK points times steps to do, one pass counting as one step:
a thread's start and join cost about 1e4 point-steps (0.2 ms against 22 ns
per point-step at 512^2 on a 2-vCPU Xeon), and a block carries ten times
that. run_blocks runs each block on a thread of its own; numpy's FFT and
ufunc loops release the GIL. The passes are the open of a multi-step
segment, whose decay half-step and z-FFT act along y rows; the interior;
and the close and each copy (_to_real), whose mirror rebuild and z-iFFT act
along y rows of the real-space array. Between the open and the close, every
k_z row of the half spectrum evolves on its own: the kinetic multiplier is
diagonal, the decay factor acts along the row and the y-transforms run along
it, so each block runs its y-FFT and interior steps in place and the blocks
never meet inside a run of steps. Worker threads allocate no array of the
grid's size: each block writes with out= into arrays the calling thread
allocated, since every thread's malloc arena keeps what it frees and the
process would grow. A block function calls private helpers, never the public
decwt functions that a profiler may wrap with a single-threaded span stack.
The gain has been measured on 2 cores only.
A segment with copies to leave runs in stretches that end at each such step:
the blocks join there, the copy is made from the joined rows, and the next
stretch goes on from them. Each element sees the same operations on the same
operands whatever the block it falls in, so the segment, its copies and
every output byte do not depend on the number of blocks. The initial state
(init_gaussian_rho, one outer product) and _sample, which reads |rho| once
for the leak and the purity, run on the calling thread.

Buffers. A one-step segment works in one complex (y, z) array w that its
stepper allocates on first use, and the only full-grid array it allocates is
the field it hands out. numpy 2.4's ifft2 ignores out= and would allocate its
result and an intermediate, so the inverse runs in w as
ifft2(w) = conj(fft2(conj(w))) / N, N = n_y n_z: conjugate w and fft2 it in
place, then hand out its conjugate times the decay half-step over N. Both
axes are powers of two (GridSpec1D), so 1/N, like ifft2's 1/n per axis, is
exact, and the values equal ifft2's by np.array_equal; only the sign of an
exact zero may differ, since the last conjugate turns +0 into -0.
evolve_master_eq allocates one float (y, z) array per run, which every
sample's |rho| reuses.

Resume contract. Segments end only at sample steps and at the final step,
and the field leaves a segment C-contiguous (the observables sum in memory
order). A checkpoint taken at a sample step is a segment boundary, so a run
resumed from it reproduces the uninterrupted run's rows bit for bit, for any
checkpoint cadence. A checkpoint inside a segment is a real-space copy of the
segment's state; the segment goes on from its own state, so taking the copy
does not perturb the run.
"""

from __future__ import annotations

import functools
import math
import os
import threading

import numpy as np

from .fields import ComplexField2D
from .gaussian import GaussianParams, build_cubic, eval_G, sigma_profile
from .marginal_dynamics import IntegrationError, sample_grid
from .observables import (
    ObservableSample,
    coherence_from_rho,
    ensemble_width_from_rho,
    purity,
    trace_of,
)
from .scenario import GridSpec2D, InvalidParameterError, NumericsSpec, Scenario

ALIAS_THRESHOLD = 1e-6  # boundary amplitude relative to the peak
HERMITICITY_BOUND = 1e-9  # hermiticity_defect of an acceptable input field
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
MIN_BLOCK_WORK = 1 << 17  # array points times steps per row block


class GridSizeError(ValueError):
    pass


def init_gaussian_rho(p: GaussianParams, grid: GridSpec2D) -> ComplexField2D:
    """Unchirped Gaussian initial condition at t = 0, trace-normalized on the grid.

    One outer product on the calling thread: exp(-(alpha+gamma) y^2/2) times
    ez = exp(-alpha z^2/2) over the trace 0.5 sum(ez) dz (y = 0 is row
    n_y // 2; delta cancels). Refuses a chirped state (beta != 0), which does
    not factorise, and grids narrower than six standard deviations per axis,
    sigma_y = 1/sqrt(alpha+gamma) and sigma_z = 1/sqrt(alpha).
    """
    if p.beta != 0.0:
        raise InvalidParameterError("beta", "must be 0: a chirped state does not factorise")
    sig_y, sig_z = sigma_profile(p)
    if grid.extent_y < 6.0 * sig_y or grid.extent_z < 6.0 * sig_z:
        raise GridSizeError(
            f"grid extents ({grid.extent_y:g}, {grid.extent_z:g}) below the "
            f"6-sigma minimum ({6.0 * sig_y:g}, {6.0 * sig_z:g})"
        )
    y, z = grid.axis_y.points(), grid.axis_z.points()
    ez = np.exp(-0.5 * p.alpha * z * z)
    ez /= 0.5 * np.sum(ez) * grid.axis_z.spacing
    v = np.empty((grid.n_y, grid.n_z), dtype=np.complex128)
    np.multiply(np.exp(-0.5 * (p.alpha + p.gamma) * y * y)[:, None], ez, out=v)
    return ComplexField2D(v, grid, 0.0)


def row_blocks(rows: int, work: int) -> list[slice]:
    """Contiguous blocks of rows for a pass of work points times steps: one
    per CPU this process may run on, none empty, and none with less than
    MIN_BLOCK_WORK to do."""
    nb = max(1, min(WORKERS, rows, work // MIN_BLOCK_WORK))
    return [slice(rows * i // nb, rows * (i + 1) // nb) for i in range(nb)]


def run_blocks(fn, jobs) -> None:
    """fn(*job) for each job, the first on the calling thread and the rest on
    one thread each; returns when all have finished, re-raising the first
    error."""
    errors = []

    def guarded(job):
        try:
            fn(*job)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(job,)) for job in jobs[1:]]
    for t in threads:
        t.start()
    guarded(jobs[0])
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class MasterEqStepper:
    """Precomputed Strang multipliers for one (scenario, grid, dt) triple.

    Segments of more than one step use only the C-contiguous (k_z >= 0, k_y)
    half of the kinetic multiplier, which is all __init__ evaluates (see the
    module docstring). The full (k_y, k_z) multiplier is built on the first
    one-step segment.
    """

    def __init__(self, s: Scenario, grid: GridSpec2D, dt: float):
        if not (dt > 0.0 and math.isfinite(dt)):
            raise ValueError("dt must be positive and finite")
        self.dt = dt
        self._grid = grid
        self._rate = -1j * 2.0  # exp(rate k_y k_z dt)
        y = grid.axis_y.points()
        self._decay_half = np.exp(-s.lam * y * y * (0.5 * dt))
        self._decay = np.exp(-s.lam * y * y * dt)
        ky = grid.axis_y.wavenumbers()[None, :]
        kz = grid.axis_z.wavenumbers()[:grid.n_z // 2 + 1, None]
        # operands in _kinetic's order, so each entry is the same product
        self._kinetic_t = _phase(self._rate * ky, kz, dt)

    @functools.cached_property
    def _kinetic(self) -> np.ndarray:
        ky = self._grid.axis_y.wavenumbers()[:, None]
        kz = self._grid.axis_z.wavenumbers()[None, :]
        return _phase(self._rate * ky, kz, self.dt)

    @functools.cached_property
    def _work(self) -> np.ndarray:
        """The one-step segment's (y, z) work array, reused by every call."""
        return np.empty((self._grid.n_y, self._grid.n_z), dtype=np.complex128)

    def step(self, f: ComplexField2D, n: int = 1, leave=None,
             leave_at=()) -> ComplexField2D:
        """Advance n Strang steps as one segment (see the module docstring).

        leave(j, field) gets a real-space copy of the field after each step j
        in leave_at (0 < j < n), stamped f.t + j * dt.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        dh = self._decay_half
        if n == 1:
            w = self._work
            np.multiply(f.values, dh[:, None], out=w)
            np.fft.fft2(w, out=w)
            w *= self._kinetic
            # the inverse in place as conj(fft2(conj(w))) / N (see Buffers in
            # the module docstring): ifft2 would allocate two full-grid arrays
            np.conjugate(w, out=w)
            np.fft.fft2(w, out=w)
            v = np.conjugate(w)
            v *= (dh / w.size)[:, None]
            return ComplexField2D(v, f.grid, f.t + self.dt)
        # fft2's two transforms in its order: z on the contiguous axis, then
        # y on the k_z >= 0 half only, held as (k_z, k_y); each row block
        # runs its own y-transforms (see Threads in the module docstring).
        # The open's full-size scratch o also takes the close
        shape, h = f.values.shape, self._kinetic_t.shape[0]
        o = np.empty(shape, dtype=np.complex128)
        w = np.empty((h, shape[0]), dtype=np.complex128)
        run_blocks(_open_rows, [(f.values, dh, o, w, r)
                                for r in row_blocks(shape[0], o.size)])
        stops = sorted(j for j in set(leave_at) if 0 < j < n) + [n]
        j0 = 0
        for j1 in stops:
            run_blocks(self._stretch, [(w, r, j0, j1) for r in
                                       row_blocks(h, (j1 - j0) * w.size)])
            if j1 < n:
                c = _to_real(w, dh, np.empty(shape, dtype=np.complex128))
                leave(j1, ComplexField2D(c, f.grid, f.t + j1 * self.dt))
            j0 = j1
        return ComplexField2D(_to_real(w, dh, o), f.grid, f.t + n * self.dt)

    def _stretch(self, w: np.ndarray, r: slice, j0: int, j1: int) -> None:
        """Steps j0 + 1 .. j1 on the rows r of w, in place: from (k_z, y)
        after step j0's y-iFFT (j0 = 0: after the open's z-FFT) to (k_z, y)
        after step j1's."""
        b, kin = w[r], self._kinetic_t[r]
        for j in range(j0, j1):
            if j:  # the open applied step 1's decay half-step
                b *= self._decay
            np.fft.fft(b, axis=1, out=b)  # out= needs numpy >= 2.0
            b *= kin
            np.fft.ifft(b, axis=1, out=b)


def _phase(rate_ky: np.ndarray, kz: np.ndarray, dt: float) -> np.ndarray:
    """exp(((rate k_y) k_z) dt) evaluated in one array."""
    k = rate_ky * kz
    k *= dt
    return np.exp(k, out=k)


def _open_rows(v: np.ndarray, dh: np.ndarray, o: np.ndarray, w: np.ndarray,
               r: slice) -> None:
    """The open on the y rows r: decay half-step and z-FFT of v[r] into o[r],
    whose k_z >= 0 columns go to w[:, r]."""
    b = o[r]
    np.multiply(v[r], dh[r, None], out=b)
    np.fft.fft(b, axis=1, out=b)
    w[:, r] = b[:, :w.shape[0]].T


def _to_real(w: np.ndarray, dh: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Decay half-step of the (k_z >= 0, y) half w, then back to real space
    in g, a C-contiguous (y, z) array: the observables sum in memory order,
    so a resumed run reproduces the rows bit for bit only in a fixed layout.
    Runs in blocks of y rows."""
    run_blocks(_close_rows, [(w, dh, g, r)
                             for r in row_blocks(g.shape[0], g.size)])
    return g


def _close_rows(w: np.ndarray, dh: np.ndarray, g: np.ndarray, r: slice) -> None:
    """_to_real on the y rows r. The k_z < 0 columns are the conjugates of
    the mirrored k_z rows taken at -y, the periodic reflection
    i -> (n - i) mod n of hermiticity_defect: row 0 is its own mirror, and
    rows a .. e - 1 with a >= 1 mirror the columns n - a down to n - e + 1."""
    h, n_y = w.shape
    k = g.shape[1] - h  # the k_z < 0 columns
    b, a = g[r], max(r.start, 1)
    np.multiply(w[:, r].T, dh[r, None], out=b[:, :h])
    if r.start == 0:
        np.multiply(w[k:0:-1, :1].T, dh[:1, None], out=b[:1, h:])
    m = slice(n_y - a, n_y - r.stop, -1)
    np.multiply(w[k:0:-1, m].T, dh[m, None], out=g[a:r.stop, h:])
    np.conjugate(b[:, h:], out=b[:, h:])
    np.fft.ifft(b, axis=1, out=b)


def boundary_leak(amp: np.ndarray) -> float:
    """Largest edge value of the amplitude amp = |rho| relative to its peak;
    the aliasing sentinel."""
    peak = float(np.max(amp))
    if peak == 0.0:
        return 0.0
    edges = max(
        float(np.max(amp[0, :])),
        float(np.max(amp[-1, :])),
        float(np.max(amp[:, 0])),
        float(np.max(amp[:, -1])),
    )
    return edges / peak


def _sample(f: ComplexField2D, amp: np.ndarray) -> ObservableSample:
    """The observables of f; amp, a float (y, z) array, takes |rho| once for
    the leak and, squared in place, the purity."""
    np.abs(f.values, out=amp)
    leak = boundary_leak(amp)
    return ObservableSample(
        t=f.t,
        coherence_length=coherence_from_rho(f),
        ensemble_width=ensemble_width_from_rho(f),
        purity=purity(f, np.square(amp, out=amp)),
        norm=trace_of(f).real,
        flags=("aliasing",) if leak > ALIAS_THRESHOLD else (),
    )


def evolve_master_eq(
    f: ComplexField2D,
    s: Scenario,
    numerics: NumericsSpec,
    observers=None,
    checkpoint_every: int = 0,
    checkpoint_sink=None,
) -> tuple[list[ObservableSample], ComplexField2D]:
    """Evolve from f.t to numerics.t_end, sampling the steps of sample_grid
    from f.t (an f.t off the dt grid raises ValueError there). Samples and
    checkpoints are stamped step * dt, the step counted from t = 0, so a
    resumed run stamps each row as the uninterrupted run does.

    f must be Hermitian, rho(-y, z) = conj rho(y, z): a segment of more
    than one step evolves only the k_z >= 0 half of its spectrum and rebuilds
    the rest as its mirror, so a non-Hermitian f gives wrong rows. This is
    not checked here; a caller holding a field of unknown origin compares
    hermiticity_defect(f) with HERMITICITY_BOUND first.

    observers: optional iterable of callables, each called with the field at
    every sample, after it is sampled. checkpoint_every > 0 hands the field
    to checkpoint_sink (callable, gets the current ComplexField2D) every that
    many steps; checkpoint_every > 0 without a checkpoint_sink raises
    ValueError. Each sample interval is one stepper segment; the finite check
    runs at its end and before each checkpoint, so no non-finite field
    reaches the sink.
    """
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0")
    if checkpoint_every and checkpoint_sink is None:
        raise ValueError("checkpoint_every > 0 needs a checkpoint_sink")
    stepper = MasterEqStepper(s, f.grid, numerics.dt)
    ks = sample_grid(f.t, numerics.t_end, numerics.dt, numerics.sample_every)
    amp = np.empty((f.grid.n_y, f.grid.n_z))  # every sample's |rho|

    def observe(fld: ComplexField2D) -> ObservableSample:
        smp = _sample(fld, amp)
        for obs in observers or ():
            obs(fld)
        return smp

    samples = [observe(f)]

    def stamp(c: ComplexField2D, step: int) -> None:
        c.t = step * numerics.dt  # from the step count, no drift
        if not np.isfinite(c.values[0, 0]):  # the transforms spread a blow-up to every cell
            raise IntegrationError(c.t, "field blew up")

    def leave(first: int, j: int, c: ComplexField2D) -> None:
        stamp(c, first + j)
        checkpoint_sink(c)

    for k, stop in zip(ks, ks[1:]):
        # one segment per sample interval; checkpoints inside it get copies
        n = stop - k
        inner = [j for j in range(1, n)
                 if checkpoint_every and (k + j) % checkpoint_every == 0]
        # a callback only for a segment that leaves copies: one made for
        # every segment raised the grid-dense benchmark's peak RSS by 3.7 MB
        # and cut its work_per_s by 4% (2-core host)
        f = stepper.step(f, n, functools.partial(leave, k) if inner else None, inner)
        stamp(f, stop)
        samples.append(observe(f))
        if checkpoint_every and stop % checkpoint_every == 0:
            checkpoint_sink(f)

    return samples, f


def suggest_extents(s: Scenario, alpha0: float, beta0: float, t_end: float) -> tuple[float, float]:
    """6-sigma box sized from the closed-form spread at t_end. The coherence
    scale only shrinks, so the y extent follows the initial state. Both
    extents are at least the initial 6-sigma minimum that init_gaussian_rho
    checks, evaluated with the same expression, so they never round below it."""
    g = build_cubic(s, alpha0, beta0)
    sig_y, sig_z = sigma_profile(GaussianParams.pure(alpha0))
    ext_y = 6.0 * sig_y
    ext_z = 6.0 * max(math.sqrt(float(eval_G(g, t_end))), sig_z)
    return ext_y, ext_z
