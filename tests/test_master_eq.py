"""Split-step master-equation solver.

Both Strang factors are exact, so trace conservation and hermiticity are
structural: the only discretization error is operator non-commutativity.
Agreement with the closed-form Gaussian flow is the substantive check.
"""
import math
import threading
import tracemalloc

import numpy as np
import pytest

from decwt import master_eq
from decwt.fields import ComplexField2D, load_field_2d, save_field_2d
from decwt.gaussian import GaussianParams, build_cubic, density_matrix_exact, params_exact
from decwt.marginal_dynamics import IntegrationError
from decwt.master_eq import (
    GridSizeError,
    MasterEqStepper,
    boundary_leak,
    evolve_master_eq,
    init_gaussian_rho,
    suggest_extents,
)
from decwt.observables import hermiticity_defect, purity, trace_of
from decwt.scenario import GridSpec2D, InvalidParameterError, NumericsSpec, Scenario, preset_bundle


def moderate():
    return Scenario(lam=1.0, b=1.0, label="moderate")


def strong():
    return Scenario(lam=10.0, b=1.0, label="strong")


def initial_state(s, n=256, t_end=0.25, n_z=None):
    p0 = GaussianParams.pure(s.alpha0)
    ey, ez = suggest_extents(s, s.alpha0, 0.0, t_end)
    grid = GridSpec2D(n_y=n, n_z=n_z or n, extent_y=ey, extent_z=ez)
    return init_gaussian_rho(p0, grid), grid


def test_trace_conserved_every_step():
    s = moderate()
    f, _ = initial_state(s, n=128)
    stepper = MasterEqStepper(s, f.grid, 1e-3)
    tr0 = trace_of(f).real
    for _ in range(50):
        f = stepper.step(f)
        assert abs(trace_of(f).real - tr0) < 1e-13


def test_purity_monotone_nonincreasing():
    s = moderate()
    f, _ = initial_state(s, n=128)
    stepper = MasterEqStepper(s, f.grid, 1e-3)
    prev = purity(f)
    for _ in range(100):
        f = stepper.step(f)
        cur = purity(f)
        assert cur <= prev + 1e-12
        prev = cur
    assert prev < 0.95  # decoherence actually happened


def test_hermiticity_preserved():
    s = moderate()
    f, _ = initial_state(s, n=128)
    stepper = MasterEqStepper(s, f.grid, 1e-3)
    for _ in range(100):
        f = stepper.step(f)
    # round-off only: ~1.6e-13 per step through the FFT pair
    assert hermiticity_defect(f) < 1e-9


def test_matches_closed_form():
    s = moderate()
    f, grid = initial_state(s, n=256, t_end=0.25)
    num = NumericsSpec(dt=1e-3, t_end=0.25, sample_every=50)
    samples, final = evolve_master_eq(f, s, num)

    g = build_cubic(s, s.alpha0, 0.0)
    for smp in samples:
        p = params_exact(g, s, smp.t)
        l_exact = 1.0 / math.sqrt(p.alpha + p.gamma)
        w_exact = 0.5 / math.sqrt(p.alpha)
        assert abs(smp.coherence_length - l_exact) < 1e-7, f"t={smp.t}"
        assert abs(smp.ensemble_width - w_exact) < 1e-7, f"t={smp.t}"
        assert abs(smp.norm - 1.0) < 1e-12
    assert final.t == pytest.approx(0.25)


def test_init_rejects_undersized_grid():
    s = moderate()
    p0 = GaussianParams.pure(s.alpha0)
    # sigma_z = 1/sqrt(alpha0) = sqrt(2) b: extent below 6 sigma must refuse
    grid = GridSpec2D(n_y=64, n_z=64, extent_y=12.0, extent_z=5.0)
    with pytest.raises(GridSizeError):
        init_gaussian_rho(p0, grid)


def test_boundary_leak_flags_aliasing():
    s = moderate()
    p0 = GaussianParams.pure(s.alpha0)
    # a 6-sigma box never leaks at t = 0, so bypass the init guard:
    # 4.5 sigma puts the edge amplitude at exp(-4.5^2/2) ~ 4e-5 > 1e-6
    from decwt.gaussian import density_matrix_exact
    sig = 1.0 / math.sqrt(s.alpha0)
    grid = GridSpec2D(n_y=64, n_z=64, extent_y=4.5 * sig, extent_z=4.5 * sig)
    f = density_matrix_exact(p0, grid)
    assert boundary_leak(np.abs(f.values)) > 1e-6
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=5)
    samples, _ = evolve_master_eq(f, s, num)
    assert "aliasing" in samples[-1].flags


@pytest.mark.parametrize("extent", [4.5, 8.0])
def test_sample_reads_the_observables_of_the_field(extent):
    # _sample takes |rho| once for the leak and the purity; the purity is
    # summed in the same order as purity(f) alone, so it is equal bit for bit
    s = strong()
    sig = 1.0 / math.sqrt(s.alpha0)
    grid = GridSpec2D(n_y=64, n_z=128, extent_y=extent * sig, extent_z=extent * sig)
    f = MasterEqStepper(s, grid, 1e-3).step(
        density_matrix_exact(GaussianParams.pure(s.alpha0), grid), 3)
    leak = boundary_leak(np.abs(f.values))
    # a run reuses one |rho| buffer for every sample; what it held before
    # must not show, nor may one sample's |rho|^2 leak into the next
    amp = np.full((grid.n_y, grid.n_z), np.nan)
    for _ in range(2):
        smp = master_eq._sample(f, amp)
        assert smp.purity == purity(f) and 0.0 < smp.purity < 1.0
        assert smp.flags == (("aliasing",) if leak > master_eq.ALIAS_THRESHOLD else ())
        assert smp.norm == trace_of(f).real
    assert (leak > master_eq.ALIAS_THRESHOLD) == (extent == 4.5)


def test_fields_handed_out_own_their_memory(monkeypatch):
    # the one-step segment runs in the stepper's work array and the samples
    # in one |rho| buffer; every field an observer, the checkpoint sink or
    # the caller gets must be its own and keep its values after the run
    s = strong()
    f, _ = initial_state(s, n=32)
    steppers, handed = [], []

    class Recorded(MasterEqStepper):
        def __init__(self, *args):
            super().__init__(*args)
            steppers.append(self)

    def keep(fld):
        handed.append((fld, fld.values.copy()))

    monkeypatch.setattr(master_eq, "MasterEqStepper", Recorded)
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=1)
    samples, out = evolve_master_eq(f, s, num, observers=[keep],
                                    checkpoint_every=3, checkpoint_sink=keep)
    keep(out)
    assert len(samples) == 11 and len(handed) == 11 + 3 + 1
    fields = list({id(fld): fld for fld, _ in handed}.values())
    assert len(fields) == 11  # the sink and the caller get sampled fields
    for fld, values in handed:
        assert np.array_equal(fld.values, values)
    work = steppers[0]._work
    for i, a in enumerate(fields):
        assert not np.shares_memory(a.values, work)
        for b in fields[i + 1:]:
            assert not np.shares_memory(a.values, b.values)


def strang_reference(s, grid, dt):
    """One plain 2-D Strang step, v -> h ifft2(fft2(h v) kin)."""
    y = grid.axis_y.points()[:, None]
    h = np.exp(-s.lam * y * y * (0.5 * dt))
    ky = grid.axis_y.wavenumbers()[:, None]
    kz = grid.axis_z.wavenumbers()[None, :]
    kin = np.exp(-1j * 2.0 * ky * kz * dt)
    # spectrum first, as the stepper's w *= kin: numpy's complex product is
    # not bitwise commutative, and one step is compared by np.array_equal
    return lambda v: h * np.fft.ifft2(np.fft.fft2(h * v) * kin)


def test_one_step_segment_allocates_only_the_field_it_hands_out():
    # the inverse transform runs in the work array, so the step allocates
    # the field it hands out and no other full-grid array
    s = strong()
    f, grid = initial_state(s, n=256)
    stepper = MasterEqStepper(s, grid, 1e-3)
    stepper.step(f, 1)  # builds _work and _kinetic
    tracemalloc.start()
    try:
        stepper.step(f, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * f.values.nbytes


@pytest.mark.parametrize("n_y, n_z", [(8, 64), (64, 128), (256, 256)])
def test_one_step_inverse_is_ifft2_up_to_the_sign_of_zeros(n_y, n_z):
    # conj(fft2(conj(w))) / N: with N a power of two every scaling is exact,
    # so only a zero's sign may differ from the reference's ifft2
    s, dt = strong(), 1e-3
    f, grid = initial_state(s, n=n_y, n_z=n_z)
    strang = strang_reference(s, grid, dt)
    stepper = MasterEqStepper(s, grid, dt)
    for _ in range(100):
        want = strang(f.values)
        f = stepper.step(f, 1)
        assert np.array_equal(f.values, want)
        got, ref = f.values.view(np.float64), want.view(np.float64)
        differ = got.view(np.int64) != ref.view(np.int64)
        assert not np.any(got[differ]) and not np.any(ref[differ])


def test_no_aliasing_on_recommended_box():
    s = moderate()
    f, _ = initial_state(s, n=256, t_end=0.25)
    num = NumericsSpec(dt=1e-3, t_end=0.25, sample_every=50)
    samples, _ = evolve_master_eq(f, s, num)
    assert all("aliasing" not in smp.flags for smp in samples)


def test_suggest_extents_tracks_spread():
    s = moderate()
    ey, ez = suggest_extents(s, s.alpha0, 0.0, 2.0)
    g = build_cubic(s, s.alpha0, 0.0)
    from decwt.gaussian import eval_G
    assert ey == pytest.approx(6.0 / math.sqrt(s.alpha0))
    assert ez == pytest.approx(6.0 * math.sqrt(float(eval_G(g, 2.0))))
    ey1, ez1 = suggest_extents(s, s.alpha0, 0.0, 0.1)
    assert ez1 < ez  # shorter run needs less room
    assert ey1 == pytest.approx(ey)


def test_checkpoint_sink_cadence():
    s = moderate()
    f, _ = initial_state(s, n=128)
    seen = []
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=5)
    evolve_master_eq(f, s, num, checkpoint_every=7, checkpoint_sink=seen.append)
    assert [round(c.t / 1e-3) for c in seen] == [7, 14]
    # a call starting at step 30 checkpoints where a run from t = 0 does
    f, _ = initial_state(s, n=128)
    f.t = 30 * 1e-3
    seen.clear()
    num = NumericsSpec(dt=1e-3, t_end=0.06, sample_every=5)
    evolve_master_eq(f, s, num, checkpoint_every=7, checkpoint_sink=seen.append)
    assert [round(c.t / 1e-3) for c in seen] == [35, 42, 49, 56]


def test_observers_see_every_sample_field_in_order():
    s = moderate()
    f, _ = initial_state(s, n=128)
    num = NumericsSpec(dt=1e-3, t_end=0.012, sample_every=5)
    seen = []
    samples, _ = evolve_master_eq(
        f, s, num, observers=[lambda fld: seen.append((fld.t, trace_of(fld).real))]
    )
    assert [t for t, _ in seen] == [smp.t for smp in samples] == [0.0, 0.005, 0.01, 0.012]
    assert [tr for _, tr in seen] == [smp.norm for smp in samples]


def test_negative_span_raises():
    s = moderate()
    f, _ = initial_state(s, n=128)
    f.t = 1.0
    num = NumericsSpec(dt=1e-3, t_end=0.5, sample_every=5)
    with pytest.raises(IntegrationError):
        evolve_master_eq(f, s, num)


def test_stepper_rejects_bad_dt():
    s = moderate()
    _, grid = initial_state(s, n=64)
    with pytest.raises(ValueError):
        MasterEqStepper(s, grid, 0.0)


@pytest.mark.parametrize("dt", [math.nan, math.inf])
def test_stepper_rejects_non_finite_dt(dt):
    s = moderate()
    _, grid = initial_state(s, n=64)
    with pytest.raises(ValueError):
        MasterEqStepper(s, grid, dt)


def test_negative_checkpoint_cadence_refused():
    # a negative cadence would checkpoint on multiples of its magnitude
    s = moderate()
    f, _ = initial_state(s, n=64)
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=5)
    with pytest.raises(ValueError):
        evolve_master_eq(f, s, num, checkpoint_every=-3, checkpoint_sink=[].append)


def test_checkpoint_cadence_without_a_sink_refused():
    # a cadence with nowhere to hand the field would checkpoint nothing
    s = moderate()
    f, _ = initial_state(s, n=64)
    num = NumericsSpec(dt=1e-3, t_end=0.01, sample_every=5)
    with pytest.raises(ValueError, match="checkpoint_every > 0 needs a checkpoint_sink"):
        evolve_master_eq(f, s, num, checkpoint_every=2)


@pytest.mark.parametrize("n", [0, -1])
def test_stepper_rejects_an_empty_segment(n):
    s = moderate()
    f, grid = initial_state(s, n=64)
    with pytest.raises(ValueError, match="n must be >= 1"):
        MasterEqStepper(s, grid, 1e-3).step(f, n)


def test_suggested_box_passes_init_guard_off_preset_b():
    # 6/sqrt(alpha0) once rounded one ulp below the guard's 6*(1/sqrt(alpha0))
    for b in [0.98012] + list(np.linspace(0.98, 1.02, 401)):
        s = Scenario(lam=1.0, b=float(b), label="probe")
        p0 = GaussianParams.pure(s.alpha0)
        for t_end in (0.0, 0.25):
            ey, ez = suggest_extents(s, s.alpha0, 0.0, t_end)
            grid = GridSpec2D(n_y=16, n_z=16, extent_y=ey, extent_z=ez)
            init_gaussian_rho(p0, grid)  # raises GridSizeError if undersized


def _row(smp):
    return (smp.coherence_length, smp.ensemble_width, smp.purity, smp.norm)


def test_resume_bit_identical_at_unaligned_checkpoint_cadence(tmp_path):
    s = moderate()
    f, _ = initial_state(s, n=128)
    num = NumericsSpec(dt=1e-3, t_end=0.06, sample_every=5)

    def sink(fld):
        save_field_2d(tmp_path / f"{round(fld.t / num.dt)}.ckpt", fld)

    def rows(samples):  # t too: a resumed run stamps from the step index
        return {round(smp.t / num.dt): (smp.t, *_row(smp)) for smp in samples}

    full, _ = evolve_master_eq(f, s, num, checkpoint_every=7, checkpoint_sink=sink)
    resumed, _ = evolve_master_eq(load_field_2d(tmp_path / "35.ckpt"), s, num)
    got = rows(resumed)
    assert sorted(got) == [35, 40, 45, 50, 55, 60]
    assert got == {k: r for k, r in rows(full).items() if k >= 35}


def test_start_off_the_dt_grid_is_refused():
    # a field evolved with another dt: stamping from the step index would
    # put every later row half a step away from the field's time
    s = moderate()
    f, _ = initial_state(s, n=64)
    num = NumericsSpec(dt=2e-3, t_end=0.05, sample_every=5)
    f.t = 0.035
    with pytest.raises(ValueError, match="not on the dt"):
        evolve_master_eq(f, s, num)
    f.t = math.nextafter(18 * num.dt, 1.0)  # an ulp off, as sums round
    samples, out = evolve_master_eq(f, s, num)
    assert [smp.t for smp in samples[1:3]] == [20 * num.dt, 25 * num.dt]
    assert out.t == 25 * num.dt


# the interior evolves the k_z >= 0 half; non-square grids check the mirror
@pytest.mark.parametrize("n_y, n_z, n", [
    *(pytest.param(256, 256, n, id=f"{n}") for n in (1, 2, 50)),
    *(pytest.param(n_y, n_z, n, id=f"{n_y}x{n_z}-{n}")
      for n_y, n_z in ((32, 64), (64, 32)) for n in (1, 2, 7)),
])
@pytest.mark.parametrize("scenario", [moderate, strong])
def test_segment_matches_per_step_strang_reference(scenario, n_y, n_z, n):
    s = scenario()
    f, grid = initial_state(s, n=n_y, n_z=n_z)
    dt = 1e-3
    strang = strang_reference(s, grid, dt)
    ref, v = {}, f.values
    for k in range(1, n + 1):
        v = ref[k] = strang(v)
    mid = min(20, n // 2)  # an interior step, left as a copy; none when n = 1
    left = {}
    out = MasterEqStepper(s, grid, dt).step(
        f, n, leave=lambda j, c: left.setdefault(j, c), leave_at=(mid,))
    if n == 1:  # the plain 2-D Strang step, equal by value (zero signs aside)
        assert np.array_equal(out.values, ref[1]) and not left
    else:
        for got, want in ((out.values, ref[n]), (left[mid].values, ref[mid])):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert left[mid].t == pytest.approx(mid * dt)
    assert out.values.flags["C_CONTIGUOUS"]
    assert out.t == pytest.approx(n * dt)


@pytest.mark.parametrize("n", [2, 7, 50])
@pytest.mark.parametrize("n_y, n_z", [(32, 64), (64, 32)])
@pytest.mark.parametrize("scenario", [moderate, strong])
def test_segment_does_not_depend_on_the_worker_count(monkeypatch, scenario,
                                                     n_y, n_z, n):
    # each k_z row evolves on its own, so how the rows are split into
    # blocks (16: more blocks than cores, up to one row each) must not move
    # a bit of the segment or of its copies
    s = scenario()
    f, grid = initial_state(s, n=n_y, n_z=n_z)
    stepper = MasterEqStepper(s, grid, 1e-3)
    monkeypatch.setattr(master_eq, "MIN_BLOCK_WORK", 1)
    leave_at = sorted({1, min(20, n // 2), n - 1})
    runs = []
    for workers in (1, 2, 3, 16):
        monkeypatch.setattr(master_eq, "WORKERS", workers)
        left = {}
        out = stepper.step(f, n, leave=lambda j, c: left.setdefault(j, c),
                           leave_at=leave_at)
        runs.append([out.values] + [left[j].values for j in leave_at])
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(run, runs[0]))


def test_small_stretches_run_on_the_calling_thread(monkeypatch):
    # a block must carry enough work to pay for its thread: the one-step
    # stretches that copies every step make start no thread at all
    monkeypatch.setattr(master_eq, "WORKERS", 4)
    s = moderate()
    f, grid = initial_state(s, n=64)
    stepper, names = MasterEqStepper(s, grid, 1e-3), set()
    stretch = MasterEqStepper._stretch

    def watched(self, w, r, j0, j1):
        names.add(threading.current_thread().name)
        stretch(self, w, r, j0, j1)

    monkeypatch.setattr(MasterEqStepper, "_stretch", watched)
    # two steps of all 33 rows of the 64 x 64 half per block
    monkeypatch.setattr(master_eq, "MIN_BLOCK_WORK", 2 * 33 * 64)
    stepper.step(f, 5, leave=lambda j, c: None, leave_at=(1, 2, 3, 4))
    assert names == {threading.current_thread().name}
    stepper.step(f, 8)  # one stretch of eight steps: four blocks
    assert len(names) == 4


@pytest.mark.parametrize("failing", [None, 0, 2])
def test_no_thread_outlives_a_segment(monkeypatch, failing):
    # three row blocks on the 33 rows of a 64 x 64 half spectrum; the
    # checkpoints split segments into stretches, each joined on its own
    monkeypatch.setattr(master_eq, "WORKERS", 3)
    monkeypatch.setattr(master_eq, "MIN_BLOCK_WORK", 1)
    stretch, seen = MasterEqStepper._stretch, []

    def watched(self, w, r, j0, j1):
        seen.append(threading.active_count())
        if failing is not None and r.start == 33 * failing // 3:
            raise RuntimeError("row block failed")
        stretch(self, w, r, j0, j1)

    monkeypatch.setattr(MasterEqStepper, "_stretch", watched)
    s = moderate()
    f, _ = initial_state(s, n=64)
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=5)
    before = threading.active_count()
    if failing is None:
        evolve_master_eq(f, s, num, checkpoint_every=3, checkpoint_sink=[].append)
    else:
        with pytest.raises(RuntimeError, match="row block failed"):
            evolve_master_eq(f, s, num)
    assert threading.active_count() == before
    assert max(seen) > before  # the blocks did run on threads of their own


@pytest.mark.parametrize("n_y, n_z", [(32, 64), (64, 32)])
def test_init_is_the_closed_form_over_its_trace(n_y, n_z):
    # the outer product ey ez over 0.5 sum(ez) dz is the unchirped closed
    # form over its trace, up to round-off
    grid = GridSpec2D(n_y=n_y, n_z=n_z, extent_y=14.0, extent_z=11.0)
    for gamma in (0.0, 0.2):
        p = GaussianParams(alpha=0.5, beta=0.0, gamma=gamma, delta=-0.7)
        want = density_matrix_exact(p, grid).values
        want /= trace_of(ComplexField2D(want, grid, 0.0)).real
        got = init_gaussian_rho(p, grid).values
        peak = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-15 * peak, gamma


def test_init_refuses_a_chirped_state():
    # a chirped state, beta != 0, does not factorise into ey ez
    p = GaussianParams(alpha=0.5, beta=0.3, gamma=0.2, delta=-0.7)
    grid = GridSpec2D(n_y=32, n_z=64, extent_y=14.0, extent_z=11.0)
    with pytest.raises(InvalidParameterError, match="beta"):
        init_gaussian_rho(p, grid)


@pytest.mark.parametrize("preset", ["moderate", "strong"])
def test_init_trace_is_one_on_the_preset_grid(preset):
    bundle = preset_bundle(preset)
    f = init_gaussian_rho(GaussianParams.pure(bundle.scenario.alpha0), bundle.grid)
    assert abs(trace_of(f) - 1.0) <= 1e-15


def test_init_open_and_close_run_on_threads_of_their_own(monkeypatch):
    # every full-grid pass of a segment goes through run_blocks in row
    # blocks; the initial state is one outer product on the calling thread
    monkeypatch.setattr(master_eq, "WORKERS", 3)
    monkeypatch.setattr(master_eq, "MIN_BLOCK_WORK", 1)
    run_blocks, names = master_eq.run_blocks, {}

    def watched(fn, jobs):  # the threads of each call, by the function run
        call = set()
        names.setdefault(fn.__name__, []).append(call)

        def named(*job):
            call.add(threading.current_thread().name)
            fn(*job)
        run_blocks(named, jobs)

    monkeypatch.setattr(master_eq, "run_blocks", watched)
    s = moderate()
    f, grid = initial_state(s, n=32, n_z=64)
    MasterEqStepper(s, grid, 1e-3).step(f, 4, leave=lambda j, c: None, leave_at=(2,))
    calls = {"_open_rows": 1, "_close_rows": 2, "_stretch": 2}  # a copy at step 2, then the close
    assert {fn: len(c) for fn, c in names.items()} == calls
    assert all(len(call) == 3 for c in names.values() for call in c)


@pytest.mark.parametrize("block", [0, 2])
@pytest.mark.parametrize("stage", ["_open_rows", "_close_rows"])
def test_an_open_or_close_block_error_reaches_the_caller(monkeypatch, stage, block):
    # block 0 runs on the calling thread, block 2 on a thread of its own
    monkeypatch.setattr(master_eq, "WORKERS", 3)
    monkeypatch.setattr(master_eq, "MIN_BLOCK_WORK", 1)
    s = moderate()
    f, grid = initial_state(s, n=64)
    stepper, fn, seen = MasterEqStepper(s, grid, 1e-3), getattr(master_eq, stage), []

    def failing(*args):
        seen.append(threading.active_count())
        if args[-1].start == 64 * block // 3:
            raise RuntimeError("row block failed")
        fn(*args)

    monkeypatch.setattr(master_eq, stage, failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="row block failed"):
        stepper.step(f, 5)
    assert threading.active_count() == before
    assert len(seen) == 3 and max(seen) > before


@pytest.mark.parametrize("n_y, n_z", [(32, 64), (64, 32)])
@pytest.mark.parametrize("scenario", [moderate, strong])
def test_in_segment_copy_is_the_shorter_segment_bit_for_bit(scenario, n_y, n_z):
    # a segment's close and its in-segment copies are one expression, so a
    # copy at step j is the j-step segment's result; j = 1 is the 2-D step
    s = scenario()
    f, grid = initial_state(s, n=n_y, n_z=n_z)
    stepper = MasterEqStepper(s, grid, 1e-3)
    n, left = 7, {}
    stepper.step(f, n, leave=lambda j, c: left.setdefault(j, c),
                 leave_at=range(2, n))
    assert sorted(left) == list(range(2, n))
    for j, c in left.items():
        assert np.array_equal(c.values, stepper.step(f, j).values), f"j={j}"


@pytest.mark.parametrize("n_y, n_z", [(64, 64), (32, 64), (64, 32)])
def test_half_kinetic_multiplier_is_the_full_ones_half(n_y, n_z):
    # __init__ evaluates the (k_z >= 0, k_y) half directly; it must be the
    # full multiplier's half bit for bit, the entries one-step segments use.
    # dt = 1e-3 is not a power of two, so operand order shows
    s = strong()
    _, grid = initial_state(s, n=n_y, n_z=n_z)
    stepper = MasterEqStepper(s, grid, 1e-3)
    half = np.ascontiguousarray(stepper._kinetic[:, :n_z // 2 + 1].T)
    assert np.array_equal(stepper._kinetic_t, half)


@pytest.mark.parametrize("sample_every, checkpoint_every", [(1, 0), (5, 0), (5, 3)])
def test_nan_in_field_stops_run(sample_every, checkpoint_every):
    s = moderate()
    f, _ = initial_state(s, n=64)
    f.values[20, 40] = np.nan
    num = NumericsSpec(dt=1e-3, t_end=0.02, sample_every=sample_every)
    saved = []
    with pytest.raises(IntegrationError) as err:
        evolve_master_eq(f, s, num, checkpoint_every=checkpoint_every,
                         checkpoint_sink=saved.append)
    assert saved == []  # the step-3 checkpoint inside the segment is refused
    assert err.value.t == pytest.approx((checkpoint_every or sample_every) * num.dt)
