"""Workloads, correctness gate and metrics of the decwt benchmark.

Every workload runs in a closed loop in this one process and thread: the
next iteration starts when the previous one has finished. Inputs come from
the seed only: ``--seed`` draws Lambda and b within ``BAND`` of the preset
values (and, for grid-dense, the checkpoint to resume from), writes them to
a ``key = value`` config file, and the program reads nothing else.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from decwt import cli, fields, gaussian, master_eq, scenario

import bench_trace

HERE = os.path.dirname(os.path.abspath(__file__))
PROBE = os.path.join(HERE, "setup_probe.py")

BAND = 0.01            # seeded Lambda and b lie within +-1% of the preset
GRID_REL_TOL = 1e-5    # grid sample vs closed form; Strang sits at 3e-8..5e-7
TRACE_TOL = 1e-9       # |trace - 1|; the Strang step conserves it to round-off
SETUP_REPEATS = 9
REF_SECONDS = 0.0125   # typical ReferenceKernel.seconds() on a 2-vCPU Xeon host
PRESET_LAMBDA = {"moderate": 1.0, "strong": 10.0}

WORKLOADS = {
    # Strang step (FFT pair plus multipliers) is ~95% of the work: the case
    # that step fusion and the exact propagator are meant to speed up.
    "grid-sparse": dict(preset="moderate", n=512, t_end=0.05, sample_every=50,
                        checkpoint_every=0),
    # Same layer on an L2-resident 256^2 field, sampled every step and
    # checkpointed: sampling and checkpoint I/O weigh in, fusion has no room.
    "grid-dense": dict(preset="strong", n=256, t_end=0.1, sample_every=1,
                       checkpoint_every=10),
    # The CLI sweep, where master_eq does no work: LSE, RK4, the g-table and
    # CSV/SVG writing are the layers that show here and nowhere else.
    "light": dict(n=512, t_end=2.0, sample_every=50),
}
# Sizes for the smoke tests of the benchmark itself.
TINY = {
    "grid-sparse": dict(n=64, t_end=0.02, sample_every=5),
    "grid-dense": dict(n=64, t_end=0.02, checkpoint_every=5),
}

LIGHT_ROUTES = "analytic,ode,lse,gfunc,hierarchy"
FIGURE_FILES = ("fig1a.svg", "fig1b.svg", "fig2a.svg", "fig2b.svg")
RUN_FILES = tuple(f"{r}.csv" for r in LIGHT_ROUTES.split(",")) + (
    "comparison.csv", "MANIFEST.txt")


# --- inputs --------------------------------------------------------------


def draw_scenario(rng: random.Random, preset: str,
                  vary_b: bool = True) -> tuple[float, float]:
    """(Lambda, b) within BAND of the preset (b = 1 in every preset)."""
    lam = PRESET_LAMBDA[preset] * (1.0 + BAND * rng.uniform(-1.0, 1.0))
    b = 1.0 + BAND * rng.uniform(-1.0, 1.0) if vary_b else 1.0
    return lam, b


def write_config(path: str, preset: str, lam: float, b: float, n: int,
                 t_end: float, sample_every: int) -> str:
    """Config file for one draw; the box comes from suggest_extents."""
    s = scenario.Scenario(lam=lam, b=b, label=preset)
    ext_y, ext_z = master_eq.suggest_extents(s, s.alpha0, 0.0, t_end)
    lines = [
        f"label = {preset}", f"Lambda = {lam!r}", f"b = {b!r}",
        f"n_y = {n}", f"n_z = {n}",
        f"extent_y = {ext_y!r}", f"extent_z = {ext_z!r}",
        "dt = 0.001", f"t_end = {t_end!r}", f"sample_every = {sample_every}",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def pure_params(alpha0: float) -> gaussian.GaussianParams:
    return gaussian.GaussianParams(alpha=alpha0, beta=0.0, gamma=0.0,
                                   delta=0.5 * math.log(2.0 * alpha0 / math.pi))


# --- recording -----------------------------------------------------------


@dataclass
class Recorder:
    """Units, work and checked operations of one measured phase."""

    tracer: bench_trace.Tracer | None = None
    units: list = field(default_factory=list)      # seconds per unit
    bytes_written: int = 0                         # CSV and MANIFEST bytes
    work: int = 0                                  # Strang steps or commands
    attempted: int = 0
    failures: list = field(default_factory=list)
    max_rel_err: float = 0.0
    _last: float | None = None

    def start_series(self) -> None:
        self._last = None

    def stamp(self, _field=None) -> dict:
        """Observer hook: one unit ends and the next begins at each sample."""
        now = time.perf_counter()
        if self._last is not None:
            self.units.append(now - self._last)
            self.next_unit()
        self._last = now
        return {}

    def next_unit(self) -> None:
        if self.tracer is not None:
            self.tracer.unit += 1

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


# --- grid workloads ------------------------------------------------------


class GridWorkload:
    """init_gaussian_rho + evolve_master_eq, optionally with checkpoints and
    a second pass resumed from one of them."""

    def __init__(self, name: str, seed: int, workdir: str, tiny: bool = False):
        spec = dict(WORKLOADS[name], **(TINY[name] if tiny else {}))
        self.workdir = workdir
        rng = random.Random(seed)
        # b stays at the preset's 1.0 on the grid: for other b the y extent
        # from suggest_extents can round one ulp below the 6-sigma minimum that
        # init_gaussian_rho enforces, and the run is refused (see CHANGES.md).
        lam, b = draw_scenario(rng, spec["preset"], vary_b=False)
        self.config = write_config(os.path.join(workdir, f"{name}.cfg"),
                                   spec["preset"], lam, b, spec["n"],
                                   spec["t_end"], spec["sample_every"])
        self.bundle = scenario.load_scenario(self.config)
        num = self.bundle.numerics
        self.n_steps = int(round(num.t_end / num.dt))
        every = self.checkpoint_every = spec["checkpoint_every"]
        self.resume_step = every * rng.randrange(1, self.n_steps // every) if every else None

        s = self.bundle.scenario
        self.p0 = pure_params(s.alpha0)
        g = gaussian.build_cubic(s, s.alpha0, 0.0)
        self.exact = {}
        for k in range(self.n_steps + 1):
            if k % num.sample_every == 0 or k == self.n_steps:
                t = k * num.dt
                self.exact[k] = (float(gaussian.coherence_exact(g, s, t)),
                                 float(gaussian.ensemble_width_exact(g, t)))

    def _ckpt_path(self, step: int) -> str:
        return os.path.join(self.workdir, f"ckpt-{step:06d}.bin")

    def _save(self, fld) -> None:
        fields.save_field_2d(self._ckpt_path(self._step_of(fld.t)), fld)

    def _step_of(self, t: float) -> int:
        return int(round(t / self.bundle.numerics.dt))

    def iteration(self, rec: Recorder) -> None:
        s, num = self.bundle.scenario, self.bundle.numerics
        every = self.checkpoint_every
        rec.start_series()
        try:
            f = master_eq.init_gaussian_rho(self.p0, self.bundle.grid)
            samples, _ = master_eq.evolve_master_eq(
                f, s, num, observers=[rec.stamp], checkpoint_every=every,
                checkpoint_sink=self._save if every else None)
        except Exception as exc:
            rec.check(False, f"evolve raised {exc!r}")
            return
        rec.work += self.n_steps
        rows = {}
        for smp in samples:
            k = self._step_of(smp.t)
            coh, wid = self.exact[k]
            err = max(abs(smp.coherence_length / coh - 1.0),
                      abs(smp.ensemble_width / wid - 1.0))
            rec.max_rel_err = max(rec.max_rel_err, err)
            drift = abs(smp.norm - 1.0)
            rec.check(err <= GRID_REL_TOL and drift <= TRACE_TOL
                      and "aliasing" not in smp.flags,
                      f"sample t={smp.t!r}: rel err {err:.3e}, trace drift "
                      f"{drift:.3e}, flags {smp.flags}")
            rows[k] = _row(smp)
        if not every:
            return

        rec.start_series()
        try:
            f = fields.load_field_2d(self._ckpt_path(self.resume_step))
            resumed, _ = master_eq.evolve_master_eq(f, s, num, observers=[rec.stamp])
        except Exception as exc:
            rec.check(False, f"resume raised {exc!r}")
            return
        rec.work += self.n_steps - self.resume_step
        for smp in resumed:
            k = self._step_of(smp.t)
            rec.check(rows.get(k) == _row(smp), f"resumed row at step {k} differs")

    def kernel_counts(self) -> dict:
        return strang_kernel_counts(self.bundle.grid.n_y, self.bundle.grid.n_z)

    def finish(self, rec: Recorder) -> float:
        return rec.max_rel_err


def _row(smp) -> str:
    """A sample as text that differs whenever any bit of it differs."""
    return repr((smp.coherence_length, smp.ensemble_width, smp.purity, smp.norm,
                 smp.flags))


def strang_kernel_counts(n_y: int, n_z: int) -> dict:
    """Computed (not measured) work of one Strang step.

    flops: two complex FFTs at 5 N log2 N, two real-by-complex decay passes at
    2 N and one complex kinetic product at 6 N. bytes: each of the five passes
    streams its operands once (16 B per complex, 8 B per real value).
    """
    n = n_y * n_z
    flops = 2 * 5 * n * math.log2(n) + 2 * 2 * n + 6 * n
    nbytes = 2 * (32 * n + 8 * n_y) + 2 * 32 * n + 48 * n
    return {"flops": flops, "bytes": nbytes, "ops_per_byte": flops / nbytes}


# --- light workload ------------------------------------------------------


class LightWorkload:
    """One sweep of decwt.cli.main over five commands, all in-process."""

    def __init__(self, name: str, seed: int, workdir: str, tiny: bool = False):
        spec = WORKLOADS[name]  # the CLI commands have no smaller size
        rng = random.Random(seed)
        cfg = {}
        for preset in ("moderate", "strong"):
            lam, b = draw_scenario(rng, preset)
            cfg[preset] = write_config(os.path.join(workdir, f"light-{preset}.cfg"),
                                       preset, lam, b, spec["n"], spec["t_end"],
                                       spec["sample_every"])
        self.config = cfg["moderate"]
        out = {key: os.path.join(workdir, key)
               for key in ("figures", "run-moderate", "run-strong")}
        self.outdirs = out
        self.commands = (
            ("figures", ["figures", "--config", cfg["moderate"], "--outdir",
                         out["figures"]], FIGURE_FILES),
            ("verify-moderate", ["verify", "--config", cfg["moderate"]], ()),
            ("verify-strong", ["verify", "--config", cfg["strong"]], ()),
            ("run-moderate", ["run", "--config", cfg["moderate"], "--routes",
                              LIGHT_ROUTES, "--outdir", out["run-moderate"]], RUN_FILES),
            ("run-strong", ["run", "--config", cfg["strong"], "--routes",
                            LIGHT_ROUTES, "--outdir", out["run-strong"]], RUN_FILES),
        )
        self.digests: dict = {}

    def iteration(self, rec: Recorder) -> None:
        for name, argv, expected in self.commands:
            outdir = self.outdirs.get(name)
            if outdir:
                shutil.rmtree(outdir, ignore_errors=True)
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    rc = cli.main(argv)
                except (Exception, SystemExit) as exc:
                    rc = repr(exc)
            rec.units.append(time.perf_counter() - start)
            rec.next_unit()
            rec.work += 1
            problem = None if rc == 0 else f"exit {rc}: {sink.getvalue()[-300:]!r}"
            if outdir and problem is None:
                problem = self._check_outputs(rec, name, outdir, expected)
            rec.check(problem is None, f"{name}: {problem}")

    def _check_outputs(self, rec: Recorder, name: str, outdir: str,
                       expected) -> str | None:
        found = {}
        for fname in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, fname), "rb") as fh:
                data = fh.read()
            found[fname] = hashlib.sha256(data).hexdigest()
            if not fname.endswith(".svg"):
                rec.bytes_written += len(data)
        missing = [f for f in expected if f not in found]
        if missing:
            return f"missing outputs {missing}"
        first = self.digests.setdefault(name, found)
        if found != first:
            return "outputs differ from the first iteration"
        return None

    def finish(self, rec: Recorder) -> float:
        """Worst relative deviation of the ode rows from the analytic rows."""
        worst = 0.0
        for key in ("run-moderate", "run-strong"):
            try:
                ana = _read_csv(os.path.join(self.outdirs[key], "analytic.csv"))
                ode = _read_csv(os.path.join(self.outdirs[key], "ode.csv"))
            except OSError as exc:
                rec.check(False, f"{key}: {exc}")
                continue
            rec.check(len(ana) == len(ode), f"{key}: ode and analytic row counts differ")
            for a, o in zip(ana, ode):
                for col in ("coherence_length", "ensemble_width", "purity"):
                    worst = max(worst, abs(float(o[col]) / float(a[col]) - 1.0))
        return worst

    def kernel_counts(self) -> None:
        return None


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def make_workload(name: str, seed: int, workdir: str, tiny: bool = False):
    os.makedirs(workdir, exist_ok=True)
    cls = LightWorkload if name == "light" else GridWorkload
    return cls(name, seed, workdir, tiny)


# --- measuring -----------------------------------------------------------


@dataclass
class Phase:
    rec: Recorder
    wall: float = 0.0   # seconds inside iterations
    warnings: int = 0   # numpy RuntimeWarnings
    rates: list = field(default_factory=list)        # work per second, per iteration
    scales: list = field(default_factory=list)       # REF_SECONDS / reference, per iteration
    unit_scales: list = field(default_factory=list)  # the same, per unit


class ReferenceKernel:
    """Fixed numpy work, timed after every iteration to read the machine's
    speed at that moment. On a shared 2-vCPU Xeon host the speed drifted by
    up to 25% over minutes, and an FFT pair on a 512^2 array followed that
    drift on all three workloads to within ~5%, so times scaled by
    REF_SECONDS / reference stay comparable between runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.field = rng.random((512, 512)) + 1j * rng.random((512, 512))

    def seconds(self) -> float:
        """Median time of five FFT pairs, so one interruption does not count."""
        times = []
        for _ in range(5):
            start = time.perf_counter()
            np.fft.ifft2(np.fft.fft2(self.field))
            times.append(time.perf_counter() - start)
        return statistics.median(times)


def one_iteration(workload, rec: Recorder,
                  tracer: bench_trace.Tracer | None = None) -> tuple[float, int]:
    """(wall seconds, RuntimeWarnings) of one iteration; traced if a tracer
    is given."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with bench_trace.instrument(tracer) if tracer else contextlib.nullcontext():
            start = time.perf_counter()
            workload.iteration(rec)
            wall = time.perf_counter() - start
    return wall, sum(issubclass(w.category, RuntimeWarning) for w in caught)


def measure(workload, seconds: float) -> Phase:
    """Whole untraced iterations, back to back, until `seconds` have passed;
    the reference kernel runs after each of them."""
    phase, reference = Phase(Recorder()), ReferenceKernel()
    rec = phase.rec
    while phase.wall < seconds:
        work, units = rec.work, len(rec.units)
        dt, warned = one_iteration(workload, rec)
        scale = REF_SECONDS / reference.seconds()
        phase.wall += dt
        phase.warnings += warned
        phase.rates.append((rec.work - work) / dt)
        phase.scales.append(scale)
        phase.unit_scales += [scale] * (len(rec.units) - units)
    return phase


def measure_setup(kind: str, config: str, repeats: int, rec: Recorder) -> list:
    """Wall seconds from launching a fresh interpreter to ready-to-work."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, PROBE, kind, config],
                                  capture_output=True, text=True, timeout=30)
        except subprocess.TimeoutExpired:
            rec.check(False, "setup probe timed out")
            continue
        times.append(time.perf_counter() - start)
        rec.check(proc.returncode == 0,
                  f"setup probe exit {proc.returncode}: {proc.stderr[-300:]}")
    return times


# p99.9 is left out: grid-dense's unit count crosses 10,000 as the machine's
# speed drifts, which would switch the tail between p99 and p99.9 from run to run.
TAIL_PERCENTILES = (50.0, 90.0, 99.0)


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES with at least ten of n samples beyond it
    (nearest rank); the median when n is too small for any of them."""
    best = TAIL_PERCENTILES[0]
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def _rank(p: float, n: int) -> int:
    """ceil(p/100 * n) in integer arithmetic (p in tenths), at least 1."""
    return max(-(-round(p * 10) * n // 1000), 1)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- environment ---------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(seed: int, thread_vars) -> dict:
    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        if idx.startswith("index"):
            caches.append("L{} {} {}".format(*(_read(os.path.join(base, idx, k))
                                               for k in ("level", "type", "size"))))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": "numpy.fft (pocketfft)",
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in thread_vars},
    }


# --- the two kinds of run ------------------------------------------------


def end_to_end(name: str, seed: int, seconds: float, workdir: str,
               tiny: bool = False, setup_repeats: int = SETUP_REPEATS):
    """Untraced run: returns (metrics, attempted, failed, report)."""
    wl = make_workload(name, seed, workdir, tiny)
    setup_rec = Recorder()
    setup = measure_setup("light" if name == "light" else "grid", wl.config,
                          setup_repeats, setup_rec)
    phase = measure(wl, seconds)
    rec = phase.rec
    max_err = wl.finish(rec)
    rec.attempted += setup_rec.attempted
    rec.failures += setup_rec.failures
    units = rec.units
    tail_p = tail_percentile(len(units))
    failed = len(rec.failures)
    # Rates and unit times at the reference machine speed (see ReferenceKernel).
    rates = [r / k for r, k in zip(phase.rates, phase.scales)]
    scaled = [u * k for u, k in zip(units, phase.unit_scales)]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "unit_s.p50": (percentile(scaled, 50), "s"),
        "unit_s.tail": (percentile(scaled, tail_p), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "max_rel_err": (max_err, "ratio"),
        "pass_ratio": ((rec.attempted - failed) / rec.attempted, "ratio"),
    }
    report = {
        "fail_ratio": failed / rec.attempted,
        "unit_s.tail.percentile": tail_p,
        "unit_s.samples": len(units),
        "work_items": rec.work,
        "reference_s": REF_SECONDS / statistics.median(phase.scales),
        "unscaled": {"work_per_s": statistics.median(phase.rates),
                     "unit_s.p50": percentile(units, 50),
                     "unit_s.tail": percentile(units, tail_p)},
        "work_per_s.iterations": rates,
        "wall_s": phase.wall,
        "setup_s.samples": setup,
        "observables.warnings": phase.warnings,
        "failures": rec.failures[:10],
    }
    return metrics, rec.attempted, failed, report


LAYER_METRICS = (
    "master_eq.step.count", "master_eq.step.self_ms", "master_eq.fft.calls",
    "master_eq.fft.ms", "master_eq.setup_ms",
    "master_eq.kernel.flops_computed", "master_eq.kernel.bytes_computed",
    "master_eq.kernel.ops_per_byte_computed",
    "observables.sample.count", "observables.sample.ms", "observables.warnings",
    "observables.hierarchy.ms",
    "fields.ckpt_write.ms", "fields.ckpt_write.bytes",
    "fields.ckpt_read.ms", "fields.ckpt_read.bytes",
    "lse.step.count", "lse.step.ms", "lse.residual.ms",
    "marginal_dynamics.rk4.steps", "marginal_dynamics.rk4.ms",
    "gfunc.table.ms", "gfunc.identities.ms",
    "gaussian.closed_form.calls", "gaussian.closed_form.ms",
    "svgplot.render.ms", "svgplot.write.ms", "svgplot.bytes",
    "cli.bytes_written",
    "trace.overhead", "trace.unaccounted_ms", "trace.wall_ms", "trace.reference_ms",
) + tuple(f"{layer}.self_ms" for layer in bench_trace.LAYERS)


def _unit_of(metric: str) -> str:
    if metric.endswith("ms"):
        return "ms"
    if metric.endswith(("bytes", "bytes_written", "bytes_computed")):
        return "B"
    if metric.endswith("flops_computed"):
        return "flop"
    if metric.endswith("ops_per_byte_computed"):
        return "flop/B"
    if metric == "trace.overhead":
        return "ratio"
    return "count"


def layer_metrics(tracer: bench_trace.Tracer, phase: Phase, iterations: int,
                  kernel: dict | None, overhead: float) -> dict:
    """Per-layer metrics from the spans and counters of the traced iterations,
    per traced iteration (kernel counts are per Strang step)."""
    spans = tracer.spans
    selfs = bench_trace.self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    total = dict.fromkeys(LAYER_METRICS, 0.0)

    def add(key, value):
        total[key] += value

    for sid, name, start, end, parent, _ in spans:
        dur_ms = 1000.0 * (end - start)
        add(f"{name.split('.', 1)[0]}.self_ms", 1000.0 * selfs[sid])
        if name == "master_eq.step":
            add("master_eq.step.count", 1)
            add("master_eq.step.self_ms", 1000.0 * selfs[sid])
        elif name == "master_eq.fft":
            add("master_eq.fft.calls", 1)
            add("master_eq.fft.ms", dur_ms)
        elif name == "master_eq.setup":
            add("master_eq.setup_ms", dur_ms)
        elif (name.startswith("observables.sample.") or name == "master_eq.boundary_leak") \
                and name_of.get(parent) != "master_eq.setup":
            add("observables.sample.ms", dur_ms)
            if name == "observables.sample.coherence":
                add("observables.sample.count", 1)
        elif name in ("observables.hierarchy", "fields.ckpt_write", "fields.ckpt_read",
                      "lse.residual", "marginal_dynamics.rk4", "gfunc.table",
                      "gfunc.identities", "svgplot.render", "svgplot.write"):
            add(f"{name}.ms", dur_ms)
        elif name == "lse.step":
            add("lse.step.count", 1)
            add("lse.step.ms", dur_ms)
        elif name == "gaussian.closed_form":
            add("gaussian.closed_form.calls", 1)
            add("gaussian.closed_form.ms", dur_ms)
    for key, value in tracer.counters.items():
        add(key, value)
    add("cli.bytes_written", phase.rec.bytes_written)
    add("observables.warnings", phase.warnings)
    add("trace.wall_ms", 1000.0 * phase.wall)
    add("trace.unaccounted_ms", 1000.0 * (phase.wall - bench_trace.covered_time(spans)))
    out = {k: v / iterations for k, v in total.items()}
    if kernel:
        out["master_eq.kernel.flops_computed"] = kernel["flops"]
        out["master_eq.kernel.bytes_computed"] = kernel["bytes"]
        out["master_eq.kernel.ops_per_byte_computed"] = kernel["ops_per_byte"]
    out["trace.overhead"] = overhead
    return {k: (v, _unit_of(k)) for k, v in out.items()}


def traced(name: str, seed: int, seconds: float, workdir: str, tiny: bool = False):
    """Traced run: an untraced and a traced iteration alternate until
    `seconds` have passed, so that trace.overhead compares iterations run
    under the same machine load. Returns (metrics, attempted, failed,
    report, spans)."""
    wl = make_workload(name, seed, workdir, tiny)
    tracer, reference = bench_trace.Tracer(), ReferenceKernel()
    base, run = Phase(Recorder()), Phase(Recorder(tracer))
    pairs, references = 0, []
    start = time.perf_counter()
    while pairs == 0 or time.perf_counter() - start < seconds:
        for phase in (base, run):
            dt, warned = one_iteration(wl, phase.rec, phase.rec.tracer)
            phase.wall += dt
            phase.warnings += warned
        references.append(reference.seconds())
        pairs += 1
    overhead = (run.wall / max(run.rec.work, 1)) / (base.wall / max(base.rec.work, 1))
    metrics = layer_metrics(tracer, run, pairs, wl.kernel_counts(), overhead)
    # the machine speed during the traced run, to compare per-layer times
    metrics["trace.reference_ms"] = (1000.0 * statistics.median(references), "ms")
    wl.finish(run.rec)
    failures = base.rec.failures + run.rec.failures
    attempted = base.rec.attempted + run.rec.attempted
    layer_sum = sum(metrics[f"{layer}.self_ms"][0] for layer in bench_trace.LAYERS)
    report = {
        "fail_ratio": len(failures) / attempted,
        "traced_iterations": pairs,
        "spans": len(tracer.spans),
        "layer_self_ms_plus_unaccounted": layer_sum + metrics["trace.unaccounted_ms"][0],
        "roofline": "omitted: a bandwidth measurement needs an array of at least "
                    "four times the shared last-level cache, 1.2 GiB for a 300 MiB "
                    "cache, too much for a small shared host; kernel counts are "
                    "computed, not measured",
        "failures": failures[:10],
    }
    return metrics, attempted, len(failures), report, tracer.spans


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
