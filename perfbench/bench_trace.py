"""In-memory span tracer for the decwt benchmark.

Spans are recorded from outside the program: ``instrument`` replaces public
decwt functions and methods with timing wrappers for the duration of a
``with`` block and restores the originals on exit. A function that another
decwt module imported by name (``from .observables import purity``) is
replaced in that module too, so calls made through either name are seen.

A span is ``(id, name, start, end, parent, unit)``; times are
``time.perf_counter`` seconds. The layer of a span is the part of its name
before the first dot, which is the decwt module it times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute, span name). Methods are given as "Class.method".
WRAPPED = (
    ("decwt.scenario", "load_scenario", "scenario.load"),
    ("decwt.scenario", "preset_bundle", "scenario.preset"),
    ("decwt.gaussian", "params_exact", "gaussian.closed_form"),
    ("decwt.gaussian", "build_cubic", "gaussian.closed_form"),
    ("decwt.fields", "save_field_2d", "fields.ckpt_write"),
    ("decwt.fields", "load_field_2d", "fields.ckpt_read"),
    ("decwt.observables", "coherence_from_rho", "observables.sample.coherence"),
    ("decwt.observables", "ensemble_width_from_rho", "observables.sample.width"),
    ("decwt.observables", "purity", "observables.sample.purity"),
    ("decwt.observables", "trace_of", "observables.sample.trace"),
    ("decwt.observables", "qseries_residual", "observables.hierarchy"),
    ("decwt.master_eq", "init_gaussian_rho", "master_eq.setup"),
    ("decwt.master_eq", "MasterEqStepper.__init__", "master_eq.setup"),
    ("decwt.master_eq", "MasterEqStepper.step", "master_eq.step"),
    ("decwt.master_eq", "evolve_master_eq", "master_eq.evolve"),
    ("decwt.master_eq", "boundary_leak", "master_eq.boundary_leak"),
    ("decwt.lse", "LseStepper.step", "lse.step"),
    ("decwt.lse", "evolve_lse", "lse.evolve"),
    ("decwt.lse", "marginalme_residual", "lse.residual"),
    ("decwt.marginal_dynamics", "integrate_closed_system", "marginal_dynamics.rk4"),
    ("decwt.marginal_dynamics", "integrate_prescribed_gamma", "marginal_dynamics.rk4"),
    ("decwt.gfunc", "compute_g_table", "gfunc.table"),
    ("decwt.gfunc", "verify_g_identities", "gfunc.identities"),
    ("decwt.gfunc", "reconstruct_from_column", "gfunc.identities"),
    ("decwt.gfunc", "gauge_transform", "gfunc.identities"),
    ("decwt.svgplot", "render_plot", "svgplot.render"),
    ("decwt.svgplot", "write_svg", "svgplot.write"),
    ("decwt.cli", "main", "cli.main"),
    ("decwt.cli", "cmd_run", "cli.run"),
    ("decwt.cli", "cmd_figures", "cli.figures"),
    ("decwt.cli", "cmd_verify", "cli.verify"),
)

# Counts taken from a wrapped call's arguments once it has returned:
# span name -> (counter, function of the bound arguments).
COUNTERS = {
    "marginal_dynamics.rk4": ("marginal_dynamics.rk4.steps",
                              lambda a: round(a["t_end"] / a["dt"])),
    "fields.ckpt_write": ("fields.ckpt_write.bytes", lambda a: os.path.getsize(a["path"])),
    "fields.ckpt_read": ("fields.ckpt_read.bytes", lambda a: os.path.getsize(a["path"])),
    "svgplot.write": ("svgplot.bytes", lambda a: os.path.getsize(a["path"])),
}

LAYERS = ("scenario", "fields", "gaussian", "marginal_dynamics", "master_eq",
          "lse", "gfunc", "observables", "svgplot", "cli")

# numpy FFTs are timed only when a Strang step calls them; elsewhere (LSE,
# g-table) they stay inside their caller's self time.
FFT_NAMES = ("fft2", "ifft2")
FFT_PARENT = "master_eq.step"


@dataclass
class Tracer:
    """Span store plus the stack of open spans (single-threaded)."""

    spans: list = field(default_factory=list)
    unit: int = 0
    counters: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][0] if self._stack else None
        sid, unit = len(self.spans), self.unit
        self.spans.append(None)  # reserve the id; filled on exit
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, unit)

    def current(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    def count(self, key: str, n: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + n


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans.

    Child intervals are clipped to the parent and merged before they are
    subtracted, so overlapping or overhanging children are not counted twice.
    """
    children: dict = {}
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = _union_length(children.get(sid, ()), start, end)
        out[sid] = (end - start) - covered
    return out


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def covered_time(spans) -> float:
    """Time covered by root spans (those with no parent)."""
    roots = [(s[2], s[3]) for s in spans if s[4] is None]
    return _union_length(roots, -math.inf, math.inf)


def _resolve(module, path: str):
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class instrument:
    """Context manager: wrap every entry of WRAPPED (and the FFTs under a
    Strang step) so that calls record spans into ``tracer``."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list = []

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        tracer = self.tracer
        modules = {name: importlib.import_module(name)
                   for name in {m for m, _, _ in WRAPPED} | {"decwt"}}
        try:
            for mod_name, path, span in WRAPPED:
                owner, attr = _resolve(modules[mod_name], path)
                original = owner.__dict__[attr]
                wrapper = _timed(tracer, span, original)
                self._set(owner, attr, wrapper)
                if owner is modules[mod_name]:
                    # names other decwt modules imported with "from ... import"
                    for other in modules.values():
                        if other is not owner and other.__dict__.get(attr) is original:
                            self._set(other, attr, wrapper)
            for name in FFT_NAMES:
                self._set(np.fft, name, _fft_timed(tracer, getattr(np.fft, name)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return tracer

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


def _timed(tracer: Tracer, span: str, fn):
    if span not in COUNTERS:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(span, fn, *args, **kwargs)
        return wrapper

    counter, amount = COUNTERS[span]
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = tracer.call(span, fn, *args, **kwargs)
        tracer.count(counter, amount(signature.bind(*args, **kwargs).arguments))
        return result
    return counted


def _fft_timed(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.current() != FFT_PARENT:
            return fn(*args, **kwargs)
        return tracer.call("master_eq.fft", fn, *args, **kwargs)
    return wrapper
