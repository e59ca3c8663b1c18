"""Grid-sampled complex fields, the binary checkpoint codec, and the atomic
file write that every CLI output goes through.

Checkpoint layout (little-endian): a 2-D field is
``int64 n_y | int64 n_z | f64 extent_y | f64 extent_z | f64 t`` followed by the
values as row-major complex128 (interleaved re/im doubles).
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager, suppress
from dataclasses import dataclass

import numpy as np

from .scenario import GridSpec1D, GridSpec2D

_HDR2 = struct.Struct("<qqddd")


@dataclass
class ComplexField1D:
    values: np.ndarray  # complex128, shape (n_points,)
    grid: GridSpec1D
    t: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.grid.n_points,):
            raise ValueError(f"values shape {self.values.shape} != grid ({self.grid.n_points},)")

    def norm(self) -> float:
        """L2 norm, trapezoid on the periodic grid."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.spacing))


@dataclass
class ComplexField2D:
    values: np.ndarray  # complex128, shape (n_y, n_z); axis 0 is y, axis 1 is z
    grid: GridSpec2D
    t: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        expect = (self.grid.n_y, self.grid.n_z)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != grid {expect}")


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file beside path for writing (text is UTF-8) and rename it
    onto path when the block exits cleanly; if it raises, the temp file is
    removed. Either way path never holds a partial file."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, os.fspath(path))
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_field_2d(path, f: ComplexField2D) -> None:
    g = f.grid
    with atomic_open(path, "wb") as fh:
        fh.write(_HDR2.pack(g.n_y, g.n_z, g.extent_y, g.extent_z, f.t))
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").data)  # no copy


def load_field_2d(path) -> ComplexField2D:
    with open(path, "rb") as fh:
        raw = fh.read(_HDR2.size)
        if len(raw) != _HDR2.size:
            raise ValueError("truncated checkpoint header")
        n_y, n_z, ey, ez, t = _HDR2.unpack(raw)
        payload = fh.read()
    expect = n_y * n_z * 16
    if len(payload) != expect:
        raise ValueError(f"checkpoint payload {len(payload)} bytes, expected {expect}")
    values = np.frombuffer(payload, dtype="<c16").reshape(n_y, n_z).astype(np.complex128)
    return ComplexField2D(values, GridSpec2D(n_y, n_z, ey, ez), t)

