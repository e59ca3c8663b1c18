"""Checkpoint codec round-trips."""
import numpy as np
import pytest

from decwt.fields import (
    ComplexField1D,
    ComplexField2D,
    load_field_2d,
    save_field_2d,
)
from decwt.scenario import GridSpec1D, GridSpec2D


def test_field_2d_roundtrip_bits(tmp_path):
    rng = np.random.default_rng(7)
    grid = GridSpec2D(n_y=16, n_z=32, extent_y=3.0, extent_z=6.0)
    vals = (rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
    f = ComplexField2D(vals, grid, t=0.625)
    path = tmp_path / "ck.bin"
    save_field_2d(path, f)
    g = load_field_2d(path)
    assert g.t == 0.625
    assert g.grid == grid
    assert np.array_equal(g.values, vals)  # bit exact, no tolerance


def test_truncated_file_rejected(tmp_path):
    grid = GridSpec2D(n_y=16, n_z=16, extent_y=3.0, extent_z=3.0)
    f = ComplexField2D(np.ones((16, 16), dtype=complex), grid, t=0.0)
    path = tmp_path / "ck.bin"
    save_field_2d(path, f)
    data = path.read_bytes()
    path.write_bytes(data[:-17])
    with pytest.raises(ValueError):
        load_field_2d(path)


def test_norm_1d():
    grid = GridSpec1D(n_points=512, extent=16.0)
    tau = grid.points()
    vals = (0.5 / np.pi) ** 0.25 * np.exp(-0.25 * tau ** 2)
    f = ComplexField1D(vals.astype(complex), grid, t=0.0)
    assert abs(f.norm() - 1.0) < 1e-12
