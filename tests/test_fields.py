"""Checkpoint codec round-trips and the atomic file write."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decwt.fields import (
    ComplexField1D,
    ComplexField2D,
    atomic_open,
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


def test_atomic_open_failure_keeps_old_file_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(path) as fh:
            fh.write("partial")
            raise RuntimeError("mid-write")
    assert path.read_text() == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


def test_truncated_file_rejected(tmp_path):
    grid = GridSpec2D(n_y=16, n_z=16, extent_y=3.0, extent_z=3.0)
    f = ComplexField2D(np.ones((16, 16), dtype=complex), grid, t=0.0)
    path = tmp_path / "ck.bin"
    save_field_2d(path, f)
    data = path.read_bytes()
    path.write_bytes(data[:-17])
    with pytest.raises(ValueError):
        load_field_2d(path)


@st.composite
def _fields(draw):
    n_y, n_z = (draw(st.sampled_from([8, 16, 32])) for _ in range(2))
    extent = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    grid = GridSpec2D(n_y, n_z, draw(extent), draw(extent))
    # re/im pairs; signed zeros, infinities and NaNs included
    parts = draw(arrays(np.float64, (n_y, n_z, 2),
                        elements=st.floats(allow_nan=True, width=64)))
    return ComplexField2D(parts.view(np.complex128)[..., 0], grid,
                          t=draw(st.floats(allow_nan=False)))


@settings(deadline=None, max_examples=50)
@given(_fields())
def test_field_2d_roundtrips_byte_for_byte(tmp_path_factory, f):
    path = tmp_path_factory.mktemp("ck") / "f.ckpt"
    save_field_2d(path, f)
    g = load_field_2d(path)
    assert g.grid == f.grid
    assert np.float64(g.t).tobytes() == np.float64(f.t).tobytes()
    assert g.values.tobytes() == f.values.tobytes()
    save_field_2d(path.with_suffix(".again"), g)
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


def test_every_truncation_is_refused(tmp_path):
    grid = GridSpec2D(n_y=8, n_z=8, extent_y=3.0, extent_z=3.0)
    rng = np.random.default_rng(3)
    f = ComplexField2D(rng.standard_normal((8, 8)) + 1j, grid, t=0.5)
    path = tmp_path / "ck.bin"
    save_field_2d(path, f)
    data = path.read_bytes()
    for cut in range(len(data)):  # header cuts and payload cuts alike
        path.write_bytes(data[:cut])
        with pytest.raises(ValueError):
            load_field_2d(path)


@settings(deadline=None, max_examples=50)
@given(_fields(), st.data())
def test_random_truncation_is_refused(tmp_path_factory, f, data):
    path = tmp_path_factory.mktemp("ck") / "f.ckpt"
    save_field_2d(path, f)
    raw = path.read_bytes()
    path.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError):
        load_field_2d(path)


def test_norm_1d():
    grid = GridSpec1D(n_points=512, extent=16.0)
    tau = grid.points()
    vals = (0.5 / np.pi) ** 0.25 * np.exp(-0.25 * tau ** 2)
    f = ComplexField1D(vals.astype(complex), grid, t=0.0)
    assert abs(f.norm() - 1.0) < 1e-12
