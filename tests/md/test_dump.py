"""Tests for the trajectory writers/readers."""

import io

import numpy as np
import pytest

from repro.md.dump import read_lammps_dump, write_lammps_dump
from repro.md.system import water_ion_box


@pytest.fixture(scope="module")
def system():
    return water_ion_box(dim=1, seed=1)


def test_dump_roundtrip(system):
    buf = io.StringIO()
    write_lammps_dump(buf, system, step=3)
    buf.seek(0)
    frames = read_lammps_dump(buf)
    assert len(frames) == 1
    f = frames[0]
    assert f["step"] == 3
    assert np.allclose(f["box_lengths"], system.box.lengths)
    assert np.array_equal(f["types"], system.types)
    assert np.allclose(f["positions"], system.positions, atol=1e-4)


def test_multiple_frames_append(system):
    buf = io.StringIO()
    write_lammps_dump(buf, system, step=0)
    write_lammps_dump(buf, system, step=10)
    buf.seek(0)
    frames = read_lammps_dump(buf)
    assert [f["step"] for f in frames] == [0, 10]


def test_file_path_targets(system, tmp_path):
    path = tmp_path / "traj.dump"
    write_lammps_dump(path, system, step=1)
    write_lammps_dump(path, system, step=2)
    frames = read_lammps_dump(path)
    assert len(frames) == 2


def test_malformed_dump_rejected():
    with pytest.raises(ValueError):
        read_lammps_dump(io.StringIO("not a dump\n"))
