"""Trajectory output: the LAMMPS-dump writer and reader.

The paper's step 8 ("optional output of state") and the thermodynamic
output make the simulation's I/O phase; this module provides the
actual writer so the examples can persist trajectories, and so the
in-situ coupler's output phase corresponds to real bytes. The format
is the LAMMPS dump (``atom`` style): id/type/xs/ys/zs with box bounds,
readable by OVITO/VMD and by :func:`read_lammps_dump` below.
"""

from __future__ import annotations

from pathlib import Path
from typing import TextIO

import numpy as np

from repro.md.system import ParticleSystem

__all__ = [
    "read_lammps_dump",
    "write_lammps_dump",
]


def _as_handle(target) -> tuple[TextIO, bool]:
    if isinstance(target, (str, Path)):
        return open(target, "a"), True
    return target, False


def write_lammps_dump(
    target,
    system: ParticleSystem,
    step: int = 0,
) -> None:
    """Append one LAMMPS ``dump atom``-style frame (scaled coords)."""
    handle, owned = _as_handle(target)
    try:
        scaled = system.positions / system.box.lengths
        handle.write("ITEM: TIMESTEP\n")
        handle.write(f"{step}\n")
        handle.write("ITEM: NUMBER OF ATOMS\n")
        handle.write(f"{system.n_atoms}\n")
        handle.write("ITEM: BOX BOUNDS pp pp pp\n")
        for length in system.box.lengths:
            handle.write(f"0.0 {length:.6f}\n")
        handle.write("ITEM: ATOMS id type xs ys zs\n")
        for i, (t, (x, y, z)) in enumerate(zip(system.types, scaled)):
            handle.write(f"{i + 1} {int(t) + 1} {x:.6f} {y:.6f} {z:.6f}\n")
    finally:
        if owned:
            handle.close()


def read_lammps_dump(target) -> list[dict]:
    """Parse frames written by :func:`write_lammps_dump`.

    Returns a list of dicts with ``step``, ``box_lengths`` (3-vector),
    ``types`` (0-based, (n,)) and ``positions`` (unscaled, (n, 3)).
    """
    if isinstance(target, (str, Path)):
        text = Path(target).read_text()
    else:
        text = target.read()
    lines = text.splitlines()
    frames: list[dict] = []
    i = 0
    while i < len(lines):
        if not lines[i].startswith("ITEM: TIMESTEP"):
            raise ValueError(f"malformed dump at line {i + 1}")
        step = int(lines[i + 1])
        if not lines[i + 2].startswith("ITEM: NUMBER OF ATOMS"):
            raise ValueError("missing atom-count header")
        n = int(lines[i + 3])
        if not lines[i + 4].startswith("ITEM: BOX BOUNDS"):
            raise ValueError("missing box header")
        box = np.array(
            [float(lines[i + 5 + d].split()[1]) for d in range(3)]
        )
        if not lines[i + 8].startswith("ITEM: ATOMS"):
            raise ValueError("missing atoms header")
        body = lines[i + 9 : i + 9 + n]
        if len(body) != n:
            raise ValueError("truncated frame")
        rows = np.array([[float(v) for v in ln.split()] for ln in body])
        order = np.argsort(rows[:, 0])
        rows = rows[order]
        frames.append(
            {
                "step": step,
                "box_lengths": box,
                "types": rows[:, 1].astype(int) - 1,
                "positions": rows[:, 2:5] * box,
            }
        )
        i += 9 + n
    return frames
