"""Analysis framework: frames in, accumulated science out.

Each analysis consumes :class:`Frame` objects (one per invocation — in
the coupled workflow, one per synchronization) and accumulates results
across frames, as LAMMPS' built-in computes do. The in-situ coupler
hands analyses the frames reconstructed from the simulation partition's
snapshots; the standalone examples feed them directly from a local
engine.

``work_estimate`` reports an operation count for the frame just
processed — the calibration bridge uses it to assign the DES proxy's
per-analysis work units from *measured* behaviour of the real code.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.md.system import ParticleSystem
from repro.util.scatter import scatter_add

__all__ = ["Analysis", "Frame", "frame_from_system", "molecule_centers"]


@dataclass(frozen=True)
class Frame:
    """One analysis input: the state shipped at a synchronization."""

    step: int
    time: float
    box_lengths: np.ndarray
    positions: np.ndarray  # unwrapped (n, 3)
    velocities: np.ndarray
    types: np.ndarray
    molecule_ids: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.positions)
        if (
            self.velocities.shape != (n, 3)
            or len(self.types) != n
            or len(self.molecule_ids) != n
        ):
            raise ValueError("frame arrays must align")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)


def frame_from_system(
    system: ParticleSystem, step: int, time: float
) -> Frame:
    """Build a whole-system frame (the analyses' standalone entry)."""
    return Frame(
        step=step,
        time=time,
        box_lengths=system.box.lengths.copy(),
        positions=system.unwrapped_positions(),
        velocities=system.velocities.copy(),
        types=system.types.copy(),
        molecule_ids=system.molecule_ids.copy(),
    )


def molecule_centers(
    frame: Frame, masses: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Center-of-mass position and velocity per molecule.

    Returns ``(mol_ids, com_positions, com_velocities)``, one row per
    molecule in ascending id order. An atom with a negative id is
    monoatomic and is its own molecule: each such atom gets its own
    center, ahead of the molecules and keeping its id. The paper's
    analyses are "averaged over all molecules", so every MSD / VACF
    variant works on these centers.
    """
    ids = frame.molecule_ids
    # -n .. -1 in atom order: distinct keys below every molecule id
    keys = np.where(ids < 0, np.arange(len(ids)) - len(ids), ids)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    mols = ids[first]
    m = masses[:, None]
    total_m = scatter_add(np.zeros((len(mols), 1)), inverse, m)
    com_pos = scatter_add(
        np.zeros((len(mols), 3)), inverse, m * frame.positions
    )
    com_vel = scatter_add(
        np.zeros((len(mols), 3)), inverse, m * frame.velocities
    )
    return mols, com_pos / total_m, com_vel / total_m


class Analysis(abc.ABC):
    """Base class for in-situ analyses."""

    #: short identifier used by workload profiles and reports
    name: str = "analysis"

    def __init__(self) -> None:
        self.frames_seen = 0
        self._last_work = 0

    # ------------------------------------------------------------------
    def update(self, frame: Frame) -> None:
        """Process one frame."""
        self._last_work = self._process(frame)
        self.frames_seen += 1

    @abc.abstractmethod
    def _process(self, frame: Frame) -> int:
        """Do the work; return an operation-count estimate."""

    @abc.abstractmethod
    def result(self):
        """Current accumulated result."""

    @property
    def work_estimate(self) -> int:
        """Operation count of the most recent frame."""
        return self._last_work

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} frames={self.frames_seen}>"
