"""Spatial domain decomposition for distributed simulation ranks.

LAMMPS divides the box into sub-volumes assigned to individual MPI
ranks (§V). For the in-situ coupler we decompose along a regular grid
of slabs/bricks, provide atom→rank assignment, and snapshot extraction
per rank (what a sim rank ships to its paired analysis rank in
Splitanalysis step 2: "particle coordinates and velocities").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.system import ParticleSystem

__all__ = ["DomainDecomposition", "Snapshot", "grid_for_ranks"]


def grid_for_ranks(n_ranks: int) -> tuple[int, int, int]:
    """Near-cubic process grid with ``prod(grid) == n_ranks``.

    Chooses the factorization minimizing surface area, like LAMMPS'
    default processor grid.
    """
    if n_ranks <= 0:
        raise ValueError("need at least one rank")
    best = (n_ranks, 1, 1)
    best_surface = float("inf")
    for nx in range(1, n_ranks + 1):
        if n_ranks % nx:
            continue
        rem = n_ranks // nx
        for ny in range(1, rem + 1):
            if rem % ny:
                continue
            nz = rem // ny
            surface = nx * ny + ny * nz + nx * nz
            if surface < best_surface:
                best_surface = surface
                best = (nx, ny, nz)
    return best


@dataclass(frozen=True)
class Snapshot:
    """Per-rank particle data shipped to the analysis partition."""

    step: int
    positions: np.ndarray  # unwrapped coordinates (n_local, 3)
    velocities: np.ndarray
    types: np.ndarray
    molecule_ids: np.ndarray
    atom_ids: np.ndarray  # global indices, for verification (step 4)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def nbytes(self) -> int:
        """Wire size of the snapshot (coordinates + velocities dominate:
        6 doubles/atom, as in the paper's exchange)."""
        return int(
            self.positions.nbytes
            + self.velocities.nbytes
            + self.types.nbytes
            + self.molecule_ids.nbytes
            + self.atom_ids.nbytes
        )


class DomainDecomposition:
    """Assigns atoms of a system to a regular grid of ranks."""

    def __init__(self, system: ParticleSystem, n_ranks: int) -> None:
        self.system = system
        self.n_ranks = n_ranks
        self.grid = grid_for_ranks(n_ranks)

    def rank_of_atoms(self) -> np.ndarray:
        """Owning rank per atom from its (wrapped) position."""
        g = np.array(self.grid)
        cell = self.system.box.lengths / g
        coords = np.floor(self.system.positions / cell).astype(int)
        coords = np.minimum(coords, g - 1)  # atoms exactly at the edge
        return (coords[:, 0] * g[1] + coords[:, 1]) * g[2] + coords[:, 2]

    def atoms_of_rank(self, rank: int) -> np.ndarray:
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return np.where(self.rank_of_atoms() == rank)[0]

    def snapshot(self, rank: int, step: int) -> Snapshot:
        """Extract the rank's particles for the in-situ exchange."""
        idx = self.atoms_of_rank(rank)
        sys_ = self.system
        return Snapshot(
            step=step,
            positions=sys_.unwrapped_positions()[idx].copy(),
            velocities=sys_.velocities[idx].copy(),
            types=sys_.types[idx].copy(),
            molecule_ids=sys_.molecule_ids[idx].copy(),
            atom_ids=idx.copy(),
        )

    def snapshot_all(self, step: int) -> list[Snapshot]:
        """Every rank's :meth:`snapshot` in one pass over the system.

        Computes the atom→rank map and the unwrapped coordinates once
        instead of once per rank; each returned snapshot is bit-identical
        to the corresponding ``snapshot(rank, step)``. The in-situ
        trajectory (:mod:`repro.insitu.replica`) stores one such batch
        per synchronization.
        """
        sys_ = self.system
        ranks = self.rank_of_atoms()
        unwrapped = sys_.unwrapped_positions()
        out = []
        for rank in range(self.n_ranks):
            idx = np.where(ranks == rank)[0]
            out.append(
                Snapshot(
                    step=step,
                    positions=unwrapped[idx],
                    velocities=sys_.velocities[idx],
                    types=sys_.types[idx],
                    molecule_ids=sys_.molecule_ids[idx],
                    atom_ids=idx,
                )
            )
        return out

    def counts(self) -> np.ndarray:
        """Atoms per rank (load-balance diagnostics; step 4's particle
        count verification uses these numbers)."""
        return np.bincount(self.rank_of_atoms(), minlength=self.n_ranks)
