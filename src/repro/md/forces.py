"""Force field: Lennard-Jones + screened Coulomb + harmonic bonds.

A deliberately compact but real force field:

* **Pair forces** act on the neighbor-list pairs: truncated-and-shifted
  Lennard-Jones with per-type-pair (epsilon, sigma) from
  Lorentz–Berthelot mixing, plus a Yukawa-screened Coulomb term
  ``q_i q_j exp(-kappa r) / r`` (short-ranged, so no Ewald machinery is
  needed — the paper's controllers never depend on electrostatics
  accuracy, only on the force loop being a genuine compute-bound
  kernel).
* **Bond forces**: harmonic O–H bonds inside water molecules.

Everything is vectorized over the pair list; the returned
:class:`ForceResult` carries the potential energy and the pair count,
which the workload calibration uses as the operation-count anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.neighbor import NeighborList
from repro.md.system import CHARGES, ParticleSystem
from repro.util.scatter import scatter_add_pairs

__all__ = ["ForceField", "ForceResult"]


def _lorentz_berthelot(eps: np.ndarray, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eps_pair = np.sqrt(eps[:, None] * eps[None, :])
    sig_pair = 0.5 * (sig[:, None] + sig[None, :])
    return eps_pair, sig_pair


@dataclass
class ForceResult:
    forces: np.ndarray  # (n, 3)
    potential_energy: float
    pair_count: int
    bond_count: int


class ForceField:
    """Parameters and evaluation of the water/ion force field."""

    def __init__(
        self,
        cutoff: float = 2.5,
        kappa: float = 2.0,
        coulomb_strength: float = 0.5,
        bond_k: float = 400.0,
        bond_r0: float = 0.32,
    ) -> None:
        if cutoff <= 0:
            raise ValueError("cutoff must be positive")
        self.cutoff = cutoff
        self.kappa = kappa
        self.coulomb_strength = coulomb_strength
        self.bond_k = bond_k
        self.bond_r0 = bond_r0
        # per-species LJ parameters: O, H, CAT, AN
        eps = np.array([1.0, 0.2, 0.8, 0.8])
        sig = np.array([1.0, 0.5, 0.9, 1.1])
        self.eps_pair, self.sig_pair = _lorentz_berthelot(eps, sig)

    # ------------------------------------------------------------------
    def _pair_forces(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> tuple[np.ndarray, float, int]:
        pos = system.positions
        box = system.box
        pairs = nlist.pairs
        if len(pairs) == 0:
            return np.zeros_like(pos), 0.0, 0
        i, j = pairs[:, 0], pairs[:, 1]
        dr = box.minimum_image(pos[i] - pos[j])
        r2 = (dr**2).sum(axis=1)
        within = r2 <= self.cutoff**2
        # exclude bonded pairs (intramolecular O-H handled by bonds);
        # -1 marks a monoatomic atom, which shares a molecule with none
        mol_i = system.molecule_ids[i]
        same_mol = (mol_i == system.molecule_ids[j]) & (mol_i >= 0)
        keep = within & ~same_mol
        i, j, dr, r2 = i[keep], j[keep], dr[keep], r2[keep]
        if len(i) == 0:
            return np.zeros_like(pos), 0.0, 0
        r = np.sqrt(r2)

        ti, tj = system.types[i], system.types[j]
        eps = self.eps_pair[ti, tj]
        sig = self.sig_pair[ti, tj]
        sr6 = (sig**2 / r2) ** 3
        sr12 = sr6**2
        # truncated & shifted LJ energy
        sr6_c = (sig / self.cutoff) ** 6
        e_lj = 4.0 * eps * (sr12 - sr6) - 4.0 * eps * (sr6_c**2 - sr6_c)
        # dU/dr * (1/r) factor for LJ
        f_lj_over_r = 24.0 * eps * (2.0 * sr12 - sr6) / r2

        qq = (
            self.coulomb_strength
            * CHARGES[ti]
            * CHARGES[tj]
        )
        screen = np.exp(-self.kappa * r)
        e_coul = qq * screen / r
        f_coul_over_r = qq * screen * (1.0 + self.kappa * r) / (r2 * r)

        f_over_r = f_lj_over_r + f_coul_over_r
        fvec = f_over_r[:, None] * dr
        forces = scatter_add_pairs(len(pos), i, j, fvec)
        return forces, float(np.sum(e_lj + e_coul)), len(i)

    def _bond_forces(
        self, system: ParticleSystem
    ) -> tuple[np.ndarray, float, int]:
        bonds = system.bonds
        if len(bonds) == 0:
            return np.zeros_like(system.positions), 0.0, 0
        i, j = bonds[:, 0], bonds[:, 1]
        dr = system.box.minimum_image(
            system.positions[i] - system.positions[j]
        )
        r = np.linalg.norm(dr, axis=1)
        stretch = r - self.bond_r0
        energy = 0.5 * self.bond_k * stretch**2
        # F_i = -k (r - r0) * dr/r
        f = (-self.bond_k * stretch / np.maximum(r, 1e-12))[:, None] * dr
        forces = scatter_add_pairs(system.n_atoms, i, j, f)
        return forces, float(energy.sum()), len(bonds)

    # ------------------------------------------------------------------
    def compute(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> ForceResult:
        """Total forces and potential energy (paper's step 6 kernel)."""
        f_pair, e_pair, n_pairs = self._pair_forces(system, nlist)
        f_bond, e_bond, n_bonds = self._bond_forces(system)
        return ForceResult(
            forces=f_pair + f_bond,
            potential_energy=e_pair + e_bond,
            pair_count=n_pairs,
            bond_count=n_bonds,
        )
