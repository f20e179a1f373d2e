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

**Columnar layout.** The pair kernel is the paper's step-6 force loop,
the compute-bound kernel of the in-situ path, so it works on 1-D
per-axis columns rather than ``(pairs, 3)`` rows: each axis's
separation is two ``take`` gathers and the minimum image
``d - L[k] * round(d / L[k])``; the pairs within the cutoff are
selected once as an index array (``flatnonzero``) and every column is
gathered by it. The per-pair constants (epsilon, sigma², the LJ shift
at the cutoff and the charge product) and the same-molecule exclusion
depend only on the pairs, the atom types and the molecule ids, so a
:class:`_PairTable` of the non-bonded candidate pairs and their
constants is built once per :class:`~repro.md.neighbor.NeighborList`
and kept on it. Its invariant: a system's types and molecule ids are
fixed for its lifetime, and a force field's parameters are fixed once
it has evaluated forces. The table records the force field and the
type and molecule-id arrays it was built for and is rebuilt when
evaluated against any other; a rebuilt neighbor list starts without
one.

**Scratch.** Every candidate-length and kept-length column of the
kernel is a view of one ``(9, cap)`` block of 8-byte words that the
force field owns (:meth:`ForceField._scratch`): allocated on its first
non-empty evaluation, regrown only for a list with more candidates than
``cap``, and reused by every later call, whichever list it evaluates.
A row is reused within a call once its values are consumed, and the
scatter's stacked indices and weights live in consumed rows too. Only
the returned forces and the kept-pair index array are fresh per call,
and one force field must not evaluate from two threads at once.

**Bit-identity.** The columnar kernel gives bit-identical forces and
energies to the row-wise one it replaced (``tests/md/test_forces.py``
keeps that one as its reference): every float expression is the same
element for element, ``out=`` arguments and in-place updates only
choose where a result is written, ``r2`` sums the squares as
``(dx*dx + dy*dy) + dz*dz``, the order of a 3-element row sum, and the
pairs keep their neighbor-list order, so the energy sum (a pairwise
``np.sum`` over a scratch row of the kept length) and the
``i``-then-``j`` force scatter visit the same values in the same
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.neighbor import NeighborList
from repro.md.system import CHARGES, ParticleSystem
from repro.util.scatter import scatter_add_pairs, scatter_add_stacked

__all__ = ["ForceField", "ForceResult"]


def _lorentz_berthelot(eps: np.ndarray, sig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    eps_pair = np.sqrt(eps[:, None] * eps[None, :])
    sig_pair = 0.5 * (sig[:, None] + sig[None, :])
    return eps_pair, sig_pair


@dataclass(frozen=True)
class _PairTable:
    """A neighbor list's non-bonded candidate pairs, contiguous, with
    their per-pair constants, for one force field and one system."""

    force_field: "ForceField"
    types: np.ndarray
    molecule_ids: np.ndarray
    i: np.ndarray
    j: np.ndarray
    eps: np.ndarray
    sig2: np.ndarray
    shift: np.ndarray  # LJ energy at the cutoff
    qq: np.ndarray  # coulomb_strength * q_i * q_j


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
        self._rows: np.ndarray | None = None  # see :meth:`_scratch`

    # ------------------------------------------------------------------
    def _pair_table(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> _PairTable:
        """The list's table for this force field and system, built on
        first use and kept on the list until the list is replaced."""
        table = nlist.pair_table
        if (
            isinstance(table, _PairTable)
            and table.force_field is self
            and table.types is system.types
            and table.molecule_ids is system.molecule_ids
        ):
            return table
        pairs = nlist.pairs
        # exclude bonded pairs (intramolecular O-H handled by bonds);
        # -1 marks a monoatomic atom, which shares a molecule with none
        mol_i = system.molecule_ids[pairs[:, 0]]
        same_mol = (mol_i == system.molecule_ids[pairs[:, 1]]) & (mol_i >= 0)
        candidates = np.flatnonzero(~same_mol)
        i = pairs[:, 0].take(candidates)
        j = pairs[:, 1].take(candidates)
        ti, tj = system.types[i], system.types[j]
        eps = self.eps_pair[ti, tj]
        sig = self.sig_pair[ti, tj]
        # truncated & shifted LJ: the energy shift at the cutoff
        sr6_c = (sig / self.cutoff) ** 6
        table = _PairTable(
            force_field=self,
            types=system.types,
            molecule_ids=system.molecule_ids,
            i=i,
            j=j,
            eps=eps,
            sig2=sig**2,
            shift=4.0 * eps * (sr6_c**2 - sr6_c),
            qq=self.coulomb_strength * CHARGES[ti] * CHARGES[tj],
        )
        nlist.pair_table = table
        return table

    def _scratch(self, c: int) -> np.ndarray:
        """The pair kernel's scratch for ``c`` candidate pairs: a
        ``(9, cap)`` block of 8-byte words, ``cap >= c``, kept on the
        force field and regrown, with some headroom, only for a list
        with more candidates than it holds."""
        rows = self._rows
        if rows is None or rows.shape[1] < c:
            cap = -(-(c + c // 32) // 8) * 8  # a multiple of 8
            self._rows = rows = np.empty((9, cap))
        return rows

    def _pair_forces(
        self, system: ParticleSystem, nlist: NeighborList
    ) -> tuple[np.ndarray, float, int]:
        pos = system.positions
        table = self._pair_table(system, nlist)
        c = len(table.i)
        if c == 0:
            return np.zeros_like(pos), 0.0, 0
        # Every column below is a view of one scratch row: rows 0-2 hold
        # the candidates' separations, 3 a temporary, 4 r2, and 5 the
        # cutoff mask; once a row's values are consumed it is reused.
        rows = self._scratch(c)
        cap = rows.shape[1]
        # per-axis minimum-image separations of the candidate pairs;
        # every gather below has mode="clip" because the default "raise"
        # writes through a temporary copy of ``out`` (its indices are in
        # range by construction, so the clip never acts)
        xyz = np.ascontiguousarray(pos.T)
        lengths = system.box.lengths
        sep = rows[:3, :c]
        t = rows[3, :c]
        for k in range(3):
            d = xyz[k].take(table.i, out=sep[k], mode="clip")
            d -= xyz[k].take(table.j, out=t, mode="clip")
            q = np.divide(d, lengths[k], out=t)
            np.round(q, out=q)
            q *= lengths[k]
            d -= q
        dx, dy, dz = sep
        r2 = np.multiply(dx, dx, out=rows[4, :c])
        r2 += np.multiply(dy, dy, out=t)
        r2 += np.multiply(dz, dz, out=t)
        mask = rows[5].view(bool)[:c]
        keep = np.flatnonzero(np.less_equal(r2, self.cutoff**2, out=mask))
        m = len(keep)
        if m == 0:
            return np.zeros_like(pos), 0.0, 0
        # (3, m) separations of the kept pairs, scaled to forces below
        fvec = rows[5:8, :m]
        for k in range(3):
            sep[k].take(keep, out=fvec[k], mode="clip")
        r2 = r2.take(keep, out=rows[3, :m], mode="clip")
        r = np.sqrt(r2, out=rows[4, :m])

        # The in-place updates below evaluate, element for element,
        #   sr6 = (sig**2 / r2) ** 3,  sr12 = sr6**2,
        #   e_lj = 4 eps (sr12 - sr6) - shift,
        #   f_lj / r = 24 eps (2 sr12 - sr6) / r2,
        #   e_coul = qq screen / r,  screen = exp(-kappa r),
        #   f_coul / r = qq screen (1 + kappa r) / (r2 r),
        # grouped as written (left to right); an in-place product may
        # swap its two operands, which IEEE multiplication allows.
        sr6 = table.sig2.take(keep, out=rows[0, :m], mode="clip")
        sr6 /= r2
        sr6 **= 3
        sr12 = np.multiply(sr6, sr6, out=rows[1, :m])
        energy = np.subtract(sr12, sr6, out=rows[2, :m])
        # dU/dr * (1/r) factor for LJ
        f_over_r = np.multiply(2.0, sr12, out=sr12)
        f_over_r -= sr6
        # truncated & shifted LJ energy
        eps = table.eps.take(keep, out=rows[8, :m], mode="clip")
        energy *= np.multiply(4.0, eps, out=sr6)
        energy -= table.shift.take(keep, out=sr6, mode="clip")
        eps *= 24.0
        f_over_r *= eps
        f_over_r /= r2

        qq_screen = table.qq.take(keep, out=eps, mode="clip")
        screen = np.multiply(-self.kappa, r, out=sr6)
        qq_screen *= np.exp(screen, out=screen)
        energy += np.divide(qq_screen, r, out=screen)
        r2 *= r
        r *= self.kappa
        r += 1.0
        r *= qq_screen
        r /= r2
        f_over_r += r

        fvec *= f_over_r
        energy = float(np.sum(energy))
        # the scatter's weights and its stacked [i; j] indices, in rows
        # 0-1 and 2-3
        flat = rows.reshape(-1)
        idx = flat[2 * cap : 2 * cap + 2 * m].view(np.intp)
        table.i.take(keep, out=idx[:m], mode="clip")
        table.j.take(keep, out=idx[m:], mode="clip")
        forces = scatter_add_stacked(len(pos), idx, fvec.T, flat[: 2 * m])
        return forces, energy, m

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
