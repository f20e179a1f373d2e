"""Neighbor finding with a Verlet skin.

LAMMPS builds neighbor lists from a link-cell decomposition and
rebuilds them only when atoms have moved more than half the skin
distance — the paper's step 5 ("both partitions update neighbor
lists") is this operation. We reproduce the same *structure*
(half-neighbor pairs within ``cutoff + skin``, half-skin rebuild
criterion) and use :class:`scipy.spatial.cKDTree` with a periodic
``boxsize`` for the pair search itself — profiling showed a pure-Python
cell loop dominating step time (guide rule: measure, then pick the
better algorithm; the tree is the vectorized/compiled path available
offline).

A direct O(n²) minimum-image search remains as the fallback for boxes
too small for the periodic KD-tree (it requires the search radius to be
under half the box edge) and as the reference implementation the
property tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from repro.md.box import Box

__all__ = ["NeighborList", "build_neighbor_list"]


def _pairs_bruteforce(
    positions: np.ndarray, box: Box, cutoff: float
) -> np.ndarray:
    """Reference O(n²) minimum-image pair search."""
    n = len(positions)
    ii, jj = np.triu_indices(n, k=1)
    d = box.distance(positions[ii], positions[jj])
    keep = d <= cutoff
    return np.stack([ii[keep], jj[keep]], axis=1)


def _pairs_within(
    positions: np.ndarray, box: Box, cutoff: float
) -> np.ndarray:
    """All unique (i < j) pairs within ``cutoff`` (periodic)."""
    n = len(positions)
    if n < 2:
        return np.zeros((0, 2), dtype=np.int64)
    if cutoff >= 0.5 * float(box.lengths.min()):
        # Periodic KD-tree needs r < L/2; tiny test boxes fall back.
        return _pairs_bruteforce(positions, box, cutoff)
    wrapped = box.wrap(positions)
    # boxsize demands coordinates strictly inside [0, L)
    wrapped = np.minimum(wrapped, np.nextafter(box.lengths, 0.0))
    tree = cKDTree(wrapped, boxsize=box.lengths)
    pairs = tree.query_pairs(cutoff, output_type="ndarray")
    if pairs.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    lo = np.minimum(pairs[:, 0], pairs[:, 1])
    hi = np.maximum(pairs[:, 0], pairs[:, 1])
    return np.stack([lo, hi], axis=1).astype(np.int64)


@dataclass
class NeighborList:
    """Half-neighbor pairs and the rebuild bookkeeping."""

    pairs: np.ndarray  # (m, 2) with i < j
    cutoff: float
    skin: float
    build_positions: np.ndarray  # positions at build time
    #: scratch buffers for the per-step rebuild criterion — the check
    #: runs every Verlet step, so the displacement temporaries are
    #: reused across calls instead of reallocated (3 (n, 3) arrays per
    #: step otherwise)
    _disp: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _quot: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    _disp_sq: np.ndarray | None = field(
        default=None, repr=False, compare=False
    )
    #: the force field's per-pair constants for these pairs, built on
    #: the first force evaluation (:meth:`ForceField._pair_table`); a
    #: rebuilt list starts without one
    pair_table: object = field(default=None, repr=False, compare=False)

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    def needs_rebuild(self, positions: np.ndarray, box: Box) -> bool:
        """True when any atom moved more than half the skin."""
        n = len(positions)
        if n == 0:
            return False
        if self._disp is None or len(self._disp) != n:
            self._disp = np.empty((n, 3))
            self._quot = np.empty((n, 3))
            self._disp_sq = np.empty(n)
        d, q = self._disp, self._quot
        np.subtract(positions, self.build_positions, out=d)
        # in-place minimum image: d -= L * round(d / L)
        np.divide(d, box.lengths, out=q)
        np.round(q, out=q)
        q *= box.lengths
        d -= q
        np.einsum("ij,ij->i", d, d, out=self._disp_sq)
        # max |dr| > skin/2  <=>  max dr^2 > (skin/2)^2 (sqrt-free)
        return float(self._disp_sq.max()) > (0.5 * self.skin) ** 2


def build_neighbor_list(
    positions: np.ndarray, box: Box, cutoff: float, skin: float = 0.3
) -> NeighborList:
    """Build a fresh neighbor list within ``cutoff + skin``."""
    if cutoff <= 0 or skin < 0:
        raise ValueError("cutoff must be positive, skin non-negative")
    pairs = _pairs_within(positions, box, cutoff + skin)
    return NeighborList(
        pairs=pairs,
        cutoff=cutoff,
        skin=skin,
        build_positions=positions.copy(),
    )
