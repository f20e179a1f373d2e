"""Radial distribution functions (the paper's "Hydronium and ion RDF").

Computes g(r) between a *center* species and a *target* species,
histogram-averaged over frames, with the standard ideal-gas
normalization::

    g(r) = <n(r)> / (rho_target * V_shell(r))

The paper runs two of these: hydronium–water and ion–water, "averaged
over all molecules" (§VI-C). RDF "is compute bound but with higher
memory needs than VACF and MSD1D" (§VI-C) — the pair search over the
full cross set is what makes it so, and its pair count is the work
estimate the calibration reads.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from repro.analysis.base import Analysis, Frame
from repro.md.system import Species

__all__ = ["RadialDistribution"]


class RadialDistribution(Analysis):
    """g(r) between ``center_type`` and ``target_type`` atoms."""

    name = "rdf"

    def __init__(
        self,
        center_type: int = Species.CAT,
        target_type: int = Species.O,
        r_max: float = 4.0,
        n_bins: int = 100,
    ) -> None:
        super().__init__()
        if r_max <= 0 or n_bins <= 0:
            raise ValueError("invalid histogram shape")
        self.center_type = center_type
        self.target_type = target_type
        self.r_max = r_max
        self.n_bins = n_bins
        self._counts = np.zeros(n_bins)
        self._norm_accum = 0.0  # per-frame ideal-gas normalization

    # ------------------------------------------------------------------
    def _process(self, frame: Frame) -> int:
        box = frame.box_lengths
        wrapped = np.mod(frame.positions, box)
        wrapped = np.minimum(wrapped, np.nextafter(box, 0.0))
        centers = wrapped[frame.types == self.center_type]
        targets = wrapped[frame.types == self.target_type]
        if len(centers) == 0 or len(targets) == 0:
            return 0
        r_search = min(self.r_max, 0.5 * float(box.min()) * 0.999)
        tree_t = cKDTree(targets, boxsize=box)
        tree_c = cKDTree(centers, boxsize=box)
        r = tree_c.sparse_distance_matrix(
            tree_t, r_search, output_type="ndarray"
        )["v"]
        r = r[r > 1e-9]  # drop self-coincidences if center==target type
        hist, _ = np.histogram(r, bins=self.n_bins, range=(0.0, self.r_max))
        self._counts += hist
        volume = float(np.prod(box))
        rho_target = len(targets) / volume
        self._norm_accum += len(centers) * rho_target
        return len(centers) * len(targets)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """Returns ``(r_centers, g_of_r)`` averaged over frames."""
        edges = np.linspace(0.0, self.r_max, self.n_bins + 1)
        r_centers = 0.5 * (edges[:-1] + edges[1:])
        shell_volumes = 4.0 / 3.0 * np.pi * (edges[1:] ** 3 - edges[:-1] ** 3)
        if self._norm_accum == 0:
            return r_centers, np.zeros(self.n_bins)
        g = self._counts / (shell_volumes * self._norm_accum)
        return r_centers, g
