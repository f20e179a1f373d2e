"""Periodic simulation box and minimum-image geometry.

LAMMPS-style orthogonal periodic box. All geometry helpers are
vectorized over ``(n, 3)`` coordinate arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Box"]


@dataclass(frozen=True)
class Box:
    """Cubic/orthorhombic periodic box with edge lengths ``lengths``."""

    lengths: np.ndarray  # shape (3,)

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=float)
        if lengths.shape != (3,):
            raise ValueError("box lengths must be a 3-vector")
        if np.any(lengths <= 0):
            raise ValueError("box lengths must be positive")
        object.__setattr__(self, "lengths", lengths)

    @classmethod
    def cubic(cls, edge: float) -> "Box":
        return cls(np.full(3, float(edge)))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    # ------------------------------------------------------------------
    def wrap(self, coords: np.ndarray) -> np.ndarray:
        """Map coordinates into [0, L) per dimension.

        ``np.mod`` of a tiny negative value rounds to exactly ``L``;
        fold that back to 0 so the result is strictly inside the box
        and wrapping is idempotent.
        """
        out = np.mod(coords, self.lengths)
        return np.where(out >= self.lengths, out - self.lengths, out)

    def minimum_image(self, dr: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement vectors."""
        return dr - self.lengths * np.round(dr / self.lengths)

    def distance(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Minimum-image distances between row-aligned coordinate sets."""
        dr = self.minimum_image(np.atleast_2d(a) - np.atleast_2d(b))
        return np.linalg.norm(dr, axis=-1)
