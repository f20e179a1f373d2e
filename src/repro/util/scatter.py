"""Fast scatter-add kernels built on :func:`numpy.bincount`.

``np.add.at`` is the obvious way to accumulate per-pair force
contributions (or per-bin statistics) into per-atom (per-bin) arrays,
but its unbuffered fancy-indexing loop is roughly an order of magnitude
slower than ``np.bincount`` for the shapes the MD force loop and the
binned analyses produce (hundreds of thousands of int64 indices into a
few thousand slots). Profiling the in-situ coupler put ``ufunc.at`` at
~20% of host wall time, all of it replaceable.

Bit-reproducibility note: both ``np.add.at`` and ``np.bincount``
traverse the *input* array sequentially and accumulate into the output
slot in encounter order, so per-slot partial sums associate
identically. :func:`scatter_add` therefore returns bit-identical
results to a fresh ``np.add.at`` pass, and :func:`scatter_add_pairs`
reproduces the exact two-pass ``add.at(f, i, w); add.at(f, j, -w)``
chain by concatenating the index blocks in the same order. The
micro-benchmarks in ``benchmarks/test_substrate_micro.py`` pin both
equivalence and the speedup.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scatter_add", "scatter_add_pairs"]


def scatter_add(
    target: np.ndarray, idx: np.ndarray, values: np.ndarray | float
) -> np.ndarray:
    """``target[idx] += values`` via bincount; returns ``target``.

    ``target`` may be 1-D ``(n,)`` or 2-D ``(n, k)``; ``values`` must
    broadcast to ``idx`` (1-D case) or be ``(len(idx), k)`` (2-D case).
    """
    n = target.shape[0]
    if target.ndim == 1:
        values = np.broadcast_to(np.asarray(values, dtype=float), idx.shape)
        target += np.bincount(idx, weights=values, minlength=n)
        return target
    values = np.asarray(values)
    for k in range(target.shape[1]):
        target[:, k] += np.bincount(
            idx, weights=values[:, k], minlength=n
        )
    return target


def scatter_add_pairs(
    n: int, i: np.ndarray, j: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Newton's-third-law accumulation: ``out[i] += v; out[j] -= v``.

    Returns a fresh ``(n, d)`` array bit-identical to the classic ::

        out = np.zeros((n, d))
        np.add.at(out, i, vectors)
        np.add.at(out, j, -vectors)

    (the concatenated traversal visits every contribution in the same
    order the two ``add.at`` passes would).
    """
    m = len(i)
    out = np.empty((n, vectors.shape[1]))
    idx = np.concatenate([i, j])
    w = np.empty(2 * m)  # one weights buffer, refilled per component
    for k in range(vectors.shape[1]):
        w[:m] = vectors[:, k]
        np.negative(vectors[:, k], out=w[m:])
        out[:, k] = np.bincount(idx, weights=w, minlength=n)
    return out
