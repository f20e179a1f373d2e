"""Unit conventions.

The whole code base uses SI base units internally:

* time    — seconds (float)
* power   — watts (float)
* energy  — joules (float)
* frequency — GHz (float; a ratio against the base clock is what the
  performance model actually consumes, so the absolute unit only matters
  for display)

The constant below exists so call sites can write ``10 * MS`` instead of
``0.010`` and stay self-documenting.
"""

from __future__ import annotations

#: One millisecond, in seconds.
MS: float = 1e-3
