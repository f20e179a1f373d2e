"""Phase-level power/performance model.

Everything the paper measures follows from two per-phase curves:

* **demand** — the power a node draws while running a phase unthrottled
  at frequency ``f``::

      demand(f) = p_floor + k * (f / f_base) ** gamma

* **speed** — relative execution rate at frequency ``f``::

      speed(f) = (f / f_base) ** beta

``beta ~ 1`` models compute-bound phases (force evaluation, MSD), and
``beta << 1`` models memory- or communication-bound phases whose speed
barely responds to frequency. ``gamma`` shapes how steeply demand rises
with clock; communication phases use a tiny ``gamma`` so their draw is
nearly flat (~100–105 W regardless of the cap) — this is exactly the
mechanism behind the paper's two key observations:

1. LAMMPS cannot *utilize* power beyond ~140 W/node however high the
   cap (Fig. 8), because the demand curves saturate at turbo;
2. at δ_min the analysis drags a synchronizing simulation into a
   low-power state where time differences vanish while the allocation
   is grossly inefficient (Fig. 5b discussion).

Given a cap the model inverts the demand curve:

* cap above ``demand(f_turbo)``   → run at turbo, draw the demand
  (leaving *headroom* the power-aware scheme misreads as slack);
* cap within the curve's range    → throttle to the largest feasible
  frequency, draw exactly the cap (RAPL's moving-average enforcement);
* cap below ``demand(f_min)``     → duty-cycle: stay at ``f_min`` but
  scale speed by ``cap / demand(f_min)``; draw the cap.

All functions are vectorized over per-node arrays so the 1024-node
proxy evaluates the whole partition at once, and
:func:`operating_point` also stacks several phase kinds into one
``(kinds, nodes)`` evaluation.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.cluster.node import NodeSpec

__all__ = ["OperatingPoint", "PhaseKind", "operating_point"]


@dataclass(frozen=True)
class PhaseKind:
    """Power/performance character of one class of work.

    Parameters
    ----------
    name:
        Diagnostic label ("force", "neighbor", "analysis.msd", ...).
    k_watts:
        Dynamic power above the node floor at base frequency.
    gamma:
        Exponent of demand growth with frequency ratio.
    beta:
        Exponent of speed growth with frequency ratio (frequency
        sensitivity; 1.0 = perfectly compute-bound).
    """

    name: str
    k_watts: float
    gamma: float
    beta: float

    def __post_init__(self) -> None:
        if self.k_watts < 0:
            raise ValueError(f"{self.name}: negative dynamic power")
        if self.gamma < 0 or self.beta < 0:
            raise ValueError(f"{self.name}: exponents must be non-negative")

    # -- curves ---------------------------------------------------------
    def demand(self, node: NodeSpec, freq_ghz) -> np.ndarray | float:
        """Unthrottled draw (W) at frequency ``freq_ghz``."""
        ratio = np.asarray(freq_ghz, dtype=float) / node.f_base
        return node.p_floor_watts + self.k_watts * ratio**self.gamma

    def speed(self, node: NodeSpec, freq_ghz) -> np.ndarray | float:
        """Execution rate relative to base frequency."""
        ratio = np.asarray(freq_ghz, dtype=float) / node.f_base
        return ratio**self.beta

    def freq_for_cap(self, node: NodeSpec, cap_watts) -> np.ndarray:
        """Largest frequency whose demand fits under ``cap_watts``.

        Result is clamped to ``[f_min, f_turbo]``; the duty-cycle case
        (cap below ``demand(f_min)``) is handled by
        :func:`operating_point`, not here.
        """
        cap = np.asarray(cap_watts, dtype=float)
        if self.k_watts == 0 or self.gamma == 0:
            # Demand is flat: frequency is unconstrained by the cap.
            return np.full_like(cap, node.f_turbo)
        headroom = np.maximum(cap - node.p_floor_watts, 0.0)
        ratio = (headroom / self.k_watts) ** (1.0 / self.gamma)
        freq = ratio * node.f_base
        return np.clip(freq, node.f_min, node.f_turbo)


@dataclass(frozen=True)
class OperatingPoint:
    """Resolved (speed, draw) for a phase under a set of per-node caps.

    Arrays are aligned with the caller's node ordering (with one leading
    row per kind for a stacked evaluation). ``speed`` is the
    execution-rate multiplier applied to the phase's nominal duration;
    ``draw_watts`` is the steady power the node pulls while executing.
    """

    speed: np.ndarray
    draw_watts: np.ndarray


#: non-negative scalar exponents ``ndarray.__pow__`` may send to another
#: ufunc than ``np.power`` (``sqrt``, ``square``, ``positive``, ...;
#: which ones depends on the numpy version)
_FAST_EXPONENTS = (0.0, 0.5, 1.0, 2.0)


class _Powers:
    """``base[r] ** exponents[r]`` for every row ``r``, bit for bit.

    Rows whose exponent is a plain float that ``ndarray.__pow__`` passes
    straight to ``np.power`` share one stacked ``np.power``. The others
    are re-evaluated row by row with ``**`` itself, so they take the
    same fast path (``np.sqrt`` for 0.5, ...) as the one-kind model. A
    ``None`` exponent marks a row whose result is discarded.
    """

    __slots__ = ("column", "rows")

    def __init__(self, exponents: Sequence) -> None:
        self.rows = tuple(
            (r, e)
            for r, e in enumerate(exponents)
            if e is not None and (type(e) is not float or e in _FAST_EXPONENTS)
        )
        self.column = None
        if len(self.rows) < len(exponents):
            self.column = np.array(
                [1.0 if e is None else float(e) for e in exponents]
            )[:, None]

    def __call__(self, base: np.ndarray) -> np.ndarray:
        if self.column is None:
            out = np.empty_like(base)
        else:
            out = base**self.column
        for r, e in self.rows:
            out[r] = base[r] ** e
        return out


class _Stack:
    """Per-kind constants of a stacked evaluation, as ``(kinds, 1)``
    columns; the 0-d curve values come from the same scalar
    expressions as the one-kind model, whose ``pow`` is not
    ``np.power``'s."""

    def __init__(self, kinds: tuple[PhaseKind, ...], node: NodeSpec) -> None:
        def column(values) -> np.ndarray:
            return np.array([float(v) for v in values])[:, None]

        flat = [kind.k_watts == 0 or kind.gamma == 0 for kind in kinds]
        self.flat = np.array(flat)[:, None] if any(flat) else None
        # flat rows skip the inversion: their frequency is pinned to turbo
        rows = list(zip(flat, kinds))
        self.k_inverse = column(1.0 if f else kind.k_watts for f, kind in rows)
        self.inverse = _Powers([None if f else 1.0 / kind.gamma for f, kind in rows])
        self.beta = _Powers([kind.beta for kind in kinds])
        self.demand_turbo = column(kind.demand(node, node.f_turbo) for kind in kinds)
        self.demand_min = column(kind.demand(node, node.f_min) for kind in kinds)
        self.speed_turbo = column(kind.speed(node, node.f_turbo) for kind in kinds)
        self.speed_min = column(kind.speed(node, node.f_min) for kind in kinds)


@functools.lru_cache(maxsize=512)
def _stack(kinds: tuple[PhaseKind, ...], node: NodeSpec) -> _Stack:
    return _Stack(kinds, node)


def operating_point(
    kinds: PhaseKind | Sequence[PhaseKind], node: NodeSpec, cap_watts
) -> OperatingPoint:
    """Resolve the operating point of ``kinds`` under per-node caps.

    Implements the three-regime cap inversion described in the module
    docstring. Vectorized: ``cap_watts`` may be a scalar or an array.
    One kind gives ``(nodes,)`` arrays; a sequence of kinds gives
    ``(kinds, nodes)`` arrays from one stacked evaluation, each row
    bit-identical to that kind's own evaluation: the turbo and f_min
    values are the one-kind model's 0-d expressions, and every
    exponent takes the path ``**`` takes for it (:class:`_Powers`).
    """
    single = isinstance(kinds, PhaseKind)
    stack = _stack((kinds,) if single else tuple(kinds), node)
    cap = np.atleast_1d(np.asarray(cap_watts, dtype=float))
    if not (cap > 0.0).all():  # NaN fails the comparison too
        raise ValueError("power caps must be positive")

    # PhaseKind.freq_for_cap, one row per kind; np.clip's float kernel
    # is exactly min(max(x, lo), hi)
    headroom = np.maximum(cap - node.p_floor_watts, 0.0)
    freq = stack.inverse(headroom / stack.k_inverse) * node.f_base
    freq = np.minimum(np.maximum(freq, node.f_min), node.f_turbo)
    if stack.flat is not None:
        # Demand is flat: frequency is unconstrained by the cap.
        freq = np.where(stack.flat, node.f_turbo, freq)
    speed = stack.beta(freq / node.f_base)

    # Regime 1: headroom — unthrottled turbo, draw the (lower) demand.
    # Regimes 2 (throttled: RAPL holds the moving average at the cap)
    # and 3 (duty-cycled) both draw the cap. Every cap below
    # demand(f_turbo) is in one of them, so the demand curve at the
    # throttled frequency is never the draw.
    unconstrained = cap >= stack.demand_turbo
    speed = np.where(unconstrained, stack.speed_turbo, speed)
    draw = np.where(unconstrained, stack.demand_turbo, cap)

    # Regime 3: duty-cycled — cannot reach the cap even at f_min.
    starved = cap < stack.demand_min
    if starved.any():
        duty = cap / stack.demand_min
        speed = np.where(starved, stack.speed_min * duty, speed)

    if single:
        return OperatingPoint(speed=speed[0], draw_watts=draw[0])
    return OperatingPoint(speed=speed, draw_watts=draw)
