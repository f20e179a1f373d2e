"""Phase executor: turn (work, phase kind, caps over time) into
(durations, energies).

This is the numerical core shared by the vectorized 1024-node proxy and
the per-rank DES jobs. Given

* a nominal amount of work (seconds at base frequency, speed 1.0),
* per-node noise factors (multiplying duration),
* and the RAPL domain's piecewise-constant cap schedule,

it integrates per-node progress through cap segments and returns exact
per-node completion times plus the energy drawn
(:func:`execute_phase`); :func:`execute_program` runs a partition's
whole per-synchronization :class:`PhaseProgram`. Nodes that finish
early are *not* idled here — synchronization waiting is owned by the
caller (the partition), which knows who it is waiting for and charges
the spin-wait power (:attr:`NodeSpec.p_wait_watts`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from types import EllipsisType

import numpy as np

from repro.cluster.node import NodeSpec
from repro.power.model import OperatingPoint, PhaseKind, operating_point
from repro.power.rapl import RaplDomainArray
from repro.power.trace import PowerTrace

__all__ = ["PhaseOutcome", "PhaseProgram", "execute_phase", "execute_program"]


class PhaseProgram:
    """A partition's per-synchronization phase program, prepared once.

    Holds the phases (anything with ``kind`` and ``work_s``), their
    distinct kinds in first-appearance order, each phase's row in that
    kind list and the work as a ``(phases, 1)`` column. The program
    object is also the operating-point cache key: build one per distinct
    program and reuse it, so a cap segment costs one stacked model
    inversion per program.
    """

    __slots__ = ("phases", "kinds", "rows", "work")

    def __init__(self, phases: Sequence) -> None:
        self.phases = tuple(phases)
        if any(phase.work_s < 0 for phase in self.phases):
            raise ValueError("negative work")
        row_of: dict = {}
        for phase in self.phases:
            row_of.setdefault(phase.kind, len(row_of))
        self.kinds = tuple(row_of)
        self.rows = np.array(
            [row_of[phase.kind] for phase in self.phases], dtype=np.intp
        )
        self.work = np.array(
            [phase.work_s for phase in self.phases], dtype=float
        )[:, None]


def _operating_point_cached(
    domain: RaplDomainArray,
    source: PhaseKind | PhaseProgram,
    node: NodeSpec,
    caps: np.ndarray,
) -> OperatingPoint:
    """Speed (floored at 1e-12) and draw of ``source`` under the
    domain's *current* caps: ``(nodes,)`` arrays for one phase kind,
    ``(phases, nodes)`` for every phase of a :class:`PhaseProgram`.

    Caps are piecewise-constant, so the resolved table is valid for the
    whole cap segment: it is parked in :attr:`RaplDomainArray.op_cache`,
    which the domain clears whenever the installed caps change. A miss
    resolves all of a program's kinds in one stacked
    :func:`operating_point`. The cached arrays are shared — callers
    must treat them as read-only.
    """
    cache = domain.op_cache
    key = (source, id(node))
    op = cache.get(key)
    if op is None:
        program = isinstance(source, PhaseProgram)
        # Uniform caps (the common controller output): resolve the model
        # on one element and broadcast. Ufuncs are elementwise, so the
        # broadcast view is bit-identical to the full-width computation
        # at 1/n the cost.
        uniform = caps.size > 1 and (caps == caps[0]).all()
        one = operating_point(
            source.kinds if program else source,
            node,
            caps[:1] if uniform else caps,
        )
        speed = np.maximum(one.speed, 1e-12)
        draw = one.draw_watts
        if program:
            speed, draw = speed[source.rows], draw[source.rows]
        if uniform:
            shape = speed.shape[:-1] + caps.shape
            speed = np.broadcast_to(speed, shape)
            draw = np.broadcast_to(draw, shape)
        op = cache[key] = OperatingPoint(speed=speed, draw_watts=draw)
    return op


@dataclass
class PhaseOutcome:
    """Result of executing one phase across a partition's nodes."""

    #: per-node phase duration in seconds (from phase start)
    durations: np.ndarray
    #: per-node energy in joules consumed while *active* in the phase
    energy_joules: np.ndarray

    @property
    def slowest(self) -> float:
        return float(self.durations.max())

    @property
    def fastest(self) -> float:
        return float(self.durations.min())


def execute_phase(
    kind: PhaseKind,
    node: NodeSpec,
    work_seconds: float,
    domain: RaplDomainArray,
    t_start: float,
    noise_factors: np.ndarray | float = 1.0,
    program: tuple[PhaseProgram, int] | None = None,
) -> PhaseOutcome:
    """Execute ``work_seconds`` of ``kind`` on every node of ``domain``.

    ``noise_factors`` multiplies each node's effective work (OS noise,
    allocation effects — see :mod:`repro.cluster.noise`). ``program``
    names the phase as ``(program, index)`` when it is one of a
    :class:`PhaseProgram`'s: each cap segment then reads the program's
    operating-point table instead of resolving ``kind`` alone.
    """
    if work_seconds < 0:
        raise ValueError("negative work")
    n = domain.n_nodes
    noise = noise_factors
    if not (
        type(noise) is np.ndarray and noise.shape == (n,) and noise.dtype == float
    ):
        noise = np.broadcast_to(np.asarray(noise, dtype=float), (n,))
    remaining = work_seconds * noise  # per-node work still to do (owned)
    durations = np.zeros(n)
    energy = np.zeros(n)

    t = t_start
    active = remaining > 0.0
    if not active.any():
        # Zero-work phase: all durations stay 0.
        return PhaseOutcome(durations=durations, energy_joules=energy)
    # a kind's table is one node row; a program's has one row per phase
    source, row = (kind, ...) if program is None else program
    t_change, speed, draw, finish_at = _segment(
        domain, source, node, row, t, remaining, active
    )

    # Each iteration integrates one cap segment. ``_segment`` returns
    # ``t_change > t`` (a pending request that is due at ``t`` is applied
    # by the query itself), so a segment always has positive length.
    guard = 0
    while True:
        # Last segment: no cap change lands before the slowest node
        # finishes (max over all entries == max over active ones:
        # inactive entries hold t and every active completion is >= t).
        # The general iteration below would take seg_end = max(finish_at)
        # and find done_in_seg == active, still_going all False. Its
        # expressions then reduce, operand for operand, to these three:
        #   active_time = where(active, finish_at - t, where(False, span, 0))
        #               = where(active, finish_at - t, 0.0)
        #   durations   = where(active, finish_at - t_start, durations)
        #   energy     += active_time * draw
        # and the loop would return. (When every active node finishes at
        # t, it would take seg_end = t_change instead; done_in_seg is
        # still ``active`` and the same expressions result.)
        if float(finish_at.max()) <= t_change:
            active_time = np.where(active, finish_at - t, 0.0)
            durations = np.where(active, finish_at - t_start, durations)
            energy += active_time * draw
            return PhaseOutcome(durations=durations, energy_joules=energy)

        guard += 1
        if guard > 10_000:
            raise RuntimeError("phase executor failed to converge")
        # A cap change lands before the slowest node finishes: integrate
        # up to it and query the next segment.
        span = t_change - t
        done_in_seg = active & (finish_at <= t_change)
        still_going = active & ~done_in_seg

        # Progress accounting.
        active_time = np.where(
            done_in_seg, finish_at - t, np.where(still_going, span, 0.0)
        )
        remaining = np.where(
            still_going, remaining - span * speed, np.where(done_in_seg, 0.0, remaining)
        )
        durations = np.where(
            done_in_seg, finish_at - t_start, durations
        )
        energy += active_time * draw
        active = still_going
        t = t_change
        t_change, speed, draw, finish_at = _segment(
            domain, source, node, row, t, remaining, active
        )


def _segment(
    domain: RaplDomainArray,
    source: PhaseKind | PhaseProgram,
    node: NodeSpec,
    row: int | EllipsisType,
    t: float,
    remaining: np.ndarray,
    active: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The cap segment in force at ``t``: ``(t_change, speed, draw,
    finish_at)``, where ``finish_at`` is each active node's completion
    were the caps never to change (``t`` for inactive nodes)."""
    caps, t_change = domain.segment_at(t)
    op = _operating_point_cached(domain, source, node, caps)
    speed = op.speed[row]
    finish_at = np.where(active, t + remaining / speed, t)
    return t_change, speed, op.draw_watts[row], finish_at


def _trace_phase(
    trace: PowerTrace, t: float, durations: np.ndarray, energy: np.ndarray
) -> None:
    """Record one phase as a mean-node segment starting at ``t``."""
    mean_dur = float(durations.mean())
    if mean_dur > 0:
        trace.add(t, t + mean_dur, float(energy.mean()) / mean_dur)


def _fold(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``acc + rows[0] + rows[1] + ...``, added strictly in that order.

    ``np.add.accumulate`` is sequential by definition; an axis-0
    ``np.add.reduce`` is not guaranteed to be (on one-column stacks it
    sums pairwise), and the result must match per-phase ``+=``.
    """
    return np.add.accumulate(np.concatenate((acc[None], rows)), axis=0)[-1]


def execute_program(
    program: PhaseProgram,
    node: NodeSpec,
    domain: RaplDomainArray,
    t_start: float,
    factor_pair: Callable[[], tuple[np.ndarray, np.ndarray]],
    trace: PowerTrace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Execute ``program``'s phases back to back on every node of ``domain``.

    Each phase draws its noise from ``factor_pair() -> (spiked, clean)``
    and starts at the *mean* frontier ``t_start + mean(times so far)``.
    Returns per-node ``(times, clean_times, energy)``: ``clean_times``
    rescales each phase's durations by ``clean / spiked`` (durations are
    linear in the noise factor). With ``trace``, each phase adds one
    mean-node segment.

    ``factor_pair`` returns one array object as both factors when no
    interference burst fired (:meth:`NoiseModel.phase_factor_pair`).
    Until a phase spikes, ``clean_times`` equals ``times`` bit for bit:
    ``x / x == 1.0``, ``d * 1.0 == d``, and the additions run in the
    same order. So the ratio algebra is skipped: a spike-free program
    returns a copy of ``times``, and a spiked one starts
    ``clean_times`` from ``times`` as it stood before its first spike.

    Phases that start while a cap request is still pending run one at a
    time through :func:`execute_phase`, which splits them at the
    actuation. Once the caps are settled (no pending request, so no cap
    change can land before the program ends) the remaining phases are
    resolved in one stacked pass over ``(phases, nodes)`` matrices
    sliced from the program's operating-point table. It is bit-identical
    to the per-phase loop: the same float expressions element by
    element, and sums folded in the per-phase order. Only the frontier
    stays a scalar loop, because each phase's start depends on the
    previous durations.
    """
    n = domain.n_nodes
    times = np.zeros(n)
    clean_times = None  # equal to times until a phase spikes
    energy = np.zeros(n)
    t = t_start
    for i, phase in enumerate(program.phases):
        if phase.work_s > 0 and domain.segment_at(t)[1] == np.inf:
            break
        spiked, clean = factor_pair()
        outcome = execute_phase(
            phase.kind, node, phase.work_s, domain, t_start=t,
            noise_factors=spiked, program=(program, i),
        )
        durations = outcome.durations
        if trace is not None:
            _trace_phase(trace, t, durations, outcome.energy_joules)
        if clean_times is None and spiked is not clean:
            clean_times = times.copy()
        times += durations
        if clean_times is not None:
            clean_times += durations * (clean / spiked)
        energy += outcome.energy_joules
        # np.add.reduce(x) / n is exactly x.mean(), without its overhead
        t = t_start + float(np.add.reduce(times) / n)
    else:
        return times, times.copy() if clean_times is None else clean_times, energy

    # Settled: every remaining phase runs under the current caps.
    op = _operating_point_cached(domain, program, node, domain.segment_at(t)[0])
    n_phases = len(program.phases) - i
    spiked = np.empty((n_phases, n))
    spikes = []
    for p in range(n_phases):
        factors, clean = factor_pair()
        spiked[p] = factors
        if factors is not clean:
            spikes.append((p, clean))
    if spikes and clean_times is None:
        clean_times = times.copy()
    remaining = program.work[i:] * spiked
    # nodes with no work finish at the phase start, as in execute_phase
    run_s = np.where(remaining > 0.0, remaining / op.speed[i:], 0.0)

    durations = np.empty((n_phases, n))
    starts = []
    for p in range(n_phases):
        starts.append(t)
        # row = (t + run_s[p]) - t, written in place
        row = durations[p]
        np.add(t, run_s[p], out=row)
        np.subtract(row, t, out=row)
        times += row
        t = t_start + float(np.add.reduce(times) / n)

    phase_energy = durations * op.draw_watts[i:]
    if trace is not None:
        for p in range(n_phases):
            _trace_phase(trace, starts[p], durations[p], phase_energy[p])
    energy = _fold(energy, phase_energy)
    if clean_times is None:
        return times, times.copy(), energy
    clean = spiked.copy()
    for p, factors in spikes:
        clean[p] = factors
    return times, _fold(clean_times, durations * (clean / spiked)), energy
