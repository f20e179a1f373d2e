"""The machine-speed yardstick that every reported time is scaled by.

The benchmark runs on a virtual machine that shares its host, and the
host makes the same code run up to about 1.9 times slower, in stretches
that last from milliseconds to minutes (the guest sees no steal time:
CPU time grows with wall time). A run of a few tens of seconds can sit
wholly inside a slow stretch, so no statistic over one run's samples
removes it.

So the benchmark measures the machine's speed while it measures the
program, with a sub-millisecond probe kernel of the kinds of code the
workloads run: small NumPy arrays in a Python loop (the proxy's
per-sync math), dictionary updates, a generator drained (the DES). The
slow stretches slow these kinds by different factors (NumPy on small
arrays most, a generator least), so the probe mixes them. A
:class:`Meter` runs a few probes at each boundary between timed
segments and, on a timer signal, one probe every ``TICK_S`` inside a
segment. A segment's time, less the probes' own, is scaled by
``NOMINAL_PROBE_S`` over the mean probe time in and around it: the time
it would have taken on a machine where the probe takes
``NOMINAL_PROBE_S``. The probe is the benchmark's own code, so a change
to the program moves the scaled times and not the yardstick.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

#: the probe's duration that scaled times assume: what it takes,
#: uncontended, on a 2-vCPU x86 VM (Xeon, 2.1 GHz)
NOMINAL_PROBE_S = 0.00068
#: probes run at each boundary between segments
BOUNDARY_PROBES = 4
#: interval of the probes inside a segment
TICK_S = 0.05
_ARRAY = np.arange(64.0)


def _small_arrays() -> float:
    a = _ARRAY
    acc = 0.0
    for i in range(100):
        acc += float((a * 1.0001 + i).sum())
    return acc


def _dicts() -> int:
    d: dict = {}
    for i in range(2000):
        d[i % 97] = d.get(i % 97, 0) + 2 * i
    return len(d)


def _generator():
    for i in range(6000):
        yield i


def probe_s() -> float:
    """Wall time of one run of the probe kernel (about 0.7-1.3 ms)."""
    t0 = time.perf_counter()
    _small_arrays()
    _dicts()
    sum(_generator())
    return time.perf_counter() - t0


def reference_s() -> float:
    """Mean of ``BOUNDARY_PROBES`` probes: the machine's speed at one
    moment."""
    return sum(probe_s() for _ in range(BOUNDARY_PROBES)) / BOUNDARY_PROBES


def scale(raw_s: float, probe_mean_s: float) -> float:
    """``raw_s`` at the nominal machine speed, given the mean probe
    time measured in and around it."""
    return raw_s * NOMINAL_PROBE_S / probe_mean_s


class Meter:
    """Times the consecutive segments of a pass against the probe.

    :meth:`start` probes and opens the first segment; each :meth:`lap`
    closes the open segment, probes and opens the next; :meth:`stop`
    ends the timer. A probe runs on ``SIGALRM`` every ``TICK_S``
    inside segments, also while this process waits for pool workers:
    a probe then displaces a worker for a millisecond and measures the
    vCPU it ran on. With a ``tracer``, every probe's time is charged to
    a ``bench.reference`` row instead of the span it ran in.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.raw: list[float] = []
        self.scaled: list[float] = []
        #: time spent probing (CPU-bound, so also the probes' CPU time)
        self.reference_total_s = 0.0
        self._probes = array("d")
        self._first = 0  # index of the open segment's first probe
        self._opened = 0.0
        self._probed_at_open = 0.0
        self._busy = False
        self._previous_handler = None

    def _probe(self) -> None:
        self._busy = True
        try:
            p = probe_s()
            self._probes.append(p)
            self.reference_total_s += p
            if self.tracer is not None:
                self.tracer.charge("bench.reference", p)
        finally:
            self._busy = False

    def _on_tick(self, signum, frame) -> None:
        if not self._busy:
            self._probe()

    def _boundary(self) -> None:
        for _ in range(BOUNDARY_PROBES):
            self._probe()

    def _open(self) -> None:
        self._probed_at_open = self.reference_total_s
        self._opened = time.perf_counter()

    def start(self) -> None:
        self._boundary()
        self._previous_handler = signal.signal(signal.SIGALRM, self._on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self._open()

    def lap(self) -> float:
        """Close the open segment; return its scaled seconds."""
        raw = time.perf_counter() - self._opened
        raw -= self.reference_total_s - self._probed_at_open  # ticks inside
        start = self._first
        self._first = len(self._probes)
        self._boundary()
        window = self._probes[start:]
        scaled = scale(raw, sum(window) / len(window))
        self.raw.append(raw)
        self.scaled.append(scaled)
        self._open()
        return scaled

    def stop(self) -> None:
        if self._previous_handler is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    @property
    def slowdown(self) -> float:
        """Measured over scaled time of all closed segments."""
        return sum(self.raw) / sum(self.scaled)
