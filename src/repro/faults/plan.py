"""Deterministic fault plans: typed fault events on the virtual clock.

A :class:`FaultPlan` is a fixed, ordered set of :class:`FaultEvent`
windows on the DES virtual timeline. Plans are *data*, never random at
query time: they are either written declaratively (JSON / the compact
spec DSL) or sampled **up front** from a seeded
:class:`~repro.util.rng.RngStream`, so the same seed always yields the
byte-identical plan and therefore the bit-identical faulted trajectory.
This mirrors how the rest of the reproduction treats stochasticity
(:mod:`repro.cluster.noise`): draw once, replay forever.

The taxonomy covers the failure modes the paper's platform actually
exhibits (Theta: slow nodes, RAPL actuation latency, noisy power
telemetry — §VII, Table I) plus the MPI perturbations SIM-SITU-style
what-if studies need:

========== ============================================================
kind       effect while the window is active
========== ============================================================
slowdown   phase cost on the target rank is multiplied by ``magnitude``
crash      node outage: compute stalls until the window ends (respawn)
cap_drop   RAPL cap requests are silently dropped
cap_lag    cap requests suffer ``magnitude`` s extra actuation latency
cap_skew   installed caps are offset by ``magnitude`` W (miscalibration)
meas_drop  the rank's PoLiMER report is lost for that synchronization
meas_stale the rank re-reports its previous measurement (old seq)
meas_garble the rank's power reading is multiplied by ``magnitude``
mpi_delay  every message/collective pays ``magnitude`` s extra wire time
========== ============================================================
"""

from __future__ import annotations

import enum
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.util.rng import RngStream

__all__ = ["FaultEvent", "FaultKind", "FaultPlan", "SAMPLED_KINDS"]


class FaultKind(enum.Enum):
    """Typed fault taxonomy (see the module docstring table)."""

    SLOWDOWN = "slowdown"
    CRASH = "crash"
    CAP_DROP = "cap_drop"
    CAP_LAG = "cap_lag"
    CAP_SKEW = "cap_skew"
    MEAS_DROP = "meas_drop"
    MEAS_STALE = "meas_stale"
    MEAS_GARBLE = "meas_garble"
    MPI_DELAY = "mpi_delay"


#: kinds included by default when sampling a chaos plan
SAMPLED_KINDS = tuple(FaultKind)


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: ``[t_start, t_start + duration)`` virtual s.

    ``rank`` is the world rank the fault targets (``None`` = every
    rank). ``magnitude`` is kind-specific: a multiplicative factor for
    ``slowdown``/``meas_garble``, extra seconds for ``cap_lag``/
    ``mpi_delay``, a watt offset for ``cap_skew``, unused otherwise.
    """

    kind: FaultKind
    t_start: float
    duration: float
    rank: int | None = None
    magnitude: float = 1.0

    def __post_init__(self) -> None:
        if self.t_start < 0 or self.duration <= 0:
            raise ValueError(
                f"fault window must satisfy t_start >= 0 < duration "
                f"(got {self.t_start}, {self.duration})"
            )
        if self.kind in (FaultKind.SLOWDOWN, FaultKind.MEAS_GARBLE):
            if self.magnitude <= 0:
                raise ValueError("multiplicative magnitude must be > 0")
        if self.kind in (FaultKind.CAP_LAG, FaultKind.MPI_DELAY):
            if self.magnitude < 0:
                raise ValueError("delay magnitude must be >= 0")

    @property
    def t_end(self) -> float:
        return self.t_start + self.duration

    def active(self, t: float) -> bool:
        """Is the window open at virtual time ``t``?"""
        return self.t_start <= t < self.t_end

    def hits(self, rank: int | None) -> bool:
        """Does this fault target ``rank``? (``None`` targets all; a
        caller with no rank identity matches all-rank faults only.)"""
        return self.rank is None or self.rank == rank

    # -- serialization -------------------------------------------------
    def to_json(self) -> dict:
        out = {
            "kind": self.kind.value,
            "t_start": self.t_start,
            "duration": self.duration,
            "magnitude": self.magnitude,
        }
        if self.rank is not None:
            out["rank"] = self.rank
        return out

    @classmethod
    def from_json(cls, data: dict) -> "FaultEvent":
        return cls(
            kind=FaultKind(data["kind"]),
            t_start=float(data["t_start"]),
            duration=float(data["duration"]),
            rank=data.get("rank"),
            magnitude=float(data.get("magnitude", 1.0)),
        )


def _sort_key(e: FaultEvent):
    return (e.t_start, e.kind.value, -1 if e.rank is None else e.rank, e.magnitude)


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, time-ordered fault schedule (+ seed provenance)."""

    events: tuple[FaultEvent, ...] = ()
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "events", tuple(sorted(self.events, key=_sort_key))
        )

    def __len__(self) -> int:
        return len(self.events)

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(sorted({e.kind.value for e in self.events}))

    # -- construction --------------------------------------------------
    @classmethod
    def from_spec(cls, spec) -> "FaultPlan":
        """Build a plan from a declarative spec.

        Accepts a dict (``{"events": [...], "seed": ...}``), a path to
        a JSON file of that shape, or the compact DSL::

            kind@START+DURATION[xMAGNITUDE][:rankN]

        with events separated by ``;``, e.g.
        ``slowdown@1.0+2.5x1.8:rank3;cap_drop@0.5+4.0``.
        """
        if isinstance(spec, FaultPlan):
            return spec
        if isinstance(spec, dict):
            return cls(
                events=tuple(
                    FaultEvent.from_json(e) for e in spec.get("events", [])
                ),
                seed=spec.get("seed"),
            )
        text = str(spec).strip()
        path = Path(text)
        if text.endswith((".json", ".jsonl")) and path.is_file():
            body = path.read_text().strip()
            if text.endswith(".jsonl"):
                rows = [json.loads(ln) for ln in body.splitlines() if ln.strip()]
                return cls(events=tuple(FaultEvent.from_json(r) for r in rows))
            return cls.from_spec(json.loads(body))
        return cls(events=tuple(_parse_dsl(text)))

    @classmethod
    def sample(
        cls,
        seed: int,
        n_ranks: int,
        horizon_s: float = 20.0,
        kinds: Sequence[FaultKind | str] | None = None,
        events_per_kind: int = 2,
    ) -> "FaultPlan":
        """Sample a seed-replayable plan over ``[0, horizon_s)``.

        Each kind draws from its own name-addressed child stream, so
        adding a kind never shifts another kind's draws — the same
        property :mod:`repro.cluster.noise` relies on.
        """
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        if horizon_s <= 0:
            raise ValueError("horizon must be positive")
        if events_per_kind < 1:
            raise ValueError("events_per_kind must be >= 1")
        resolved = [
            k if isinstance(k, FaultKind) else FaultKind(k)
            for k in (kinds if kinds is not None else SAMPLED_KINDS)
        ]
        root = RngStream(seed, name="faults")
        events: list[FaultEvent] = []
        for kind in sorted(resolved, key=lambda k: k.value):
            st = root.child(f"kind/{kind.value}")
            for _ in range(events_per_kind):
                t0 = float(st.uniform(0.05, 0.70)) * horizon_s
                dur = float(st.uniform(0.08, 0.20)) * horizon_s
                rank: int | None = int(st.integers(0, n_ranks))
                magnitude = 1.0
                if kind is FaultKind.SLOWDOWN:
                    magnitude = float(st.uniform(1.4, 2.2))
                elif kind is FaultKind.CRASH:
                    dur = float(st.uniform(0.03, 0.08)) * horizon_s
                elif kind is FaultKind.CAP_LAG:
                    magnitude = float(st.uniform(0.02, 0.06))
                    rank = None  # actuation faults hit the whole domain
                elif kind is FaultKind.CAP_DROP:
                    rank = None
                elif kind is FaultKind.CAP_SKEW:
                    magnitude = float(st.uniform(-8.0, 8.0))
                    rank = None
                elif kind is FaultKind.MEAS_GARBLE:
                    magnitude = float(st.uniform(0.25, 2.75))
                elif kind is FaultKind.MPI_DELAY:
                    magnitude = float(st.uniform(0.001, 0.004))
                    rank = None
                events.append(
                    FaultEvent(
                        kind=kind,
                        t_start=t0,
                        duration=dur,
                        rank=rank,
                        magnitude=magnitude,
                    )
                )
        return cls(events=tuple(events), seed=seed)

    # -- serialization -------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical one-event-per-line form; byte-stable per plan."""
        return "".join(
            json.dumps(e.to_json(), sort_keys=True) + "\n" for e in self.events
        )

    def fingerprint(self) -> str:
        """Content hash of the canonical form (cache-key salt)."""
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()[:16]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<FaultPlan {len(self.events)} events"
            f" kinds={','.join(self.kinds) or 'none'}>"
        )


def _parse_dsl(text: str) -> Iterable[FaultEvent]:
    """Parse ``kind@START+DUR[xMAG][:rankN]`` clauses."""
    for raw in text.replace(",", ";").split(";"):
        clause = raw.strip()
        if not clause:
            continue
        try:
            kind_s, rest = clause.split("@", 1)
            rank: int | None = None
            if ":" in rest:
                rest, rank_s = rest.split(":", 1)
                if rank_s not in ("all", "*"):
                    rank = int(rank_s.removeprefix("rank"))
            magnitude = 1.0
            if "x" in rest:
                rest, mag_s = rest.split("x", 1)
                magnitude = float(mag_s)
            start_s, dur_s = rest.split("+", 1)
            yield FaultEvent(
                kind=FaultKind(kind_s.strip()),
                t_start=float(start_s),
                duration=float(dur_s),
                rank=rank,
                magnitude=magnitude,
            )
        except (ValueError, KeyError) as exc:
            raise ValueError(
                f"malformed fault clause {clause!r} "
                "(expected kind@START+DUR[xMAG][:rankN])"
            ) from exc
