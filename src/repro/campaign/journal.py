"""The campaign's outcome tally; the trace is its log.

:class:`RunJournal` counts cell outcomes — hits, misses, dups, errors,
timeouts, retries — which the CLI, perfbench and the tests read back
as ``engine.journal.counts``. Each outcome is one :meth:`RunJournal.cell`
call that bumps the count and, under an enabled ambient tracer, emits
the cell's ``campaign.cell`` span with the outcome in its ``status``
arg. Engine events (``campaign.sched``, ``campaign.batch``,
``campaign.worker-lost``, ``campaign.pool-unavailable``) and the final
``campaign.summary`` are tracer instants. All of them live on trace
process 0 at wall-clock timestamps, so ``run --trace PATH.jsonl`` is
the one record of a campaign that ``campaign watch`` and ``campaign
report`` read.

No file is kept here: a killed campaign resumes by re-running the
same ``run`` against the same ``--cache``, whose content-addressed
store serves every finished cell.
"""

from __future__ import annotations

from repro.telemetry import get_tracer

__all__ = ["COUNTS", "RunJournal", "tally"]

#: the outcome counters a campaign keeps (and its summary reports)
COUNTS = (
    "cells",
    "hits",
    "misses",
    "dups",
    "shared",
    "errors",
    "timeouts",
    "retries",
    "failed",
)


def tally(counts: dict, status: str | None, via: str | None = None) -> None:
    """Count one cell outcome (see :meth:`RunJournal.cell`) into
    ``counts``; ``campaign watch`` folds traced spans through it too."""
    if status == "hit":
        counts["cells"] += 1
        counts["hits"] += 1
        if via == "single-flight":
            counts["shared"] += 1
    elif status == "dup":
        counts["cells"] += 1
        counts["dups"] += 1
    elif status in ("done", "retried"):
        counts["cells"] += 1
        counts["misses"] += 1
        if status == "retried":
            counts["retries"] += 1
    elif status == "error":
        counts["errors"] += 1
    elif status == "timeout":
        counts["timeouts"] += 1
    elif status == "failed":
        counts["failed"] += 1


class RunJournal:
    """In-memory cell-outcome counters, mirrored into the ambient trace."""

    def __init__(self) -> None:
        self.counts = dict.fromkeys(COUNTS, 0)

    def cell(
        self, label: str, status: str, wall_s: float, tid: int = 0, **extra
    ) -> None:
        """One cell outcome: bump its counter and trace its span.

        ``status``: ``hit`` (cache), ``dup`` (deduplicated within the
        batch), ``done`` (executed first try), ``retried`` (executed
        after failures), ``error``/``timeout`` (one failed attempt),
        ``failed`` (all attempts exhausted), ``faulted`` (run under
        fault injection, outside the store). A ``hit`` with
        ``via="single-flight"`` was computed by a concurrent campaign
        sharing the store and observed rather than recomputed.

        The span closes now and lasted ``wall_s``. Pool-executed
        cells land on ``tid = wid + 1`` — one campaign-lane row per
        worker, each worker's cells end to end; the rest on ``tid 0``.
        """
        tally(self.counts, status, extra.get("via"))
        tracer = get_tracer()
        if tracer.enabled:
            # the cells inside bind the tracer to their own virtual
            # clocks; explicit wall timestamps keep this lane monotone
            tracer.complete(
                "campaign.cell",
                wall_s,
                cat="campaign",
                tid=tid,
                ts=tracer.wall_now() - wall_s,
                pid=0,
                label=label,
                status=status,
                **extra,
            )

    def event(self, kind: str, **args) -> None:
        """An engine event: a ``campaign.<kind>`` instant on pid 0."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.instant(
                f"campaign.{kind}",
                cat="campaign",
                ts=tracer.wall_now(),
                pid=0,
                **args,
            )

    def summary(self, **extra) -> dict:
        """Emit and return the ``campaign.summary`` (counters + extras)."""
        record = {**self.counts, **extra}
        self.event("summary", **record)
        return record

    @property
    def all_hits(self) -> bool:
        """True when every scheduled cell was served from the cache."""
        return self.counts["cells"] > 0 and self.counts["hits"] == self.counts["cells"]
