"""Campaign checkpoint/resume: replay the run journal as a ledger.

A file-backed :class:`~repro.campaign.journal.RunJournal` is more than
a log — together with the content-addressed
:class:`~repro.campaign.store.CellStore` it is a **checkpoint** of the
campaign:

* the ``campaign`` header records the campaign id and the exact CLI
  inputs (experiments, overrides, jobs, cache directory) needed to
  re-enter the campaign;
* ``scheduled`` rows record every cell fingerprint the engine
  enqueued for execution;
* completed ``cell`` rows (``done``/``retried``/``hit``/``dup``)
  record which fingerprints finished — and their results live in the
  store under those same fingerprints.

``campaign resume <journal>`` therefore needs no new state: it reloads
this ledger, re-runs the recorded experiments through an engine wired
to the same store, and every finished cell is served from the store
(zero recomputation) while in-flight and never-started cells execute
normally. Because cells are deterministic and content-addressed, the
resumed campaign's merged results are **bit-identical** to an
uninterrupted run — pinned by the resume regression tests.

This module is pure bookkeeping (parse + verify); the CLI owns the
actual re-execution so the experiment registry stays in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.hashing import stable_hash
from repro.campaign.journal import COMPLETED_STATUSES, read_records

__all__ = [
    "CampaignLedger",
    "campaign_id",
    "campaign_meta",
    "load_ledger",
]


def campaign_meta(
    experiments: list[str],
    overrides: dict,
    jobs: int,
    cache: str | None,
    output: str | None = None,
    faulted: bool = False,
) -> dict:
    """The JSON-able header payload ``campaign resume`` replays from."""
    return {
        "experiments": list(experiments),
        "overrides": dict(overrides),
        "jobs": jobs,
        "cache": cache,
        "output": output,
        "faulted": bool(faulted),
    }


def campaign_id(meta: dict) -> str:
    """Stable fingerprint of a campaign's inputs (not of its timing)."""
    return stable_hash(meta)[:16]


@dataclass
class CampaignLedger:
    """Everything a journal says about a campaign's progress."""

    path: Path
    #: the latest ``campaign`` header record (None in legacy journals)
    campaign: dict | None = None
    #: number of ``resume`` records (how many legs ran before this one)
    resumes: int = 0
    #: fingerprints the engine enqueued for execution
    scheduled: set = field(default_factory=set)
    #: fingerprints whose results are available (done/retried/hit/dup)
    completed: set = field(default_factory=set)
    #: fingerprints that exhausted every attempt
    failed: set = field(default_factory=set)
    #: number of summary records (>= 1 means the campaign finished)
    summaries: int = 0

    @property
    def in_flight(self) -> set:
        """Scheduled but never completed: killed mid-execution."""
        return self.scheduled - self.completed - self.failed

    @property
    def finished(self) -> bool:
        return self.summaries > 0 and not self.in_flight

    def describe(self) -> str:
        """Human-readable status block for ``campaign status``."""
        lines = []
        if self.campaign is None:
            lines.append("no campaign header (not a resumable journal)")
        else:
            lines.append(f"campaign      {self.campaign.get('id', '?')}")
            meta = self.campaign
            lines.append(
                f"experiments   {', '.join(meta.get('experiments', []))}"
            )
            lines.append(f"jobs          {meta.get('jobs')}")
            lines.append(f"cache         {meta.get('cache') or '(disabled)'}")
            if meta.get("faulted"):
                lines.append("faulted       yes (not resumable)")
        lines.append(f"legs          {1 + self.resumes}")
        lines.append(f"completed     {len(self.completed)} cells")
        lines.append(f"in flight     {len(self.in_flight)} cells")
        if self.failed:
            lines.append(f"failed        {len(self.failed)} cells")
        lines.append(
            "state         "
            + ("finished" if self.finished else "interrupted (resumable)")
        )
        return "\n".join(lines)


def load_ledger(path: Path | str) -> CampaignLedger:
    """Parse a journal into a :class:`CampaignLedger`.

    Tolerant by construction: the journal is read under its shared
    advisory lock via :func:`repro.campaign.journal.read_records`, so
    a writer mid-append can never hand us half a record; a torn tail
    (crashed writer, lockless filesystem) and unknown events are
    skipped — the ledger only ever *under*-counts completions, which
    makes resume conservative, never wrong.
    """
    path = Path(path)
    ledger = CampaignLedger(path=path)
    for record in read_records(path):
        event = record.get("event")
        if event == "campaign":
            ledger.campaign = record
        elif event == "resume":
            ledger.resumes += 1
        elif event == "scheduled":
            ledger.scheduled.update(record.get("keys", ()))
        elif event == "summary":
            ledger.summaries += 1
        elif event == "cell":
            key = record.get("key")
            status = record.get("status")
            if not key:
                continue
            if status in COMPLETED_STATUSES:
                ledger.completed.add(key)
                ledger.failed.discard(key)
            elif status == "failed":
                ledger.failed.add(key)
    return ledger
