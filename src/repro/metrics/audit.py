"""Controller audit journal: record, replay, diff, timeline.

The paper's Figures 1–2 are *decision traces*: what the controller
observed at instant *t*, what it believed the optimum was, and where
the caps moved. This module makes that a first-class artifact. While an
:class:`AuditJournal` is installed (:func:`use_audit`), every
controller decision — from the flat proxy jobs and the real in-situ
coupler alike — is recorded as a structured :class:`AuditRecord`:

* ``init``     — the initial allocation;
* ``obs``      — one synchronization's measurement (work times and
  partition powers) as the controller saw it;
* ``decision`` — caps before/after, the decision's *inputs* (window
  means, per-node arrays, controller parameters — everything needed to
  recompute it), and the predicted slack where the controller's model
  yields one. The realized slack is derived at read time from the
  first observation following the decision, so streamed journals never
  need backfilling.

Because the inputs are complete, :func:`replay` re-executes every
decision through the controllers' pure decision functions
(:func:`repro.core.seesaw.decide_totals`,
:func:`repro.core.power_aware.redistribute_caps`,
:func:`repro.core.time_aware.balance_caps`) and verifies the recorded
cap schedule bit for bit — a journal is not just a log, it is a
checkable proof of what the controller did. :func:`diff_decisions`
compares two journals decision by decision (the CLI exits nonzero iff
they diverge), and :func:`render_timeline` draws the Fig. 1/2-style
power-split view in the terminal.
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from repro.util.term import sparkline

__all__ = [
    "AuditJournal",
    "AuditRecord",
    "NULL_AUDIT",
    "ReplayResult",
    "decision_views",
    "diff_decisions",
    "get_audit",
    "load_journal",
    "render_timeline",
    "replay",
    "use_audit",
]

#: replay tolerance: JSON round-trips floats exactly (repr-based), so
#: recomputation only has to match to the last ulp of the arithmetic
_EXACT = 1e-12


@dataclass
class AuditRecord:
    """One journal row; ``kind`` is ``init``/``obs``/``decision``/
    ``hold`` (controller declined a degraded observation) / ``fault``
    (an injected fault window opened)."""

    kind: str
    step: int
    controller: str
    t: float | None = None
    before_sim_w: float | None = None
    before_ana_w: float | None = None
    after_sim_w: float | None = None
    after_ana_w: float | None = None
    #: everything needed to recompute the decision (controller-specific)
    inputs: dict = field(default_factory=dict)
    #: per-node caps after the decision, for array-valued controllers
    after_caps: dict = field(default_factory=dict)
    predicted_slack_s: float | None = None
    #: observation payload (kind == "obs")
    measured: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "step": self.step, "controller": self.controller}
        for key in (
            "t",
            "before_sim_w",
            "before_ana_w",
            "after_sim_w",
            "after_ana_w",
            "predicted_slack_s",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.inputs:
            out["inputs"] = self.inputs
        if self.after_caps:
            out["after_caps"] = self.after_caps
        if self.measured:
            out["measured"] = self.measured
        return out

    @classmethod
    def from_json(cls, data: dict) -> "AuditRecord":
        return cls(
            kind=data["kind"],
            step=int(data["step"]),
            controller=data.get("controller", ""),
            t=data.get("t"),
            before_sim_w=data.get("before_sim_w"),
            before_ana_w=data.get("before_ana_w"),
            after_sim_w=data.get("after_sim_w"),
            after_ana_w=data.get("after_ana_w"),
            inputs=data.get("inputs", {}),
            after_caps=data.get("after_caps", {}),
            predicted_slack_s=data.get("predicted_slack_s"),
            measured=data.get("measured", {}),
        )


class AuditJournal:
    """Decision recorder; in-memory always, JSONL-streamed when given a
    path (the file is truncated; missing parent directories are
    created)."""

    enabled = True

    def __init__(self, path: Path | str | None = None) -> None:
        self.records: list[AuditRecord] = []
        self.path = Path(path) if path is not None else None
        self._fh = None
        self._clock: Optional[Callable[[], float]] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = self.path.open("w")

    # ------------------------------------------------------------ clock
    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Adopt the DES virtual clock (done by Engine construction)."""
        self._clock = clock

    def now(self) -> float | None:
        clock = self._clock
        return clock() if clock is not None else None

    # ------------------------------------------------------------ write
    def _append(self, record: AuditRecord) -> None:
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record.to_json(), sort_keys=True) + "\n")
            self._fh.flush()

    def record_init(
        self, controller: str, after_sim_w: float, after_ana_w: float
    ) -> None:
        self._append(
            AuditRecord(
                kind="init",
                step=0,
                controller=controller,
                t=self.now(),
                after_sim_w=after_sim_w,
                after_ana_w=after_ana_w,
            )
        )

    def record_observation(self, controller: str, obs) -> None:
        """One synchronization's measurement (an ``Observation``)."""
        self._append(
            AuditRecord(
                kind="obs",
                step=obs.step,
                controller=controller,
                t=self.now(),
                measured={
                    "sim_work_s": obs.sim.work_time_s,
                    "ana_work_s": obs.ana.work_time_s,
                    "sim_power_w": obs.sim.total_power_w,
                    "ana_power_w": obs.ana.total_power_w,
                },
            )
        )

    def record_decision(
        self,
        controller: str,
        step: int,
        before: tuple[float, float],
        after: tuple[float, float],
        inputs: dict,
        predicted_slack_s: float | None = None,
        after_caps: dict | None = None,
    ) -> None:
        self._append(
            AuditRecord(
                kind="decision",
                step=step,
                controller=controller,
                t=self.now(),
                before_sim_w=before[0],
                before_ana_w=before[1],
                after_sim_w=after[0],
                after_ana_w=after[1],
                inputs=inputs,
                after_caps=after_caps or {},
                predicted_slack_s=predicted_slack_s,
            )
        )

    def record_hold(
        self, controller: str, step: int, reason: str, detail: dict
    ) -> None:
        """Controller held its caps on a degraded observation."""
        self._append(
            AuditRecord(
                kind="hold",
                step=step,
                controller=controller,
                t=self.now(),
                inputs={"reason": reason, **detail},
            )
        )

    def record_fault(self, fault_kind: str, t: float, detail: dict) -> None:
        """An injected fault window opened at virtual time ``t``."""
        self._append(
            AuditRecord(
                kind="fault",
                step=0,
                controller="faults",
                t=t,
                inputs={"fault": fault_kind, **detail},
            )
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "AuditJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _NullAuditJournal(AuditJournal):
    """Inert default: instrumentation checks ``enabled`` and moves on."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def bind_clock(self, clock) -> None:
        pass

    def _append(self, record: AuditRecord) -> None:  # pragma: no cover
        pass


NULL_AUDIT = _NullAuditJournal()

_current: AuditJournal | None = None


def get_audit() -> AuditJournal:
    """The ambient audit journal (:data:`NULL_AUDIT` unless installed)."""
    current = _current
    return current if current is not None else NULL_AUDIT


@contextlib.contextmanager
def use_audit(journal: AuditJournal):
    """Install ``journal`` as the ambient audit journal for a scope."""
    global _current
    previous = _current
    _current = journal
    try:
        yield journal
    finally:
        _current = previous


# ---------------------------------------------------------------------------
# reading journals back


def load_journal(path: Path | str) -> list[AuditRecord]:
    """Parse a JSONL audit journal (blank lines ignored)."""
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(AuditRecord.from_json(json.loads(line)))
    return records


def decision_views(records: list[AuditRecord]) -> list[dict]:
    """Decisions with their *realized* slack attached.

    The realized slack of a decision is the |sim work − ana work| of
    the first observation recorded after it — what the reallocation
    actually achieved, to be read against ``predicted_slack_s``.
    """
    views: list[dict] = []
    pending: dict | None = None
    for rec in records:
        if rec.kind == "decision":
            pending = {
                "record": rec,
                "realized_slack_s": None,
            }
            views.append(pending)
        elif rec.kind == "obs" and pending is not None:
            measured = rec.measured
            pending["realized_slack_s"] = abs(
                measured.get("sim_work_s", 0.0) - measured.get("ana_work_s", 0.0)
            )
            pending = None
    return views


# ---------------------------------------------------------------------------
# replay


@dataclass
class ReplayResult:
    """Outcome of re-executing a journal's decisions."""

    n_decisions: int = 0
    n_replayed: int = 0
    #: degraded observations the controller declined to act on
    n_holds: int = 0
    #: injected fault windows recorded in the journal
    n_faults: int = 0
    #: (step, field, recorded, recomputed) for every divergence
    mismatches: list = field(default_factory=list)
    #: the verified cap schedule: (step, after_sim_w, after_ana_w)
    schedule: list = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        lines = [
            f"replayed {self.n_replayed}/{self.n_decisions} decisions",
        ]
        if self.n_faults:
            lines.append(f"{self.n_faults} fault window(s) injected")
        if self.n_holds:
            lines.append(
                f"{self.n_holds} hold(s): controller kept caps on"
                " degraded observations"
            )
        lines += [
            "",
            f"  {'step':>6} {'sim W':>10} {'ana W':>10}",
        ]
        for step, sim_w, ana_w in self.schedule:
            lines.append(f"  {step:>6} {sim_w:>10.3f} {ana_w:>10.3f}")
        if self.mismatches:
            lines.append("")
            lines.append("MISMATCHES:")
            for step, fieldname, recorded, recomputed in self.mismatches:
                lines.append(
                    f"  step {step}: {fieldname} recorded={recorded!r}"
                    f" recomputed={recomputed!r}"
                )
        else:
            lines.append("")
            lines.append("recorded cap schedule reproduced exactly")
        return "\n".join(lines)


def _replay_seesaw(i: dict) -> tuple[float, float]:
    from repro.core.seesaw import decide_totals

    _, total_s, total_a = decide_totals(
        i["t_sim_s"],
        i["p_sim_w"],
        i["t_ana_s"],
        i["p_ana_w"],
        i["budget_w"],
        i["prev_sim_w"],
        i["prev_ana_w"],
        i["feedback"],
        i["damping"],
        i["n_sim"],
        i["n_ana"],
        i["lo_w"],
        i["hi_w"],
    )
    return total_s, total_a


def _replay_power_aware(i: dict) -> tuple[float, float]:
    import numpy as np

    from repro.core.power_aware import redistribute_caps

    caps = np.asarray(i["caps_w"], dtype=float)
    decided = redistribute_caps(
        caps,
        np.asarray(i["mean_power_w"], dtype=float),
        i["lo_w"],
        i["hi_w"],
        i["at_cap_margin_w"],
        i["reclaim_margin_w"],
    )
    # declining to act leaves the caps where they were
    if decided is not None:
        caps = decided[0]
    n_sim = i["n_sim"]
    return float(caps[:n_sim].sum()), float(caps[n_sim:].sum())


def _replay_time_aware(i: dict) -> tuple[float, float]:
    import numpy as np

    from repro.core.time_aware import balance_caps

    caps, _slack = balance_caps(
        np.asarray(i["caps_w"], dtype=float),
        np.asarray(i["times_s"], dtype=float),
        i["eta_w"],
        i["reactivity"],
        i["budget_w"],
        i["lo_w"],
        i["hi_w"],
    )
    n_sim = i["n_sim"]
    return float(caps[:n_sim].sum()), float(caps[n_sim:].sum())


#: controller name -> pure-function replayer of its recorded inputs;
#: the static baseline makes no decisions
_REPLAYERS = {
    "seesaw": _replay_seesaw,
    "power-aware": _replay_power_aware,
    "time-aware": _replay_time_aware,
}


def replay(records: list[AuditRecord]) -> ReplayResult:
    """Re-execute every decision from its recorded inputs and verify
    the recorded cap schedule.

    A decision that cannot be re-executed — its controller has no
    replayer, or an input the replayer needs was not recorded — is a
    mismatch: the schedule is only verified where it was recomputed.
    """
    result = ReplayResult()
    for rec in records:
        if rec.kind == "init":
            result.schedule.append((rec.step, rec.after_sim_w, rec.after_ana_w))
            continue
        if rec.kind == "hold":
            result.n_holds += 1
            continue
        if rec.kind == "fault":
            result.n_faults += 1
            continue
        if rec.kind != "decision":
            continue
        result.n_decisions += 1
        result.schedule.append((rec.step, rec.after_sim_w, rec.after_ana_w))
        replayer = _REPLAYERS.get(rec.controller)
        if replayer is None:
            result.mismatches.append(
                (rec.step, "controller", rec.controller, None)
            )
            continue
        try:
            recomputed = replayer(rec.inputs)
        except KeyError as exc:
            result.mismatches.append(
                (rec.step, f"inputs[{exc.args[0]!r}]", None, None)
            )
            continue
        result.n_replayed += 1
        for fieldname, recorded, value in zip(
            ("after_sim_w", "after_ana_w"),
            (rec.after_sim_w, rec.after_ana_w),
            recomputed,
        ):
            if recorded is None or not math.isclose(
                recorded, value, rel_tol=0.0, abs_tol=_EXACT
            ):
                result.mismatches.append((rec.step, fieldname, recorded, value))
    return result


# ---------------------------------------------------------------------------
# diff


def diff_decisions(
    a: list[AuditRecord], b: list[AuditRecord]
) -> list[str]:
    """Decision-by-decision divergences between two journals.

    Empty list means the journals agree on every decision (controller,
    step, and after-caps); the CLI maps non-empty to a nonzero exit.
    """
    da = [r for r in a if r.kind == "decision"]
    db = [r for r in b if r.kind == "decision"]
    divergences: list[str] = []
    for i, (ra, rb) in enumerate(zip(da, db)):
        if ra.controller != rb.controller:
            divergences.append(
                f"decision {i}: controller {ra.controller!r} vs {rb.controller!r}"
            )
            continue
        if ra.step != rb.step:
            divergences.append(f"decision {i}: step {ra.step} vs {rb.step}")
        for fieldname in ("after_sim_w", "after_ana_w"):
            va, vb = getattr(ra, fieldname), getattr(rb, fieldname)
            if va is None or vb is None or not math.isclose(
                va, vb, rel_tol=0.0, abs_tol=_EXACT
            ):
                divergences.append(
                    f"decision {i} (step {ra.step}): {fieldname}"
                    f" {va!r} vs {vb!r}"
                )
    if len(da) != len(db):
        divergences.append(f"decision count differs: {len(da)} vs {len(db)}")
    return divergences


# ---------------------------------------------------------------------------
# timeline rendering (Fig. 1/2 style)


def render_timeline(records: list[AuditRecord], width: int = 64) -> str:
    """Terminal power-split timeline: measured partition power per
    synchronization, the cap schedule the decisions installed, and the
    predicted-vs-realized slack of each decision."""
    obs = [r for r in records if r.kind == "obs"]
    lines = ["== controller timeline =="]
    if obs:
        sim_p = [r.measured.get("sim_power_w", 0.0) for r in obs]
        ana_p = [r.measured.get("ana_power_w", 0.0) for r in obs]
        lines.append("")
        lines.append(f"measured partition power over {len(obs)} syncs:")
        lines.append("  " + sparkline(sim_p, width=width, label="sim W"))
        lines.append("  " + sparkline(ana_p, width=width, label="ana W"))
    # forward-fill the cap schedule over the observed steps
    sched = [
        r
        for r in records
        if r.kind in ("init", "decision") and r.after_sim_w is not None
    ]
    if sched and obs:
        sim_caps, ana_caps = [], []
        i = 0
        cur = sched[0]
        for r in obs:
            while i + 1 < len(sched) and sched[i + 1].step <= r.step:
                i += 1
                cur = sched[i]
            sim_caps.append(cur.after_sim_w)
            ana_caps.append(cur.after_ana_w)
        lines.append("")
        lines.append("installed cap split (forward-filled per sync):")
        lines.append("  " + sparkline(sim_caps, width=width, label="sim cap W"))
        lines.append("  " + sparkline(ana_caps, width=width, label="ana cap W"))
    views = decision_views(records)
    if views:
        lines.append("")
        lines.append(
            f"  {'step':>6} {'sim W':>9} {'ana W':>9}"
            f" {'pred slack s':>13} {'real slack s':>13}"
        )
        for view in views:
            rec = view["record"]
            pred = rec.predicted_slack_s
            real = view["realized_slack_s"]
            lines.append(
                f"  {rec.step:>6} {rec.after_sim_w:>9.2f}"
                f" {rec.after_ana_w:>9.2f}"
                f" {pred if pred is not None else float('nan'):>13.4f}"
                f" {real if real is not None else float('nan'):>13.4f}"
            )
    if len(lines) == 1:
        lines.append("(journal holds no observations or decisions)")
    return "\n".join(lines)
