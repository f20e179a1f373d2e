"""Parent-side telemetry merging: one coherent stream per campaign.

Shipped batches arrive with the timestamps and ``pid``/``tid`` lanes
the *worker's* tracer assigned: every worker numbers its runs 1, 2, …
independently, so records from two workers would collide on the same
trace lane and read as interleaved garbage (overlapping spans, time
running backwards). The :class:`TelemetryMux` re-stamps each record
onto a collision-free lane derived from the worker id and tags it with
the cell identity the worker could not know:

* ``pid`` → ``(wid + 1) * 1000 + worker-local pid`` — every worker
  gets its own block of trace processes, one per cell run, labelled
  ``w<wid> <cell-label>``;
* ``worker`` / ``cell`` / ``label`` keys — which worker executed the
  record's cell, and the cell's content hash and label (what
  ``campaign report`` attributes energy by).

Re-stamped records flow to one place, the parent's ambient tracer
sink: ``run --trace --jobs N`` writes one merged trace with worker
telemetry inlined (Chrome JSON, or the JSONL that ``campaign watch``
and ``campaign report`` read), and ``--metrics`` folds worker phases
into the registry via :class:`~repro.metrics.registry.MetricsSink`.

The mux also widens the campaign's own trace lane: the engine stamps
per-cell ``campaign.cell`` spans onto ``tid = wid + 1`` of trace
process 0, so the campaign process shows one row per worker with each
worker's cells laid end to end — the longest-first order and any
respawns visible as cells landing on whichever lane was idle.
"""

from __future__ import annotations

from repro.telemetry import get_tracer

__all__ = ["TelemetryMux"]

#: trace-pid block size per worker: worker w's runs live on pids
#: (w+1)*PID_STRIDE + 1 .. (w+1)*PID_STRIDE + PID_STRIDE - 1
PID_STRIDE = 1000


class TelemetryMux:
    """Re-stamps shipped worker records and fans them out.

    One mux per :class:`~repro.campaign.executor.CampaignEngine`; the
    engine calls :meth:`absorb` for every task outcome that carried a
    telemetry batch.
    """

    def __init__(self) -> None:
        #: records merged / records dropped worker-side (buffer overflow)
        self.absorbed = 0
        self.dropped = 0
        #: (wid, worker-local pid) -> merged pid
        self._lane_pids: dict[tuple[int, int], int] = {}
        self._named_workers: set[int] = set()

    # ------------------------------------------------------------ lanes
    def _merged_pid(self, wid: int, local_pid: int) -> int:
        # local pids are small sequential run numbers; clamp into the
        # stride so a pathological worker can never collide with the
        # next worker's block
        return (wid + 1) * PID_STRIDE + (local_pid % PID_STRIDE)

    @staticmethod
    def _emit(records: list[dict]) -> None:
        """Hand ``records`` to the ambient tracer's sink, in order."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit_many(records)

    def _lane_rows(self, wid: int) -> list[dict]:
        """The campaign process's name record for worker ``wid``'s row,
        the first time the worker is seen."""
        if wid in self._named_workers:
            return []
        self._named_workers.add(wid)
        return [
            {
                "ph": "M",
                "name": "thread_name",
                "cat": "",
                "ts": 0.0,
                "pid": 0,
                "tid": wid + 1,
                "args": {"name": f"worker {wid}"},
            }
        ]

    # ----------------------------------------------------------- absorb
    def absorb(
        self,
        batch: dict,
        cell_label: str = "",
        cell_key: str = "",
    ) -> int:
        """Merge one shipped batch; returns the number of records kept."""
        wid = int(batch.get("wid", -1))
        records = batch.get("records") or ()
        self.dropped += int(batch.get("dropped", 0))
        if not records:
            return 0
        rows = self._lane_rows(wid)
        for rec in records:
            lane = (wid, rec.get("pid", 0))
            pid = self._lane_pids.get(lane)
            if pid is None:
                pid = self._lane_pids[lane] = self._merged_pid(*lane)
            out = dict(rec)
            out["pid"] = pid
            out["worker"] = wid
            if cell_key:
                out["cell"] = cell_key
            if cell_label:
                out["label"] = cell_label
            if out.get("ph") == "M" and out.get("name") == "process_name":
                # prefix the run's own label so the merged trace reads
                # "w2 seesaw/rdf/d16/..." rather than N identical names
                args = dict(out.get("args") or {})
                args["name"] = f"w{wid} {cell_label or args.get('name', '')}".strip()
                out["args"] = args
            rows.append(out)
        self.absorbed += len(records)
        self._emit(rows)
        return len(records)
