"""Campaign layer: elastic, resumable experiment orchestration.

Every data point in the paper is assembled from *cells* — single
``(JobConfig, approach, controller kwargs, run index)`` managed runs.
The experiment harnesses used to execute cells one at a time in a
serial loop; this package turns them into a campaign engine:

* :mod:`repro.campaign.cells` — the cell specification, the pure
  function that executes one cell (deterministic: a cell's result
  depends only on its spec, never on the process running it), and the
  a-priori cost estimate the pool orders cells by;
* :mod:`repro.campaign.hashing` — stable content hashing of cell
  specs plus a code-version salt, so cached results are invalidated
  the moment any source file changes;
* :mod:`repro.campaign.store` — the content-addressed on-disk result
  cache (atomic writes, corruption-tolerant reads) with advisory
  per-key leases so concurrent campaigns sharing a store single-flight
  every cell;
* :mod:`repro.campaign.journal` — structured JSONL run journal (one
  line per cell: key, status, wall time, cache hit/miss, worker) that
  doubles as a replayable campaign ledger, with flock-serialized
  appends for concurrent writers;
* :mod:`repro.campaign.scheduler` — a warm, persistent worker pool
  fed from one longest-first queue, one cell in flight per worker,
  with per-cell timeout and respawn and per-worker utilization/ETA
  telemetry;
* :mod:`repro.campaign.resume` — campaign checkpoint/resume: parse a
  journal back into a ledger so ``campaign resume`` skips every
  completed cell and re-enqueues in-flight ones;
* :mod:`repro.campaign.executor` — the engine tying it together, with
  per-cell timeout, bounded retry, in-process serial fallback, and the
  ambient-engine hooks (:func:`get_engine` / :func:`use_engine`) the
  experiment runner submits through.

Because cells are deterministic, a campaign executed with any number
of workers — or killed and resumed any number of times — is
bit-identical to the serial loop it replaced.
"""

from repro.campaign.cells import CellSpec, cell_label, cell_units, run_cell
from repro.campaign.executor import (
    CampaignEngine,
    CellFailure,
    get_engine,
    use_engine,
)
from repro.campaign.hashing import cell_key, code_salt, stable_hash
from repro.campaign.journal import RunJournal
from repro.campaign.resume import (
    CampaignLedger,
    campaign_id,
    campaign_meta,
    load_ledger,
)
from repro.campaign.scheduler import (
    SchedulerStats,
    SchedulerUnavailable,
    WorkerPool,
)
from repro.campaign.store import CellLease, CellStore, default_cache_dir

__all__ = [
    "CampaignEngine",
    "CampaignLedger",
    "CellFailure",
    "CellLease",
    "CellSpec",
    "CellStore",
    "RunJournal",
    "SchedulerStats",
    "SchedulerUnavailable",
    "WorkerPool",
    "campaign_id",
    "campaign_meta",
    "cell_key",
    "cell_label",
    "cell_units",
    "code_salt",
    "default_cache_dir",
    "get_engine",
    "load_ledger",
    "run_cell",
    "stable_hash",
    "use_engine",
]
