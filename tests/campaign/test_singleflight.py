"""Single-flight across campaigns: two concurrent engines sharing one
cache directory must never compute the same cell twice, never corrupt
the shared store, and both finish with correct results.

This is the ISSUE acceptance test for concurrent ``run --cache``
invocations, driven at the engine level: each child process runs a full
:class:`CampaignEngine` batch over the same specs. Executions are
counted through an append-only log (O_APPEND writes of < PIPE_BUF bytes
are atomic), so a duplicated computation shows up as a duplicated key.
"""

import multiprocessing
import time

from repro.campaign import (
    CampaignEngine,
    CellSpec,
    CellStore,
    cell_key,
    cell_label,
    run_cell,
)
from repro.telemetry import JsonlSink, Tracer, use_tracer
from repro.telemetry.sinks import read_records
from repro.workloads import JobConfig


def _specs():
    return [
        CellSpec(
            "seesaw",
            JobConfig(
                analyses=("vacf",),
                dim=16,
                n_nodes=8,
                seed=seed,
                n_verlet_steps=10,
            ),
        )
        for seed in (1, 2, 3, 4)
    ]


def _campaign_proc(root, log_path, trace_path, barrier):
    def logged_run(spec):
        with open(log_path, "a") as fh:
            fh.write(cell_key(spec) + "\n")
        time.sleep(0.15)  # widen the race window: overlap is the point
        return run_cell(spec)

    engine = CampaignEngine(store=CellStore(root), run_fn=logged_run)
    tracer = Tracer(JsonlSink(trace_path))
    with use_tracer(tracer):
        barrier.wait(timeout=30)
        engine.run_cells(_specs())
        engine.journal.summary()
    tracer.close()


def test_concurrent_campaigns_compute_each_cell_exactly_once(tmp_path):
    root = tmp_path / "cache"
    log_path = tmp_path / "executions.log"
    traces = [tmp_path / f"run{n}.jsonl" for n in range(2)]
    barrier = multiprocessing.Barrier(2)
    procs = [
        multiprocessing.Process(
            target=_campaign_proc, args=(root, log_path, traces[n], barrier)
        )
        for n in range(2)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0

    specs = _specs()
    keys = [cell_key(s) for s in specs]

    # exactly-once execution across both campaigns
    executed = log_path.read_text().splitlines()
    assert sorted(executed) == sorted(keys)

    # every result committed to the shared store
    store = CellStore(root)
    serial = [run_cell(s) for s in specs]
    for key, expected in zip(keys, serial):
        assert store.get(key) == expected  # and bit-identical to serial

    # both traces are whole and consistent: each campaign accounted
    # for all 4 cells, and 'done' spans across both cover each cell once
    labels = sorted(cell_label(s) for s in specs)
    done, hits, shared = [], 0, 0
    for path in traces:
        records = read_records(path)
        (summary,) = [
            r["args"] for r in records if r["name"] == "campaign.summary"
        ]
        assert summary["cells"] == 4
        assert summary["failed"] == 0
        hits += summary["hits"]
        shared += summary["shared"]
        done += [
            r["args"]["label"]
            for r in records
            if r["name"] == "campaign.cell" and r["args"]["status"] == "done"
        ]
    assert sorted(done) == labels
    # the 4 cells not computed locally were observed from the sibling
    # campaign, at least some of them live through the in-flight lease
    assert hits == 4
    assert shared >= 1


def _lease_then_abandon(root, key, hold_s):
    store = CellStore(root)
    lease = store.try_lease(key)
    assert lease is not None
    time.sleep(hold_s)
    import os

    os._exit(0)  # dies without committing or releasing


def test_engine_recovers_when_inflight_holder_dies(tmp_path):
    """A concurrent campaign that leased a cell and died uncommitted
    must not wedge us: the waiter claims the lease and computes."""
    spec = _specs()[0]
    key = cell_key(spec)
    root = tmp_path / "cache"
    CellStore(root)  # create the root before the child races us to it
    proc = multiprocessing.Process(
        target=_lease_then_abandon, args=(root, key, 0.3)
    )
    proc.start()
    time.sleep(0.1)  # let the child take the lease first
    engine = CampaignEngine(store=CellStore(root))
    journal = engine.journal
    results = engine.run_cells([spec])
    proc.join(timeout=30)
    assert results == [run_cell(spec)]
    assert journal.counts["misses"] == 1  # computed here, not observed
    assert journal.counts["shared"] == 0
