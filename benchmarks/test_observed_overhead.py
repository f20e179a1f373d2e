"""Observed-run cost gate (ROADMAP item 6).

Gate: the fig3a ``all``/dim-36 pair (SeeSAw and its static twin, 128
nodes, 400 synchronizations each) run with the three file sinks that
``run --trace --metrics --audit`` installs — ``Tracer(MetricsSink(
registry, forward=JsonlSink(trace.jsonl)))``, an ``AuditJournal`` file
and the metrics report written at the end — costs at most ``BOUND``
times the same pair run unobserved. The comparison is timed by hand
(interleaved median-of-N with ``time.perf_counter``) so the assertion
also runs in CI's ``--benchmark-disable`` bench-smoke job, where
pytest-benchmark's own timer is a no-op.

The cells run in-process (``run_cell``), whatever engine the suite
installs: the sinks observe the process they are installed in.

Measured on a 2-vCPU x86 VM: about 8.4x when every per-rank phase span
went through ``json.dumps`` and one histogram ``observe`` per record,
4.0-4.4x with columnar span batches (bound 6x), 1.6-1.8x since the
proxy traces one work span and one sync span per partition and
synchronization instead of one per rank (bound 2.5x).
"""

import shutil
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.campaign.cells import run_cell
from repro.metrics import AuditJournal, MetricRegistry, MetricsSink, use_audit
from repro.scenario import load_suite
from repro.telemetry import JsonlSink, Tracer, use_tracer

#: interleaved repetitions per variant; medians shrug off one-off
#: scheduler noise that a single pair of timings would inherit
ROUNDS = 5

#: observed / unobserved wall-time ratio the pair must stay under
BOUND = 2.5

SPEC = "fig3a/all-dim36-n128/seesaw"
BASE_SEED = 300  # fig3's default base seed


def _pair():
    spec = next(s for s in load_suite("fig3a").specs if s.name == SPEC)
    spec = replace(spec, repeats=1).with_job(seed=BASE_SEED + spec.extras["seed_offset"])
    return spec.to_cells()


def _median(xs):
    xs = sorted(xs)
    return xs[len(xs) // 2]


def _plain(cells):
    t0 = time.perf_counter()
    totals = [run_cell(c).total_time_s for c in cells]
    return time.perf_counter() - t0, totals


def _observed(cells, where: Path):
    """Time the observed pair writing its files under ``where``, then
    delete them: the sinks append, and one round's ~35 MB left behind
    would be written back while a later round is timed."""
    where.mkdir()
    t0 = time.perf_counter()
    registry = MetricRegistry()
    tracer = Tracer(MetricsSink(registry, forward=JsonlSink(where / "trace.jsonl")))
    audit = AuditJournal(where / "audit.jsonl")
    try:
        with use_tracer(tracer), use_audit(audit):
            totals = [run_cell(c).total_time_s for c in cells]
        registry.report().write(where / "metrics.json")
    finally:
        tracer.close()
        audit.close()
    dt = time.perf_counter() - t0
    shutil.rmtree(where)
    return dt, totals


def test_observed_pair_costs_under_bound(benchmark):
    cells = _pair()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        # warm both paths (imports, caches) before measuring
        _, want = _plain(cells)
        _observed(cells, tmp / "run")

        plain, observed = [], []
        for _ in range(ROUNDS):  # interleaved: drift hits both variants
            dt, totals = _plain(cells)
            plain.append(dt)
            assert totals == want
            dt, totals = _observed(cells, tmp / "run")
            observed.append(dt)
            assert totals == want

    ratio = _median(observed) / _median(plain)
    print(
        f"\n[observed pair: {_median(observed):.3f} s vs "
        f"{_median(plain):.3f} s unobserved = {ratio:.2f}x, bound {BOUND}x]"
    )
    assert ratio < BOUND, f"observed pair costs {ratio:.2f}x the plain pair"
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
