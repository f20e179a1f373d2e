"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables/figures via the
harnesses in :mod:`repro.experiments`, asserts the paper's qualitative
shape, prints the rendered table (run with ``-s`` to see them) and
reports the regeneration time through pytest-benchmark.

Benchmarks run each harness exactly once (``pedantic`` with one round):
the harnesses are full experiments — medians of repeated simulated
jobs — not microkernels to be re-sampled.

The harnesses submit their runs through the campaign layer
(:mod:`repro.campaign`), so the suite can optionally fan out and cache
without touching any benchmark:

* ``SEESAW_BENCH_JOBS=N``  — run each harness's cells on N workers;
* ``SEESAW_BENCH_CACHE=DIR`` — reuse cell results across invocations
  (content-addressed; a code edit invalidates the cache);
* ``SEESAW_BENCH_METRICS=PATH`` — additionally collect streaming
  metrics (see :mod:`repro.metrics`) over the harness runs and write
  one merged report to PATH at session end (``.json`` → JSON,
  otherwise Prometheus text). The scope installs what ``run
  --metrics`` does: a tracer whose :class:`~repro.metrics.MetricsSink`
  folds the runs' records into the registry (phase histograms, cap and
  decision counts), so pool workers' records are folded too.

All unset (the default, and what CI uses) keeps the historical
serial in-process behaviour — and identical numbers either way, since
cells are deterministic and the metrics layer never perturbs a run.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.campaign import CampaignEngine, CellStore, use_engine
from repro.metrics import MetricRegistry, MetricsSink
from repro.telemetry import Tracer, use_tracer


def _engine_from_env() -> CampaignEngine | None:
    jobs = int(os.environ.get("SEESAW_BENCH_JOBS", "1"))
    cache = os.environ.get("SEESAW_BENCH_CACHE")
    if jobs <= 1 and not cache:
        return None
    store = CellStore(Path(cache)) if cache else None
    return CampaignEngine(jobs=max(jobs, 1), store=store)


#: session-wide registry when SEESAW_BENCH_METRICS is set (one report
#: aggregated across every benchmark in the session)
_METRICS_REGISTRY: MetricRegistry | None = (
    MetricRegistry() if os.environ.get("SEESAW_BENCH_METRICS") else None
)


@pytest.fixture(scope="session", autouse=True)
def _write_metrics_report():
    yield
    if _METRICS_REGISTRY is not None:
        path = Path(os.environ["SEESAW_BENCH_METRICS"])
        _METRICS_REGISTRY.report().write(path)
        print(f"\n[benchmark metrics report -> {path}]")


def regenerate(benchmark, fn, **kwargs):
    """Run ``fn(**kwargs)`` once under the benchmark timer and return
    its result."""
    engine = _engine_from_env()

    def _call():
        import contextlib

        scope = contextlib.ExitStack()
        if _METRICS_REGISTRY is not None:
            scope.enter_context(
                use_tracer(Tracer(MetricsSink(_METRICS_REGISTRY)))
            )
        with scope:
            if engine is None:
                return fn(**kwargs)
            with use_engine(engine):
                return fn(**kwargs)

    try:
        result = benchmark.pedantic(
            _call, iterations=1, rounds=1, warmup_rounds=0
        )
    finally:
        if engine is not None:
            engine.close()  # tear down the warm worker pool
    print()
    print(result.render())
    return result


@pytest.fixture
def bench(benchmark):
    def _run(fn, **kwargs):
        return regenerate(benchmark, fn, **kwargs)

    return _run
