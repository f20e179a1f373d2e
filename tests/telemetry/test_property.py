"""Property tests: span trees are always well-formed, and the null
sink never perturbs results."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.runner import build_controller
from repro.telemetry import (
    MemorySink,
    NullSink,
    Tracer,
    summarize,
    to_chrome_events,
    use_tracer,
    validate_spans,
)
from repro.workloads import JobConfig, run_job

# ---------------------------------------------------------------------------
# random span programs


@st.composite
def span_trees(draw, depth=0):
    """A random tree of (name, children, n_instants, n_completes)."""
    name = draw(st.sampled_from(["a", "b", "c", "d"]))
    n_instants = draw(st.integers(0, 2))
    n_completes = draw(st.integers(0, 2))
    children = []
    if depth < 3:
        children = draw(
            st.lists(span_trees(depth=depth + 1), min_size=0, max_size=3)
        )
    return (name, children, n_instants, n_completes)


@st.composite
def programs(draw):
    """Per-lane forests plus a lane id for each."""
    n_lanes = draw(st.integers(1, 3))
    return {
        tid: draw(st.lists(span_trees(), min_size=0, max_size=3))
        for tid in range(n_lanes)
    }


def _play(tracer, tree, tid):
    name, children, n_instants, n_completes = tree
    with tracer.span(name, cat="prop", tid=tid):
        for _ in range(n_instants):
            tracer.instant("tick", cat="prop", tid=tid)
        for child in children:
            _play(tracer, child, tid)
        for _ in range(n_completes):
            # duration 0 can never poke out of the parent interval
            tracer.complete("leaf", 0.0, cat="prop", tid=tid)


@given(programs())
@settings(max_examples=60, deadline=None)
def test_span_programs_always_validate(prog):
    sink = MemorySink()
    clock = iter(range(1_000_000))
    tracer = Tracer(sink, clock=lambda: float(next(clock)))
    for tid, forest in prog.items():
        for tree in forest:
            _play(tracer, tree, tid)
    assert validate_spans(sink.records) == []
    # every record survives Chrome conversion with the required keys
    for ev in to_chrome_events(sink.records):
        assert {"name", "cat", "ph", "ts", "pid", "tid"} <= set(ev)
    # and the summary never chokes on a valid stream
    summarize(sink.records)


@given(programs())
@settings(max_examples=30, deadline=None)
def test_unclosed_spans_are_always_flagged(prog):
    sink = MemorySink()
    clock = iter(range(1_000_000))
    tracer = Tracer(sink, clock=lambda: float(next(clock)))
    for tid, forest in prog.items():
        for tree in forest:
            _play(tracer, tree, tid)
    tracer.begin("dangling", cat="prop", tid=0)
    assert validate_spans(sink.records)


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["static", "seesaw", "power-aware", "time-aware"]),
)
@settings(max_examples=8, deadline=None)
def test_null_sink_leaves_job_results_bit_identical(seed, approach):
    """Tracing through a NullSink must not change a single bit."""
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=6, seed=seed)
    base = run_job(cfg, build_controller(approach, cfg))
    with use_tracer(Tracer(NullSink())):
        traced = run_job(cfg, build_controller(approach, cfg))
    assert traced == base


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["static", "seesaw", "power-aware", "time-aware"]),
)
@settings(max_examples=8, deadline=None)
def test_metrics_and_audit_leave_job_results_bit_identical(seed, approach):
    """The metrics layer's contract: a run with a live registry (the
    trace folded by a MetricsSink) and audit journal installed matches
    a bare run bit for bit."""
    from repro.metrics import AuditJournal, MetricRegistry, MetricsSink, use_audit

    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=6, seed=seed)
    base = run_job(cfg, build_controller(approach, cfg))
    registry = MetricRegistry()
    with use_tracer(Tracer(MetricsSink(registry))), use_audit(
        AuditJournal()
    ) as journal:
        metered = run_job(cfg, build_controller(approach, cfg))
    assert metered == base
    assert journal.records  # and the journal actually captured the run
    assert registry.report().to_json()["histograms"]  # and the registry


def test_memory_sink_also_preserves_numerics():
    """Even a *recording* tracer leaves the proxy's numerics alone."""
    cfg = JobConfig(dim=2, n_nodes=4, n_verlet_steps=6, seed=11)
    base = run_job(cfg, build_controller("seesaw", cfg))
    sink = MemorySink()
    with use_tracer(Tracer(sink)):
        traced = run_job(cfg, build_controller("seesaw", cfg))
    assert traced == base
