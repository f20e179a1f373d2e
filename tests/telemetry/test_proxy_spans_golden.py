"""End to end: the proxy's span batches give the trace file, metrics
report and record dicts the per-record sink path gives, and tracing
leaves the job's result bit for bit as it is."""

import json

from repro.experiments.runner import build_controller
from repro.metrics import MetricRegistry, MetricsSink
from repro.telemetry import JsonlSink, MemorySink, Sink, Tracer, use_tracer
from repro.workloads import JobConfig, run_job


class _RecordJsonl(JsonlSink):
    emit_spans = Sink.emit_spans


class _RecordMetrics(MetricsSink):
    emit_spans = Sink.emit_spans


class _RecordMemory(MemorySink):
    emit_spans = Sink.emit_spans


def _job():
    cfg = JobConfig(n_nodes=16, n_verlet_steps=20, analyses=("full_msd", "rdf"), seed=7)
    return run_job(cfg, build_controller("seesaw", cfg))


def _traced(sink):
    with use_tracer(Tracer(sink)) as tracer:
        result = _job()
    tracer.close()
    return result


def _result_bits(result):
    return repr((result.total_time_s, result.records))


def test_batched_sinks_match_per_record_sinks(tmp_path):
    base = _job()

    reg = MetricRegistry()
    batched = _traced(MetricsSink(reg, forward=JsonlSink(tmp_path / "batch.jsonl")))
    ref_reg = MetricRegistry()
    reference = _traced(
        _RecordMetrics(ref_reg, forward=_RecordJsonl(tmp_path / "record.jsonl"))
    )

    trace = (tmp_path / "batch.jsonl").read_bytes()
    assert trace == (tmp_path / "record.jsonl").read_bytes()
    assert b'"name": "phase.md"' in trace and b'"name": "insitu.sync"' in trace
    assert json.dumps(reg.report().to_json()) == json.dumps(ref_reg.report().to_json())
    assert "span.phase.md.energy_j" in reg.report().to_json()["histograms"]

    mem, ref_mem = MemorySink(), _RecordMemory()
    _traced(mem)
    _traced(ref_mem)
    assert mem.records == ref_mem.records
    assert [list(r) for r in mem.records] == [list(r) for r in ref_mem.records]

    assert _result_bits(batched) == _result_bits(base)
    assert _result_bits(reference) == _result_bits(base)
