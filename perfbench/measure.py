"""The measurement process: a fresh interpreter that sets one workload
up and, unless it only probes set-up, runs its timed passes.

    python3 -m perfbench.measure --workload NAME --seed N --seconds S
        --mode setup|run|trace --work DIR --out FILE

``setup`` stops at the moment the first batch would be submitted and
reports that instant on the system-wide monotonic clock, so the parent
can time set-up from before it started this interpreter. ``run`` then
makes ``floor(seconds / nominal pass)`` passes (at least one), the same
number in every run, and checks their outputs after the last one, so
the checks never raise the peak memory it reports. Pass times are
scaled to the nominal machine speed (``speed.py``). ``trace`` alternates
untraced and traced passes of the same work, half the time each (at
least one of each), and reports the last traced pass layer by layer.
Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from perfbench.speed import Meter, probe_s, reference_s
from perfbench.stats import Outcomes
from perfbench.workloads import WORKLOADS


def timed_pass(workload, index: int, tracer=None) -> dict:
    """One pass, every segment of it scaled to the nominal machine
    speed (see ``speed.py``); raw times are kept for the report."""
    workload.prepare_pass(index)
    gc.collect()
    meter = Meter(tracer)
    before = os.times()
    root = tracer.begin("bench.pass") if tracer is not None else None
    meter.start()
    try:
        latencies = workload.run_pass(index, meter)
        meter.lap()  # whatever the pass did after its last batch
    finally:
        meter.stop()
    if root is not None:
        tracer.close(root)
    after = os.times()
    slowdown = meter.slowdown
    # the probes ran in this process; their CPU time is not the pass's
    cpu_self = after.user + after.system - before.user - before.system
    cpu_self = max(0.0, cpu_self - meter.reference_total_s)
    cpu_children = (
        after.children_user + after.children_system
        - before.children_user - before.children_system
    )
    return {
        "wall_s": sum(meter.scaled),
        "raw_wall_s": sum(meter.raw),
        "slowdown": slowdown,
        "cpu_self_s": cpu_self / slowdown,
        "raw_cpu_self_s": cpu_self,
        "cpu_children_s": cpu_children / slowdown,
        "latencies_ms": latencies,
    }


def peak_rss_mb() -> tuple[float, float]:
    """(this process, its largest reaped child) peak RSS in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, child / 1024.0  # Linux reports KiB


def traced_pass(workload, index: int, out: Outcomes) -> dict:
    from perfbench.layers import install, layer_metrics
    from perfbench.tracing import Tracer

    workload.prepare_pass(index)  # e.g. fork pool workers untraced
    tracer = Tracer()
    install(tracer)
    try:
        rec = timed_pass(workload, index, tracer)
    finally:
        tracer.restore()
    workload.check_pass(out, index)
    fold = tracer.fold()
    facts = dict(workload.facts, **{"campaign.parent_cpu_s": rec["raw_cpu_self_s"]})
    metrics = layer_metrics(fold, tracer.counts, facts, workload.jobs)
    _, wall, unattributed = fold["bench.pass"]
    metrics.update(
        {
            "trace.wall_s": wall,
            "trace.unattributed_s": unattributed,
            "trace.spans": len(tracer),
        }
    )
    return {
        "metrics": metrics,
        # every span's self time plus the root's remainder is the wall
        "self_sum_s": sum(row[2] for row in fold.values()),
        "spans": fold,
        "scaled_wall_s": rec["wall_s"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--work", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.work)
    workload.setup()
    result: dict = {"setup_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    # the machine's speed just after set-up; the first probe in a fresh
    # interpreter warms the kernel
    probe_s()
    result["setup_ref_s"] = reference_s()
    if args.mode != "setup":
        out = Outcomes()
        if args.mode == "run":
            n = max(1, math.floor(args.seconds / workload.nominal_pass_s))
            passes = [timed_pass(workload, i) for i in range(n)]
            result["peak_rss_mb"], result["peak_rss_child_mb"] = peak_rss_mb()
            for i in range(n):
                workload.check_pass(out, i)
        else:
            # untraced and traced passes of the same work, alternating so
            # that a drift in machine speed hits both alike
            pairs = max(1, math.floor(args.seconds / (2 * workload.nominal_pass_s)))
            passes, traced = [], []
            for k in range(pairs):
                passes.append(timed_pass(workload, 2 * k))
                workload.check_pass(out, 2 * k)
                traced.append(traced_pass(workload, 2 * k + 1, out))
            result["trace"] = trace = traced[-1]
            trace["metrics"]["trace.overhead_pct"] = 100.0 * (
                statistics.median(t["scaled_wall_s"] for t in traced)
                / statistics.median(p["wall_s"] for p in passes)
                - 1.0
            )
        result["facts"] = dict(workload.facts)
        workload.final_checks(out)
        result.update(
            passes=passes,
            describe=workload.describe(),
            attempted=out.attempted,
            failed=out.failed,
            failed_frac=out.failed_frac,
            correct=out.correct,
            reasons=out.reasons,
            pinned=workload.pins is not None,
        )
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
