"""Regenerate ``pins.json``: the digests every benchmark run is checked
against, per workload and seed.

    PYTHONPATH=src:. python3 -m perfbench.pin --seeds 0-31 [--procs 2]

Each seed's cells run through the serial in-process engine (so the
pooled workload is pinned to what a serial run gives). A seed whose
fig3 shape or chaos gate fails is reported and not pinned. Re-pin only
when a change is meant to alter results; the pins are the benchmark's
evidence that a change kept them.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

from perfbench.speed import Meter
from perfbench.stats import digest
from perfbench.workloads import (
    PINS_PATH,
    Fig3aSerial,
    Fig3bPool,
    InsituChaos,
    chaos_gate,
    improvement_table,
    serial_totals,
    shape_holds,
    summarize_call,
)


def _cells(labels, totals) -> dict:
    return {label: digest(value) for label, value in zip(labels, totals)}


def pin_seed(seed: int) -> tuple[int, dict, list[str]]:
    problems: list[str] = []
    pins: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for cls in (Fig3aSerial, Fig3bPool):
            w = cls(seed, Path(tmp), pins={})
            w.setup()
            totals = serial_totals(w.cells)
            table = improvement_table(totals)
            if cls is Fig3aSerial:
                ok, why = shape_holds(w.specs, table)
                if not ok:
                    problems.append(why)
            pins[w.name] = {"cells": _cells(w.labels, totals), "table": digest(*table)}
        w = InsituChaos(seed, Path(tmp), pins={})
        w.setup()
        meter = Meter()
        meter.start()
        try:
            w.run_pass(0, meter)
        finally:
            meter.stop()
        calls = w.outputs[0]["raw"]
        for label, result in calls.items():
            problems += [f"{label}: {p}" for p in chaos_gate(result, w.shape.budget_w)]
        pins[w.name] = {"calls": {k: summarize_call(r) for k, r in calls.items()}}
    return seed, pins, problems


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    ap.add_argument("--procs", type=int, default=1)
    args = ap.parse_args(argv)

    pins = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}
    bad = 0
    with ProcessPoolExecutor(args.procs, mp_context=get_context("spawn")) as pool:
        for seed, entry, problems in pool.map(pin_seed, parse_seeds(args.seeds)):
            if problems:
                bad += 1
                print(f"seed {seed}: not pinned: {problems}", file=sys.stderr)
                continue
            for workload, value in entry.items():
                pins.setdefault(workload, {})[str(seed)] = value
            print(f"seed {seed}: pinned", file=sys.stderr, flush=True)
    for workload in pins:
        pins[workload] = dict(sorted(pins[workload].items(), key=lambda kv: int(kv[0])))
    PINS_PATH.write_text(json.dumps(dict(sorted(pins.items())), indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
