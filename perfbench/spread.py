"""Run-to-run spread of the end-to-end metrics.

    python3 -m perfbench.spread [--workloads a,b] [--runs 10] [--first-seed 1]
        [--seed N] [--log FILE]

Runs each workload ``--runs`` times, one run at a time, for
``run_seconds`` of ``BENCHMARK.json``, each run with another seed from
``--first-seed`` on (or every run with ``--seed N``), and prints for
each metric its median, its spread (the interquartile distance over
the median, from ``statistics.quantiles(values, n=4)``) and that
spread as a share of the metric's bound in ``BENCHMARK.json``.
``--log`` appends every run's JSON result, one line each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.stats import spread

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed", type=int, help="run every repetition at this seed")
    ap.add_argument("--log", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        elapsed = []
        for i in range(args.runs):
            seed = args.first_seed + i if args.seed is None else args.seed
            result, took = run_once(workload, seed, spec["run_seconds"])
            elapsed.append(took)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            if args.log is not None:
                with args.log.open("a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "elapsed_s": took, **result}) + "\n")
        print(f"{workload}: {args.runs} runs, {statistics.median(elapsed):.1f} s "
              f"median per run, {sum(elapsed):.0f} s in all")
        for name, vals in values.items():
            s = spread(vals)
            print(f"  {name:<14} median {statistics.median(vals):>12.4f}  "
                  f"spread {100 * s:6.2f}%  = {s / bounds[name]:.2f} of bound "
                  f"{bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
