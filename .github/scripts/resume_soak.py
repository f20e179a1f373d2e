#!/usr/bin/env python
"""Kill-and-re-run soak: repeatedly SIGKILL a cached campaign mid-sweep
and prove that running it again against the same ``--cache`` heals it.

Each iteration starts a fresh cached campaign of the target
experiment, SIGKILLs the process as soon as the cell store holds a
committed entry, runs the same command again with ``--trace`` into a
JSONL file, and asserts

* the re-run exits 0 and its trace ends with ``campaign.summary``;
* no stored cell was recomputed: against the uninterrupted reference
  run, the re-run has exactly one ``done`` cell span fewer per cell
  the killed run stored, exactly that many ``hit`` spans (a stored
  cell its batch holds twice is read once: one ``hit`` and one
  ``dup``, as a cold run counts a ``done`` and a ``dup``), and the
  same number of cells in all;
* the merged experiment artifact is byte-identical to an
  uninterrupted reference run.

A campaign that wins the race and finishes before the kill lands is
counted as ``too-fast`` and does not consume an iteration's worth of
assertions; the soak fails if every iteration was too fast, since then
nothing was actually exercised.

Exits non-zero on the first violated assertion. Traces are left in
the work directory for upload as CI artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

CLI = [sys.executable, "-m", "repro.experiments.cli"]


def run_cli(*args: str, timeout: float = 600.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*CLI, *args], capture_output=True, text=True, timeout=timeout
    )


def cell_statuses(trace: Path) -> list[str]:
    """The ``campaign.cell`` statuses of a finished run's JSONL trace."""
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    if records[-1].get("name") != "campaign.summary":
        raise SystemExit(f"soak: {trace} does not end with its summary")
    return [r["args"]["status"] for r in records if r["name"] == "campaign.cell"]


def stored(cache: Path) -> int:
    """Committed store entries (``os.replace``d, never temp files)."""
    return len(list(cache.glob("??/*.pkl")))


def wait_for_stored_cell(
    cache: Path, proc: subprocess.Popen, deadline_s: float
) -> bool:
    """True once a cell is stored; False if the campaign finished first."""
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        if stored(cache) >= 1:
            return proc.poll() is None
        if proc.poll() is not None:
            return False
        time.sleep(0.005)
    raise SystemExit(f"soak: no cell stored within {deadline_s:.0f}s")


def soak_once(
    it: int,
    experiment: str,
    workdir: Path,
    ref_bytes: bytes,
    ref_statuses: list[str],
    jobs: int,
) -> bool:
    """One kill/re-run cycle; True if the kill landed mid-campaign."""
    cache = workdir / f"soak-{it}-cache"
    out_dir = workdir / f"soak-{it}-out"
    command = [
        "run",
        experiment,
        "--quick",
        "--jobs",
        str(jobs),
        "--cache",
        str(cache),
        "--output",
        str(out_dir),
    ]
    proc = subprocess.Popen(
        [*CLI, *command], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        killed = wait_for_stored_cell(cache, proc, deadline_s=120.0)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    if not killed:
        print(f"[soak {it}] campaign finished before the kill (too fast)")
        return False
    n_stored = stored(cache)
    print(f"[soak {it}] killed with {n_stored} cells stored")

    trace = workdir / f"soak-{it}.jsonl"
    again = run_cli(*command, "--trace", str(trace))
    if again.returncode != 0:
        raise SystemExit(
            f"soak: re-run failed (exit {again.returncode}):\n{again.stderr}"
        )

    statuses = cell_statuses(trace)
    done = statuses.count("done")
    if done != ref_statuses.count("done") - n_stored:
        raise SystemExit(
            f"soak: re-run executed {done} cells; the reference executed "
            f"{ref_statuses.count('done')} and {n_stored} were stored"
        )
    if statuses.count("hit") != n_stored or len(statuses) != len(ref_statuses):
        raise SystemExit(
            f"soak: re-run cell outcomes {sorted(statuses)} do not account "
            f"for the reference's {sorted(ref_statuses)} with {n_stored} stored"
        )

    artifact = out_dir / f"{experiment}.json"
    if not artifact.exists():
        raise SystemExit(f"soak: re-run wrote no artifact {artifact}")
    if artifact.read_bytes() != ref_bytes:
        raise SystemExit("soak: re-run artifact differs from reference run")
    print(f"[soak {it}] re-run OK: zero recompute, bit-identical artifact")
    return True


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--experiment", default="table2")
    ap.add_argument("--iterations", type=int, default=5)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--workdir", type=Path, default=Path("artifacts/soak"))
    args = ap.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.environ.setdefault("PYTHONPATH", "src")

    ref_out = args.workdir / "ref-out"
    ref = run_cli(
        "run",
        args.experiment,
        "--quick",
        "--cache",
        str(args.workdir / "ref-cache"),
        "--output",
        str(ref_out),
        "--trace",
        str(args.workdir / "ref.jsonl"),
    )
    if ref.returncode != 0:
        raise SystemExit(f"soak: reference run failed:\n{ref.stderr}")
    ref_bytes = (ref_out / f"{args.experiment}.json").read_bytes()
    ref_statuses = cell_statuses(args.workdir / "ref.jsonl")

    exercised = sum(
        soak_once(
            it, args.experiment, args.workdir, ref_bytes, ref_statuses, args.jobs
        )
        for it in range(args.iterations)
    )
    if exercised == 0:
        raise SystemExit("soak: every campaign finished before the kill")
    print(f"[soak] {exercised}/{args.iterations} kill/re-run cycles verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
