"""Kill and re-run: the cell store is the campaign's checkpoint.

The acceptance test drives the real CLI in subprocesses: start a
cached campaign, SIGKILL it mid-sweep, run the same command again
against the same ``--cache``, and require (a) zero recomputed finished
cells and (b) results bit-identical to an uninterrupted run.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import repro
from repro.telemetry.sinks import read_records

SRC = str(Path(repro.__file__).parents[1])
ENV = {**os.environ, "PYTHONPATH": SRC}

#: CLI driver that first registers a 12-cell stub sweep (real cells,
#: ~0.1 s each: a wide window to SIGKILL into) under 'stubsweep'
DRIVER = '''
import sys
from dataclasses import dataclass

from repro.campaign import CellSpec, get_engine
from repro.experiments import EXPERIMENTS
from repro.experiments.cli import main
from repro.workloads import JobConfig


@dataclass
class StubResult:
    checksums: list

    def render(self):
        return "stubsweep " + ",".join(f"{c:.17g}" for c in self.checksums)


def stub_experiment():
    specs = [
        CellSpec(
            "seesaw",
            JobConfig(
                analyses=("vacf",),
                dim=16,
                n_nodes=8,
                seed=seed,
                n_verlet_steps=150,
            ),
        )
        for seed in range(1, 13)
    ]
    results = get_engine().run_cells(specs)
    return StubResult([r.total_time_s for r in results])


EXPERIMENTS["stubsweep"] = stub_experiment
sys.exit(main(sys.argv[1:]))
'''


def _cli(driver, *args, **kwargs):
    return subprocess.run(
        [sys.executable, str(driver), *args],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )


def _stored(cache: Path) -> int:
    """Committed store entries (``os.replace``d, never temp files)."""
    return len(list(cache.glob("??/*.pkl")))


def _wait_for_stored_cell(cache: Path, deadline_s: float = 120.0) -> None:
    t0 = time.monotonic()
    while time.monotonic() - t0 < deadline_s:
        if _stored(cache) >= 1:
            return
        time.sleep(0.005)
    raise AssertionError("no cell was stored before the kill deadline")


def test_sigkill_then_resume_is_bit_identical_with_zero_recompute(tmp_path):
    """SIGKILL a cached campaign mid-run; running it again against the
    same --cache completes it with zero recomputed finished cells and
    results bit-identical to an uninterrupted run."""
    driver = tmp_path / "driver.py"
    driver.write_text(DRIVER)

    # reference: the same campaign, uninterrupted, in its own cache
    ref = _cli(
        driver,
        "run",
        "stubsweep",
        "--cache",
        str(tmp_path / "ref-cache"),
        "--output",
        str(tmp_path / "ref-out"),
    )
    assert ref.returncode == 0, ref.stderr
    ref_bytes = (tmp_path / "ref-out" / "stubsweep.json").read_bytes()

    # the victim: killed with SIGKILL as soon as one cell is stored
    cache = tmp_path / "victim-cache"
    out_dir = tmp_path / "victim-out"
    command = [
        "run", "stubsweep", "--cache", str(cache), "--output", str(out_dir),
    ]
    proc = subprocess.Popen(
        [sys.executable, str(driver), *command],
        env=ENV,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        _wait_for_stored_cell(cache)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    assert not (out_dir / "stubsweep.json").exists()  # died mid-sweep
    stored = _stored(cache)
    assert 1 <= stored < 12  # finished cells to protect, work left

    trace = tmp_path / "again.jsonl"
    again = _cli(driver, *command, "--trace", str(trace))
    assert again.returncode == 0, again.stderr

    # bit-identical results
    assert (out_dir / "stubsweep.json").read_bytes() == ref_bytes

    # zero recomputed finished cells: every stored cell is a hit, and
    # only the cells the killed run never stored execute
    records = read_records(trace)
    statuses = [
        r["args"]["status"] for r in records if r["name"] == "campaign.cell"
    ]
    assert statuses.count("done") == 12 - stored
    assert statuses.count("hit") == stored
    (summary,) = [
        r["args"] for r in records if r["name"] == "campaign.summary"
    ]
    assert summary["misses"] == 12 - stored
    assert summary["hits"] == stored
    assert summary["failed"] == 0
    assert _stored(cache) == 12
