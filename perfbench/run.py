"""Benchmark of the SeeSAw reproduction: what users wait for, end to end
and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds 24] [--trace 0|1]

Run from the root of a checkout. Workloads: fig3a-serial,
fig3b-1024-pool, insitu-chaos, fig3a-observed (see README.md). The
seed defaults to 0, which reproduces the inputs of the shipped
artifacts.

A run starts one discarded warm-up interpreter (so byte-compilation
and a cold page cache never land in ``setup_s``), then, untraced, three
set-up probes and the measurement process; traced, an import probe
and a measurement process that makes one untraced and one traced pass.
It prints a report, then one JSON line with the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``), and exits 1
if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.speed import reference_s, scale  # noqa: E402
from perfbench.stats import tail  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: every child must be done this long after the run started
DEADLINE_S = 170.0
#: fresh-interpreter set-up probes besides the measurement process
SETUP_PROBES = 3
#: BLAS/OpenMP pools would otherwise start a thread per core and
#: contend with the pool workers and with each other; a fixed hash
#: seed gives every run the same dict and set layouts
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Harness:
    def __init__(self, args) -> None:
        self.args = args
        self.deadline = monotonic() + DEADLINE_S
        self.work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
        env = dict(os.environ, **PINNED_ENV)
        paths = [str(ROOT / "src"), str(ROOT)]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        self.env = env
        reference_s()  # warms the probe kernel

    def _child(self, cmd: list[str], **kw) -> subprocess.CompletedProcess:
        remaining = self.deadline - monotonic()
        if remaining <= 0:
            raise TimeoutError("out of time before starting a child")
        return subprocess.run(
            cmd, cwd=ROOT, env=self.env, timeout=remaining, check=True, **kw
        )

    def measure(self, mode: str) -> tuple[float, float, dict]:
        """Start a measurement process; return (its start, the mean probe
        time just before it, its result)."""
        self.work.mkdir(parents=True, exist_ok=True)
        out = self.work / f"{mode}-{time.monotonic_ns()}.json"
        a = self.args
        cmd = [
            sys.executable, "-m", "perfbench.measure",
            "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--mode", mode,
            "--work", str(self.work), "--out", str(out),
        ]
        ref = reference_s()
        started = monotonic()
        # the child's own output is diagnostics; keep stdout for the result
        self._child(cmd, stdout=sys.stderr)
        return started, ref, json.loads(out.read_text())

    def setup_s(self, mode: str) -> tuple[float, dict]:
        """Set-up time of a fresh measurement process, scaled by the
        probes run here before it and there after set-up."""
        started, ref, result = self.measure(mode)
        raw = result["setup_at"] - started
        return scale(raw, 0.5 * (ref + result["setup_ref_s"])), result

    def import_probe(self) -> dict:
        """``-X importtime`` of the CLI module in a fresh interpreter."""
        proc = self._child(
            [sys.executable, "-X", "importtime", "-c", "import repro.experiments.cli"],
            capture_output=True,
            text=True,
        )
        modules, self_us = [], 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            own, _cumulative, name = line[len("import time:"):].split("|")
            self_us += int(own)
            modules.append(name.strip())
        return {
            "import.total_s": self_us / 1e6,
            "import.modules": len(modules),
            "import.scipy_loaded": int(any(m.split(".")[0] == "scipy" for m in modules)),
            "import.repro_md_loaded": int(
                any(m == "repro.md" or m.startswith("repro.md.") for m in modules)
            ),
        }


def end_to_end(setups: list[float], res: dict) -> tuple[dict, list[str]]:
    passes = res["passes"]
    lat = [x for p in passes for x in p["latencies_ms"]]
    cpus = [p["cpu_self_s"] + p["cpu_children_s"] for p in passes]
    tail_ms, pct, n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cell_p50_ms": (statistics.median(lat), "ms"),
        "cell_tail_ms": (tail_ms, "ms"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "wall_s": f"median of {len(passes)} passes; {res['describe']}; measured "
        + ", ".join(f"{p['raw_wall_s']:.2f} s (x{p['slowdown']:.2f})" for p in passes),
        "cell_p50_ms": f"n={n}",
        "cell_tail_ms": f"p{pct:.1f}, n={n}" + (" (the maximum: n < 20)" if pct == 100.0 else ""),
        "cpu_s": "median pass; parent %.2f s + children %.2f s"
        % (
            statistics.median(p["cpu_self_s"] for p in passes),
            statistics.median(p["cpu_children_s"] for p in passes),
        ),
        "peak_rss_mb": f"parent; largest child {res['peak_rss_child_mb']:.1f} MB",
    }
    lines = [f"  {k:<14} {v:>12.4f} {u:<3} {notes[k]}" for k, (v, u) in metrics.items()]
    if "warm_pass_ms" in res["facts"]:
        lines.append(f"  {'warm pass':<14} {res['facts']['warm_pass_ms']:>12.4f} ms  last pass")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(imports: dict, res: dict) -> tuple[dict, list[str]]:
    from perfbench.layers import PER_LAYER

    trace = res["trace"]
    values = dict(imports, **trace["metrics"])
    if set(values) != {name for name, _ in PER_LAYER}:
        raise RuntimeError("the traced run's metrics differ from PER_LAYER")
    lines = [f"  {k:<32} {values[k]:>16.6g} {u}" for k, u in PER_LAYER]
    lines.append(f"  {'span':<32} {'calls':>9} {'inclusive s':>12} {'self s':>10}")
    for name, (calls, incl, own) in sorted(
        trace["spans"].items(), key=lambda kv: -kv[1][2]
    ):
        lines.append(f"  {name:<32} {calls:>9} {incl:>12.4f} {own:>10.4f}")
    lines.append(
        f"  self times of all spans {trace['self_sum_s']:.6f} s = traced wall "
        f"{trace['metrics']['trace.wall_s']:.6f} s "
        f"(unattributed {trace['metrics']['trace.unattributed_s']:.6f} s)"
    )
    return {k: {"value": values[k], "unit": u} for k, u in PER_LAYER}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/repro", "specs", "artifacts"):
        if not (ROOT / need).is_dir():
            print(f"perfbench: {ROOT / need} is missing; run from a checkout "
                  "of the repository", file=sys.stderr)
            return 2

    h = Harness(args)
    try:
        h.measure("setup")  # warm-up: discarded
        if args.trace:
            imports = h.import_probe()
            _, _, res = h.measure("trace")
            metrics, lines = per_layer(imports, res)
        else:
            setups = [h.setup_s("setup")[0] for _ in range(SETUP_PROBES)]
            setup, res = h.setup_s("run")
            metrics, lines = end_to_end(setups + [setup], res)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(h.work, ignore_errors=True)

    pinned = "pinned" if res["pinned"] else "not pinned (checked against itself)"
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; outputs {pinned}")
    print("\n".join(lines))
    print(f"  failed_frac {res['failed_frac']:.4f}: {res['failed']} of "
          f"{res['attempted']} operations failed")
    for reason in res["reasons"][:20]:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
