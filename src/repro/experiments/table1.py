"""Table I: run-to-run and job-to-job variability of LAMMPS runs.

Paper setup: 7 LAMMPS runs on 128 nodes, problem sizes dim ∈ {36, 48},
under three cap regimes — no cap, long-term 110 W, long+short 110 W —
reporting the spread of total runtimes. The paper's reading:
variability is exacerbated by power caps, and capping both RAPL windows
(which under-enforces the requested power) is the noisiest.

Run-to-run repeats the same job (same allocation: same job-wide and
per-node speed factors) with fresh transient noise; job-to-job redraws
everything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.report import format_table, heading
from repro.experiments.runner import run_specs
from repro.power.rapl import CapMode
from repro.scenario import load_suite
from repro.util.stats import variability_pct

__all__ = ["Table1Result", "run_table1"]

CAP_LABEL = {
    CapMode.NONE: "None",
    CapMode.LONG: "Long (110 W)",
    CapMode.LONG_SHORT: "Long and Short (110 W each)",
}


@dataclass
class Table1Result:
    #: rows of (cap label, dim, variability type, variability %)
    rows: list = field(default_factory=list)

    def variability(self, cap: CapMode, dim: int, kind: str) -> float:
        for cap_label, d, k, v in self.rows:
            if cap_label == CAP_LABEL[cap] and d == dim and k == kind:
                return v
        raise KeyError((cap, dim, kind))

    def render(self) -> str:
        return "\n".join(
            [
                heading(
                    "Table I: variability across 7 runs, LAMMPS on 128 nodes"
                ),
                format_table(
                    ["Power Cap", "dim", "Variability Type", "Variability %"],
                    self.rows,
                ),
            ]
        )


def run_table1(
    n_runs: int = 7,
    dims: tuple[int, ...] = (36, 48),
    n_verlet_steps: int = 400,
    base_seed: int = 100,
) -> Table1Result:
    """Regenerate Table I (specs/table1.json).

    The shipped suite declares one run-to-run scenario per cap/dim
    cell (``repeats=7`` → run indices 0..6 of one seed) and seven
    job-to-job scenarios (fresh seeds). Non-default arguments derive
    the same shapes from the suite's first scenario as a template.
    """
    template = load_suite("table1").specs[0]

    def spec(mode: CapMode, dim: int, seed: int, repeats: int):
        return replace(
            template.with_job(
                dim=dim,
                cap_mode=mode.value,
                n_verlet_steps=n_verlet_steps,
                seed=seed,
            ),
            repeats=repeats,
        )

    modes = (CapMode.NONE, CapMode.LONG, CapMode.LONG_SHORT)
    cases = [(mode, dim) for mode in modes for dim in dims]
    # per cap/dim case: the run-to-run spec, then n_runs job-to-job ones
    specs = []
    for mode, dim in cases:
        specs.append(spec(mode, dim, base_seed, n_runs))
        specs.extend(
            spec(mode, dim, base_seed + 1 + i, 1) for i in range(n_runs)
        )
    results = iter(run_specs(specs))
    result = Table1Result()
    for mode, dim in cases:
        run_to_run = [r.total_time_s for r in next(results)]
        job_to_job = [next(results)[0].total_time_s for _ in range(n_runs)]
        result.rows += [
            (CAP_LABEL[mode], dim, "run-to-run", variability_pct(run_to_run)),
            (CAP_LABEL[mode], dim, "job-to-job", variability_pct(job_to_job)),
        ]
    return result
