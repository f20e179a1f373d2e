"""Figure 6: sensitivity to SeeSAw's window w and LAMMPS' sync rate j.

Paper setup: 1024 nodes, dim=48, mix of analyses, 400 Verlet steps.
Expected shape (§VII-C1): allocating power frequently beats infrequent
reallocation (large w misses slack-optimization opportunities); at
j=1 a small window 1 < w < 10 mitigates over-reaction to anomalies;
when synchronizations are rare (large j) allocating at every
opportunity (w=1) is best.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.report import format_table, heading
from repro.experiments.runner import improvement, run_specs
from repro.scenario import ScenarioMatrix, load_suite

__all__ = ["Fig6Result", "run_fig6"]


@dataclass
class Fig6Result:
    #: {(j, w): median % improvement over static}
    grid: dict = field(default_factory=dict)
    j_values: tuple = ()
    w_values: tuple = ()

    def improvement(self, j: int, w: int) -> float:
        return self.grid[(j, w)]

    def render(self) -> str:
        rows = []
        for j in self.j_values:
            row = [f"j={j}"]
            for w in self.w_values:
                row.append(self.grid.get((j, w), "-"))
            rows.append(row)
        return "\n".join(
            [
                heading(
                    "Figure 6: SeeSAw w x LAMMPS sync rate j, 1024 nodes, "
                    "dim=48, mix of analyses (% improvement over static)"
                ),
                format_table(
                    ["", *[f"w={w}" for w in self.w_values]],
                    rows,
                    float_fmt="{:+.2f}",
                ),
            ]
        )


def run_fig6(
    j_values: tuple[int, ...] = (1, 10, 40),
    w_values: tuple[int, ...] = (1, 2, 5, 10, 20),
    n_runs: int = 3,
    n_verlet_steps: int = 400,
    seed: int = 60,
) -> Fig6Result:
    """Regenerate the w x j sensitivity grid (specs/fig6.json).

    The shipped file declares the sweep as a :class:`ScenarioMatrix`;
    non-default arguments rebuild the matrix from its base spec.
    """
    base = replace(
        load_suite("fig6").matrix.base, repeats=n_runs
    ).with_job(n_verlet_steps=n_verlet_steps, seed=seed)
    matrix = ScenarioMatrix(
        base=base,
        axes={
            "job.j": list(j_values),
            "controller.window": list(w_values),
        },
    )
    # a window longer than half the run makes no allocations: skip it
    specs = [
        spec
        for spec in matrix.expand()
        if spec.controller["window"]
        <= max(n_verlet_steps // spec.job.j // 2, 1)
    ]
    result = Fig6Result(grid={}, j_values=j_values, w_values=w_values)
    for spec, results in zip(specs, run_specs(specs)):
        result.grid[(spec.job.j, spec.controller["window"])] = improvement(
            spec, results
        )
    return result
