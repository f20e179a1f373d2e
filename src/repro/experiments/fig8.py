"""Figure 8: diminishing returns with more power headroom.

Paper setup (§VII-D): LAMMPS with all analyses including full MSD on
128 nodes, dim=16, w=1, j=1; sweep the per-node cap and report SeeSAw's
median improvement over the static baseline at each cap. Expected
shape: highest gains in the 110–120 W band, fading to nothing beyond
~140 W (LAMMPS cannot utilize more power), and nothing at the 98 W
hardware floor (no headroom to move).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.report import format_table, heading
from repro.experiments.runner import improvement, run_specs
from repro.scenario import ScenarioMatrix, load_suite

__all__ = ["Fig8Result", "run_fig8"]

DEFAULT_CAPS = (98.0, 105.0, 110.0, 115.0, 120.0, 130.0, 140.0, 160.0, 180.0, 215.0)


@dataclass
class Fig8Result:
    #: {cap watts: median % improvement}
    improvements: dict = field(default_factory=dict)

    @property
    def best_cap(self) -> float:
        return max(self.improvements, key=self.improvements.get)

    def render(self) -> str:
        rows = [(f"{cap:.0f} W", imp) for cap, imp in self.improvements.items()]
        return "\n".join(
            [
                heading(
                    "Figure 8: SeeSAw improvement vs per-node power cap, "
                    "128 nodes, all analyses + full MSD, dim=16, w=1, j=1"
                ),
                format_table(
                    ["cap per node", "SeeSAw improvement %"],
                    rows,
                    float_fmt="{:+.2f}",
                ),
                "",
                f"best cap: {self.best_cap:.0f} W "
                "(paper: highest improvements at 110-120 W)",
            ]
        )


def run_fig8(
    caps: tuple[float, ...] = DEFAULT_CAPS,
    n_runs: int = 3,
    n_verlet_steps: int = 400,
    seed: int = 88,
) -> Fig8Result:
    """Regenerate the cap sweep (the specs/fig8.json matrix)."""
    base = replace(
        load_suite("fig8").matrix.base, repeats=n_runs
    ).with_job(n_verlet_steps=n_verlet_steps, seed=seed)
    matrix = ScenarioMatrix(
        base=base, axes={"job.budget_per_node_w": list(caps)}
    )
    specs = matrix.expand()
    result = Fig8Result()
    for spec, results in zip(specs, run_specs(specs)):
        result.improvements[spec.job.budget_per_node_w] = improvement(
            spec, results
        )
    return result
