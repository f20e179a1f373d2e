"""Figure 7: SeeSAw from unbalanced initial power distributions.

Paper setup (§VII-C3): 128 nodes, all analyses, dim=36, w=2, j=1; three
jobs whose *static baseline* keeps the initial split for the whole run:
simulation-heavy (120/100 W), analysis-heavy (100/120 W) and equal
(110/110 W). The paper's medians of 3: 28.26 %, 19.21 % and 8.94 %
improvement — SeeSAw recovers from any starting distribution, and the
analysis-heavy baseline wastes the analysis's extra power because it
waits on the throttled simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.report import format_table, heading
from repro.experiments.runner import improvement, run_specs
from repro.scenario import load_suite

__all__ = ["Fig7Result", "run_fig7"]

#: (label, sim watts, ana watts) out of the 220 W per node pair
STARTS = (
    ("sim-heavy (S 120 / A 100)", 120.0, 100.0),
    ("ana-heavy (S 100 / A 120)", 100.0, 120.0),
    ("equal (S 110 / A 110)", 110.0, 110.0),
)


@dataclass
class Fig7Result:
    #: {label: median % improvement over the matching static split}
    improvements: dict = field(default_factory=dict)

    def render(self) -> str:
        rows = [(label, imp) for label, imp in self.improvements.items()]
        return "\n".join(
            [
                heading(
                    "Figure 7: unbalanced initial power, 128 nodes, all "
                    "analyses, dim=36, w=2, j=1 (median of 3)"
                ),
                format_table(
                    ["initial distribution", "SeeSAw improvement %"],
                    rows,
                    float_fmt="{:+.2f}",
                ),
            ]
        )


def run_fig7(
    n_runs: int = 3,
    n_verlet_steps: int = 400,
    window: int = 2,
    seed: int = 7,
) -> Fig7Result:
    """Regenerate Figure 7's improvement numbers (specs/fig7.json).

    The unbalanced starting shares (and the matching static baseline
    shares) are declared in the shipped scenarios.
    """
    specs = [
        replace(spec, repeats=n_runs)
        .with_job(n_verlet_steps=n_verlet_steps, seed=seed)
        .with_controller(window=window)
        for spec in load_suite("fig7")
    ]
    result = Fig7Result()
    for spec, results in zip(specs, run_specs(specs)):
        result.improvements[spec.extras["label"]] = improvement(spec, results)
    return result
