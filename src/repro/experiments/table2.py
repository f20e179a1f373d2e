"""Table II: SeeSAw with analyses running at mixed intervals.

Paper setup (§VII-C2): LAMMPS with RDF, full MSD and VACF on 128 nodes
(dim=16, w=1); one experiment varies full MSD's invocation interval
j ∈ {4, 20, 100} while RDF and VACF run every step, the other varies
VACF's interval while full MSD and RDF run every step. Power is
allocated at every synchronization.

Expected shape: varying the high-demand full MSD makes w=1 SeeSAw too
reactive to the now-anomalous MSD steps — improvement collapses as the
interval grows (5.03 → 0.94 → 0.90 % in the paper); varying the
low-demand VACF barely matters (16.76 / 15.09 / 16.24 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.experiments.report import format_table, heading
from repro.experiments.runner import improvement, run_specs
from repro.scenario import load_suite

__all__ = ["Table2Result", "run_table2"]

WORKLOAD = ("rdf", "full_msd", "vacf")


@dataclass
class Table2Result:
    j_values: tuple
    msd_rows: dict = field(default_factory=dict)  # {j: improvement %}
    vacf_rows: dict = field(default_factory=dict)
    #: MSD-varied with the paper's recommended fix (w >= 2)
    msd_rows_w2: dict = field(default_factory=dict)

    def spread(self, rows: dict) -> float:
        vals = list(rows.values())
        return max(vals) - min(vals)

    def render(self) -> str:
        rows = [
            ["MSD varied, w=1"] + [self.msd_rows[j] for j in self.j_values],
            ["MSD varied, w=2"]
            + [self.msd_rows_w2[j] for j in self.j_values],
            ["VACF varied, w=1"]
            + [self.vacf_rows[j] for j in self.j_values],
        ]
        return "\n".join(
            [
                heading(
                    "Table II: SeeSAw % improvement with mixed analysis "
                    "intervals, 128 nodes, dim=16 (median of 3)"
                ),
                format_table(
                    ["varied analysis", *[f"j={j}" for j in self.j_values]],
                    rows,
                    float_fmt="{:+.2f}",
                ),
            ]
        )


def run_table2(
    j_values: tuple[int, ...] = (4, 20, 100),
    n_runs: int = 3,
    n_verlet_steps: int = 400,
    seed: int = 77,
) -> Table2Result:
    """Regenerate Table II (specs/table2.json), plus the paper's
    recommended w=2 fix for the high-demand infrequent case (§VII-C2's
    closing sentence)."""
    template = load_suite("table2").specs[0]
    result = Table2Result(j_values=j_values)
    cases = (
        ("full_msd", 1, result.msd_rows),
        ("full_msd", 2, result.msd_rows_w2),
        ("vacf", 1, result.vacf_rows),
    )
    specs = [
        replace(
            template.with_job(
                n_verlet_steps=n_verlet_steps,
                seed=seed,
                analysis_intervals={varied: j},
            ),
            repeats=n_runs,
            controller={"window": window},
            extras={"varied": varied},
        )
        for varied, window, _ in cases
        for j in j_values
    ]
    results = iter(zip(specs, run_specs(specs)))
    for _, _, rows in cases:
        for j in j_values:
            rows[j] = improvement(*next(results))
    return result
