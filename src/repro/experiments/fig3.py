"""Figure 3: performance of SeeSAw / time-aware / power-aware vs the
static baseline across analyses (3a) and scales (3b).

Paper setup (§VII-B): w=1, j=1; each bar is the median of 3 runs of the
percentage runtime difference against the paired baseline. Figure 3a
runs each analysis on 128 nodes (full MSD and its subcomponents at the
memory-bound dim=16; RDF/VACF/all at larger problem sizes); Figure 3b
scales full MSD, the *all* mix and VACF to 256–1024 nodes.

Headline shapes to reproduce: power-aware negative everywhere (down to
~-25 %); time-aware positive on low-demand analyses at 128 nodes (up to
~+13 %) but negative on full MSD and at scale (down to ~-60 %); SeeSAw
positive everywhere (~+4-30 %).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace

from repro.experiments.report import format_table, heading
from repro.experiments.runner import improvement, run_specs
from repro.scenario import JobParams, ScenarioSpec, load_suite

__all__ = [
    "Fig3Result",
    "FIG3A_CASES",
    "FIG3B_CASES",
    "case_specs",
    "run_fig3a",
    "run_fig3b",
]

#: (label, analyses, dim) on 128 nodes — Figure 3a
FIG3A_CASES = (
    ("full MSD (dim 16)", ("full_msd",), 16),
    ("MSD1D (dim 16)", ("msd1d",), 16),
    ("MSD2D (dim 16)", ("msd2d",), 16),
    ("RDF (dim 36)", ("rdf",), 36),
    ("VACF (dim 36)", ("vacf",), 36),
    ("all (dim 36)", ("all",), 36),
    ("all (dim 48)", ("all",), 48),
)

#: (label, analyses, dim, nodes) — Figure 3b
FIG3B_CASES = (
    ("full MSD (dim 16)", ("full_msd",), 16, 256),
    ("full MSD (dim 16)", ("full_msd",), 16, 512),
    ("full MSD (dim 16)", ("full_msd",), 16, 1024),
    ("all (dim 48)", ("all",), 48, 256),
    ("all (dim 48)", ("all",), 48, 512),
    ("all (dim 48)", ("all",), 48, 1024),
    ("VACF (dim 48)", ("vacf",), 48, 256),
    ("VACF (dim 48)", ("vacf",), 48, 512),
    ("VACF (dim 48)", ("vacf",), 48, 1024),
)

MANAGED = ("seesaw", "time-aware", "power-aware")


@dataclass
class Fig3Result:
    title: str
    #: rows of (label, nodes, {approach: improvement %})
    rows: list = field(default_factory=list)

    def improvement(self, label: str, nodes: int, approach: str) -> float:
        for row_label, row_nodes, imps in self.rows:
            if row_label == label and row_nodes == nodes:
                return imps[approach]
        raise KeyError((label, nodes, approach))

    def render(self) -> str:
        table_rows = [
            (label, nodes, imps["seesaw"], imps["time-aware"], imps["power-aware"])
            for label, nodes, imps in self.rows
        ]
        return "\n".join(
            [
                heading(self.title),
                format_table(
                    [
                        "workload",
                        "nodes",
                        "SeeSAw %",
                        "time-aware %",
                        "power-aware %",
                    ],
                    table_rows,
                    float_fmt="{:+.2f}",
                ),
            ]
        )


def case_specs(suite: str, cases) -> list[ScenarioSpec]:
    """The paired scenarios a case table expands to (one per managed
    approach, in :data:`MANAGED` order) — what ``specs/fig3*.json``
    ships and what :func:`_collect` executes."""
    out = []
    for case in cases:
        if len(case) == 3:
            label, analyses, dim = case
            nodes = 128
        else:
            label, analyses, dim, nodes = case
        # stable per-case seed (Python's str hash is salted per process)
        offset = zlib.crc32(f"{label}/{nodes}".encode()) % 1000
        slug = f"{analyses[0]}-dim{dim}-n{nodes}"
        for approach in MANAGED:
            out.append(
                ScenarioSpec(
                    name=f"{suite}/{slug}/{approach}",
                    approach=approach,
                    baseline_sim_share=0.5,
                    repeats=3,
                    job=JobParams(
                        analyses=tuple(analyses),
                        dim=dim,
                        n_nodes=nodes,
                        n_verlet_steps=400,
                        seed=300 + offset,
                    ),
                    extras={"label": label, "seed_offset": offset},
                )
            )
    return out


def _collect(
    specs, title: str, n_runs: int, n_verlet_steps: int, base_seed: int
) -> Fig3Result:
    specs = [
        replace(spec, repeats=n_runs).with_job(
            n_verlet_steps=n_verlet_steps,
            seed=base_seed + spec.extras["seed_offset"],
        )
        for spec in specs
    ]
    pairs = list(zip(specs, run_specs(specs)))
    result = Fig3Result(title=title)
    for i in range(0, len(pairs), len(MANAGED)):
        group = pairs[i : i + len(MANAGED)]
        first = group[0][0]
        imps = {s.approach: improvement(s, r) for s, r in group}
        result.rows.append((first.extras["label"], first.job.n_nodes, imps))
    return result


def run_fig3a(
    n_runs: int = 3, n_verlet_steps: int = 400, base_seed: int = 300
) -> Fig3Result:
    """Figure 3a: different analyses on 128 nodes (specs/fig3a.json)."""
    return _collect(
        load_suite("fig3a").specs,
        "Figure 3a: % improvement over static baseline, 128 nodes (w=1, j=1)",
        n_runs,
        n_verlet_steps,
        base_seed,
    )


def run_fig3b(
    n_runs: int = 3, n_verlet_steps: int = 400, base_seed: int = 300
) -> Fig3Result:
    """Figure 3b: workloads at 256-1024 nodes (specs/fig3b.json)."""
    return _collect(
        load_suite("fig3b").specs,
        "Figure 3b: % improvement over static baseline at scale (w=1, j=1)",
        n_runs,
        n_verlet_steps,
        base_seed,
    )
