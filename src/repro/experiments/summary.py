"""Reproduction summary: every headline claim, checked automatically.

Runs a compact version of the whole evaluation and renders a
paper-vs-measured verdict table (the machine-checked core of
EXPERIMENTS.md). Each :class:`Claim` carries the paper's statement, a
measurement, and a pass predicate on the *shape* — the same checks the
benchmark suite enforces, gathered in one report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.report import format_table, heading
from repro.experiments.runner import improvement, run_specs
from repro.scenario import JobParams, ScenarioSpec

__all__ = ["Claim", "SummaryResult", "run_summary"]


@dataclass
class Claim:
    claim: str
    paper: str
    measured: float
    ok: bool

    def row(self) -> tuple:
        verdict = "PASS" if self.ok else "MISS"
        return (self.claim, self.paper, f"{self.measured:+.2f} %", verdict)


@dataclass
class SummaryResult:
    claims: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.claims)

    def render(self) -> str:
        rows = [c.row() for c in self.claims]
        passed = sum(c.ok for c in self.claims)
        return "\n".join(
            [
                heading("Reproduction summary: headline claims"),
                format_table(
                    ["claim", "paper", "measured", "verdict"], rows
                ),
                "",
                f"{passed}/{len(self.claims)} claims reproduce "
                "(shape, not absolute numbers)",
            ]
        )


def run_summary(
    n_runs: int = 3, n_verlet_steps: int = 200, seed: int = 1000
) -> SummaryResult:
    """Run the headline comparisons and check every claim's shape."""

    def job(analyses, dim, nodes=128, **kw) -> JobParams:
        return JobParams(
            analyses=analyses,
            dim=dim,
            n_nodes=nodes,
            n_verlet_steps=n_verlet_steps,
            seed=seed,
            **kw,
        )

    def imp(approach: str, params: JobParams) -> ScenarioSpec:
        return ScenarioSpec(
            name=f"summary/{approach}",
            approach=approach,
            job=params,
            baseline_sim_share=0.5,
            repeats=n_runs,
        )

    msd = job(("full_msd",), 16)
    vacf = job(("vacf",), 36)
    all36 = job(("all",), 36)
    all1024 = job(("all",), 48, nodes=1024)
    # Fig. 8 bookends: nothing to gain at the floor or with headroom
    floor = job(("all_msd",), 16, budget_per_node_w=98.0)
    loose = job(("all_msd",), 16, budget_per_node_w=180.0)

    # (claim, paper, paired scenario, pass predicate on its improvement)
    paired = [
        (
            "SeeSAw positive on full MSD (128)",
            "+4..30 %",
            imp("seesaw", msd),
            lambda v: v > 0,
        ),
        (
            "SeeSAw positive on VACF (128)",
            "+4..30 %",
            imp("seesaw", vacf),
            lambda v: v > 0,
        ),
        (
            "SeeSAw positive at 1024 nodes",
            "+4..30 %",
            imp("seesaw", all1024),
            lambda v: v > -0.5,
        ),
        (
            "time-aware competitive on VACF (128)",
            "up to +13 %",
            imp("time-aware", vacf),
            lambda v: v > 3,
        ),
        (
            "time-aware loses on full MSD (128)",
            "negative (Fig. 4b lock)",
            imp("time-aware", msd),
            lambda v: v < 0,
        ),
        (
            "time-aware degrades at 1024 nodes",
            "down to -60 %",
            imp("time-aware", all1024),
            lambda v: v < -3,
        ),
        (
            "power-aware loses on full MSD",
            "negative, all cases",
            imp("power-aware", msd),
            lambda v: v < 0,
        ),
        (
            "power-aware loses on VACF",
            "negative, all cases",
            imp("power-aware", vacf),
            lambda v: v < 0,
        ),
        (
            "power-aware loses on the mix",
            "negative, all cases",
            imp("power-aware", all36),
            lambda v: v < 0,
        ),
        (
            "no gain at the 98 W floor",
            "0 % (Fig. 8)",
            imp("seesaw", floor),
            lambda v: abs(v) < 1.0,
        ),
        (
            "no gain with 180 W headroom",
            "~0 % (Fig. 8)",
            imp("seesaw", loose),
            lambda v: abs(v) < 2.0,
        ),
    ]
    # Fig. 4a allocation direction: one plain SeeSAw run on full MSD,
    # the same cell as the first managed run of imp("seesaw", msd)
    plain = ScenarioSpec(name="summary/seesaw", approach="seesaw", job=msd)
    *results, (direction, *_) = run_specs(
        [spec for _, _, spec, _ in paired] + [plain]
    )

    result = SummaryResult()
    for (claim, paper, spec, predicate), res in zip(paired, results):
        measured = improvement(spec, res)
        result.claims.append(
            Claim(claim, paper, measured, bool(predicate(measured)))
        )
    last = direction.syncs[-1]
    gap = float(last["ana_cap_mean_w"] - last["sim_cap_mean_w"])
    result.claims.append(
        Claim("SeeSAw gives analysis more power on MSD", "Fig. 4a", gap, gap > 0)
    )
    return result
