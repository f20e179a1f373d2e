"""The proxy profiles' proportionalities, checked against the real engines.

The profiles in :mod:`repro.workloads.profiles` are anchored to the
paper's reported numbers (step times, speed ratios). These tests run a
small system through the *real* engines in :mod:`repro.md` and
:mod:`repro.analysis`, collect operation counts, and verify what the
profiles assume:

* simulation work scales linearly with atoms per node (pair counts per
  atom are density-controlled, so total pairs ∝ atoms);
* the analyses' relative operation counts order the same way the
  profiles order their work (RDF's cross-pair search is the heaviest
  light analysis; VACF/MSD1D are the cheapest);
* full MSD's operation count exceeds each of its components.
"""

from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.analysis import frame_from_system, make_analysis
from repro.md import VelocityVerlet, water_ion_box


@dataclass
class CalibrationReport:
    """Measured operation counts from the real engines."""

    n_atoms: int
    #: mean neighbor pairs per Verlet step
    pairs_per_step: float
    #: pairs per atom — the density-controlled constant that justifies
    #: linear atom scaling in the proxy
    pairs_per_atom: float
    #: neighbor rebuild frequency over the probe run
    rebuild_fraction: float
    #: per-analysis work estimates on one frame
    analysis_ops: dict = field(default_factory=dict)

    def render(self) -> str:
        lines = [
            f"system: {self.n_atoms} atoms",
            f"pairs/step: {self.pairs_per_step:.0f} "
            f"({self.pairs_per_atom:.1f} per atom)",
            f"neighbor rebuilds: {self.rebuild_fraction * 100:.0f}% of steps",
            "analysis ops per frame:",
        ]
        for name, ops in sorted(
            self.analysis_ops.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {name:10s} {ops:>10d}")
        return "\n".join(lines)


def calibrate(
    dim: int = 1, n_steps: int = 10, seed: int = 2020
) -> CalibrationReport:
    """Probe the real engines and report their operation counts."""
    system = water_ion_box(dim=dim, seed=seed)
    integrator = VelocityVerlet(system, dt=0.0005, thermostat_t=1.0)
    reports = integrator.run(n_steps)

    pairs = np.array([r.pair_count for r in reports], dtype=float)
    rebuilds = np.array([r.rebuilt_neighbors for r in reports])

    frame = frame_from_system(system, step=n_steps, time=n_steps * 0.0005)
    analysis_ops: dict[str, int] = {}
    for name in ("rdf", "vacf", "msd", "msd1d", "msd2d", "full_msd"):
        analysis = make_analysis(name)
        analysis.update(frame)
        analysis_ops[name] = analysis.work_estimate

    return CalibrationReport(
        n_atoms=system.n_atoms,
        pairs_per_step=float(pairs.mean()),
        pairs_per_atom=float(pairs.mean()) / system.n_atoms,
        rebuild_fraction=float(rebuilds.mean()),
        analysis_ops=analysis_ops,
    )


@pytest.fixture(scope="module")
def report():
    return calibrate(dim=1, n_steps=8)


def test_atom_count(report):
    assert report.n_atoms == 1568


def test_pair_density_is_liquid_like(report):
    # ~30-40 neighbors per atom within cutoff+skin at this density
    assert 20.0 < report.pairs_per_atom < 60.0


def test_rebuilds_happen_but_not_every_step(report):
    assert 0.0 <= report.rebuild_fraction < 1.0


def test_rdf_is_heaviest_light_analysis(report):
    ops = report.analysis_ops
    # RDF's cross-set pair search dominates the per-molecule analyses —
    # matching its "compute bound" profile in the paper.
    assert ops["rdf"] > ops["vacf"]
    assert ops["rdf"] > ops["msd1d"]


def test_full_msd_exceeds_components(report):
    ops = report.analysis_ops
    assert ops["full_msd"] > ops["msd1d"]
    assert ops["full_msd"] > ops["msd2d"]
    assert ops["full_msd"] > ops["msd"]


def test_render_mentions_everything(report):
    text = report.render()
    assert "pairs/step" in text
    for name in ("rdf", "vacf", "full_msd"):
        assert name in text
