"""Miniature molecular-dynamics engine (the LAMMPS stand-in).

A real velocity-Verlet MD code — periodic box, cell-list neighbor
finding, LJ + screened-Coulomb + bonded forces, thermo output, spatial
domain decomposition — sized so the paper's 1568-atom base cell
(replicated ``dim**3`` times) runs on a laptop. The in-situ coupler
(:mod:`repro.insitu`) drives it through the Verlet-Splitanalysis
workflow; the calibration tests (``tests/workloads/test_calibration.py``)
check the proxy profiles against its operation counts.
"""

from repro.md.box import Box
from repro.md.dump import read_lammps_dump, write_lammps_dump
from repro.md.domain import DomainDecomposition, Snapshot, grid_for_ranks
from repro.md.forces import ForceField, ForceResult
from repro.md.neighbor import NeighborList, build_neighbor_list
from repro.md.system import (
    ATOMS_PER_CELL,
    ParticleSystem,
    Species,
    water_ion_box,
)
from repro.md.thermo import ThermoLog, ThermoRecord, compute_thermo
from repro.md.verlet import StepReport, VelocityVerlet

__all__ = [
    "ATOMS_PER_CELL",
    "Box",
    "DomainDecomposition",
    "ForceField",
    "ForceResult",
    "NeighborList",
    "ParticleSystem",
    "Snapshot",
    "Species",
    "StepReport",
    "ThermoLog",
    "ThermoRecord",
    "VelocityVerlet",
    "build_neighbor_list",
    "read_lammps_dump",
    "write_lammps_dump",
    "compute_thermo",
    "grid_for_ranks",
    "water_ion_box",
]
