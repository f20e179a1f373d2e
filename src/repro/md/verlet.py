"""Velocity-Verlet timestepping (the paper's §V driver).

Implements the standard velocity-Verlet split used by LAMMPS::

    v(t+dt/2) = v(t) + (dt/2) F(t)/m        # initial integration
    x(t+dt)   = x(t) + dt v(t+dt/2)
    ... neighbor rebuild if needed ...
    F(t+dt)   = force(x(t+dt))              # force computation
    v(t+dt)   = v(t+dt/2) + (dt/2) F(t+dt)/m  # final integration

with an optional Berendsen velocity-rescaling thermostat. Step
structure mirrors §V's flow: initial integration (1), data-structure
rebuild / neighbor update (3, 5), force + final integration (6). Steps
2, 4, 7 and 8 (exchange with the analysis partition, verification,
analysis invocation, thermo output) belong to the in-situ coupler in
:mod:`repro.insitu`.

:class:`StepReport` exposes per-step operation counts (pair count,
rebuild flag) — the calibration bridge between the *real* engine and
the DES workload profiles reads these.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.md.forces import ForceField, ForceResult
from repro.md.neighbor import NeighborList, build_neighbor_list
from repro.md.system import ParticleSystem

__all__ = ["StepReport", "VelocityVerlet"]


@dataclass(frozen=True)
class StepReport:
    """What happened during one Verlet step."""

    step: int
    potential_energy: float
    kinetic_energy: float
    temperature: float
    pair_count: int
    rebuilt_neighbors: bool

    @property
    def total_energy(self) -> float:
        return self.potential_energy + self.kinetic_energy


class VelocityVerlet:
    """Integrator owning the neighbor list and the force field."""

    def __init__(
        self,
        system: ParticleSystem,
        force_field: ForceField | None = None,
        dt: float = 0.002,
        skin: float = 0.3,
        thermostat_t: float | None = None,
        thermostat_tau: float = 0.5,
    ) -> None:
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.system = system
        self.ff = force_field if force_field is not None else ForceField()
        self.dt = dt
        self.skin = skin
        self.thermostat_t = thermostat_t
        self.thermostat_tau = thermostat_tau
        self.step_count = 0
        self.rebuild_count = 0
        self._nlist = build_neighbor_list(
            system.positions, system.box, self.ff.cutoff, skin
        )
        self._forces: ForceResult = self.ff.compute(system, self._nlist)

    # ------------------------------------------------------------------
    @property
    def neighbor_list(self) -> NeighborList:
        return self._nlist

    @property
    def forces(self) -> ForceResult:
        return self._forces

    def _maybe_rebuild(self) -> bool:
        sys_ = self.system
        if self._nlist.needs_rebuild(sys_.positions, sys_.box):
            self._nlist = None  # free the old list and its pair table first
            self._nlist = build_neighbor_list(
                sys_.positions, sys_.box, self.ff.cutoff, self.skin
            )
            self.rebuild_count += 1
            return True
        return False

    def _apply_thermostat(self) -> None:
        if self.thermostat_t is None:
            return
        current = self.system.temperature()
        if current <= 0:
            return
        lam = np.sqrt(
            1.0
            + (self.dt / self.thermostat_tau)
            * (self.thermostat_t / current - 1.0)
        )
        self.system.velocities *= lam

    def step(self) -> StepReport:
        """Advance one Verlet step and report what happened."""
        sys_ = self.system
        inv_m = 1.0 / sys_.masses[:, None]

        # (1) initial integration: half-kick + drift
        sys_.velocities += 0.5 * self.dt * self._forces.forces * inv_m
        new_pos = sys_.positions + self.dt * sys_.velocities
        # track periodic crossings for unwrapped trajectories
        crossings = np.floor(new_pos / sys_.box.lengths).astype(np.int64)
        sys_.images += crossings
        sys_.positions = sys_.box.wrap(new_pos)

        # (3, 5) rebuild data structures / neighbor lists when needed
        rebuilt = self._maybe_rebuild()

        # (6) force computation + final integration
        self._forces = self.ff.compute(sys_, self._nlist)
        sys_.velocities += 0.5 * self.dt * self._forces.forces * inv_m
        self._apply_thermostat()

        self.step_count += 1
        return StepReport(
            step=self.step_count,
            potential_energy=self._forces.potential_energy,
            kinetic_energy=sys_.kinetic_energy(),
            temperature=sys_.temperature(),
            pair_count=self._forces.pair_count,
            rebuilt_neighbors=rebuilt,
        )

    def run(self, n_steps: int) -> list[StepReport]:
        """Run ``n_steps`` and return the per-step reports."""
        return [self.step() for _ in range(n_steps)]
