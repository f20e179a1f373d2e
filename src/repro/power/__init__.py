"""Power substrate: phase power model, RAPL emulation, traces."""

from repro.power.execution import (
    PhaseOutcome,
    PhaseProgram,
    execute_phase,
    execute_program,
)
from repro.power.model import OperatingPoint, PhaseKind, operating_point
from repro.power.rapl import CapMode, RaplDomainArray
from repro.power.trace import PowerTrace, sample_trace

__all__ = [
    "CapMode",
    "OperatingPoint",
    "PhaseKind",
    "PhaseOutcome",
    "PhaseProgram",
    "PowerTrace",
    "RaplDomainArray",
    "execute_phase",
    "execute_program",
    "operating_point",
    "sample_trace",
]
