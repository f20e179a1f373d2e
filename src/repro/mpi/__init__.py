"""Simulated MPI runtime on the discrete-event engine.

Provides communicators with mpi4py-style semantics (split, collectives,
tagged point-to-point) plus pluggable communication cost models.
"""

from repro.mpi.comm import (
    ANY_SOURCE,
    ANY_TAG,
    Communicator,
    MpiWorld,
    payload_nbytes,
)
from repro.mpi.costs import CommCostModel, LogPCost, ZeroCost

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "CommCostModel",
    "Communicator",
    "LogPCost",
    "MpiWorld",
    "ZeroCost",
    "payload_nbytes",
]
