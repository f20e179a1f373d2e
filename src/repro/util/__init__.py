"""Shared utilities: RNG streams, statistics, units, configuration.

These helpers are deliberately dependency-light: everything in
:mod:`repro` builds on them, so they must import quickly and carry no
state of their own beyond what the caller passes in.
"""

from repro.util.rng import RngStream, spawn_streams
from repro.util.scatter import scatter_add, scatter_add_pairs
from repro.util.stats import (
    RunningMean,
    ewma,
    median,
    summarize,
    variability_pct,
)
from repro.util.units import MS

__all__ = [
    "MS",
    "RngStream",
    "RunningMean",
    "ewma",
    "median",
    "scatter_add",
    "scatter_add_pairs",
    "spawn_streams",
    "summarize",
    "variability_pct",
]
