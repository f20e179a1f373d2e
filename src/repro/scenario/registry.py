"""Registries: named controllers, workloads, analyses and machines.

One static table maps every name a spec or CLI flag can carry to the
code behind it, as ``"module:attr"`` strings. A lookup imports only
the module its entry names, so asking for ``"proxy"`` never loads the
DES in-situ stack, and a process that only validates specs never
loads MD or scipy. The analysis names are read from
:mod:`repro.workloads.profiles`, whose dispatch tables define them.

Each :class:`ControllerInfo` carries introspected metadata — the
keyword options the constructor actually accepts, with defaults — so
callers can validate a kwargs dict *before* construction and report
exactly which keys a controller rejects (``scenario validate`` and
:func:`repro.experiments.runner.build_controller` both use this).
"""

from __future__ import annotations

import functools
import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "ControllerInfo",
    "RegistryError",
    "controller_names",
    "get_controller",
    "get_machine",
    "get_workload",
    "list_analyses",
    "paper_approaches",
]

#: approach name → (implementing class, 1-based position in the
#: paper's evaluated ordering; 0 = an extension outside the paper's
#: four approaches: the §VIII local-optimum probe)
_CONTROLLERS = {
    "static": ("repro.core.static:StaticController", 1),
    "power-aware": ("repro.core.power_aware:PowerAwareController", 2),
    "time-aware": ("repro.core.time_aware:TimeAwareController", 3),
    "seesaw": ("repro.core.seesaw:SeeSAwController", 4),
    "seesaw-exploring": ("repro.core.exploring:ExploringSeeSAwController", 0),
}

#: workload name → entry point
_WORKLOADS = {
    "proxy": "repro.workloads.lammps_proxy:run_job",
    "insitu": "repro.insitu.coupler:run_insitu",
}

#: machine name → factory returning a fresh ``MachineSpec``
_MACHINES = {
    "theta": "repro.cluster.machine:theta",
    "xeon-cluster": "repro.cluster.machine:xeon_cluster",
}


class RegistryError(KeyError, ValueError):
    """Unknown registry name; the message lists the valid choices.

    Doubles as both ``KeyError`` (it is a failed lookup) and
    ``ValueError`` (what the pre-registry dispatch raised), so callers
    written against either idiom keep working.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep prose
        return self.args[0]


#: constructor parameters shared by every controller — positional shape
#: arguments, not per-controller options
_CORE_PARAMS = ("self", "budget_w", "n_sim", "n_ana", "node")


@dataclass(frozen=True)
class ControllerInfo:
    """One power-allocation strategy."""

    name: str
    cls: type
    #: keyword options the constructor accepts, with their defaults
    options: dict[str, Any] = field(default_factory=dict)
    #: 1-based position in the paper's evaluated approach ordering
    #: (0 = an extension outside the paper's four approaches)
    paper: int = 0

    def rejected_kwargs(self, kwargs: dict) -> list[str]:
        """Keys of ``kwargs`` this controller's constructor rejects."""
        return sorted(k for k in kwargs if k not in self.options)

    def check_kwargs(self, kwargs: dict) -> None:
        """Raise ``TypeError`` naming every rejected kwarg.

        Instead of a bare ``TypeError: __init__() got an unexpected
        keyword argument`` from deep inside the constructor, the
        caller learns *which* keys were rejected and what the
        controller does accept.
        """
        bad = self.rejected_kwargs(kwargs)
        if bad:
            accepted = ", ".join(sorted(self.options)) or "(none)"
            raise TypeError(
                f"controller {self.name!r} rejected option(s) "
                f"{', '.join(repr(k) for k in bad)}; it accepts: {accepted}"
            )


def _introspect_options(cls: type) -> dict[str, Any]:
    """Keyword options (name → default) of a controller constructor,
    excluding the shared positional shape arguments."""
    options: dict[str, Any] = {}
    for p in inspect.signature(cls.__init__).parameters.values():
        if p.name in _CORE_PARAMS or p.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            continue
        options[p.name] = p.default
    return options


def _resolve(target: str):
    module, attr = target.split(":")
    return getattr(importlib.import_module(module), attr)


def _lookup(table: dict, kind: str, name: str):
    try:
        return table[name]
    except KeyError:
        raise RegistryError(
            f"unknown {kind} {name!r}; choose from {', '.join(sorted(table))}"
        ) from None


@functools.cache
def get_controller(name: str) -> ControllerInfo:
    target, paper = _lookup(_CONTROLLERS, "approach", name)
    cls = _resolve(target)
    return ControllerInfo(
        name=name, cls=cls, options=_introspect_options(cls), paper=paper
    )


def controller_names() -> tuple[str, ...]:
    """Every approach name, the paper's four first."""
    return tuple(_CONTROLLERS)


def paper_approaches() -> tuple[str, ...]:
    """The paper's evaluated approaches, in the paper's ordering."""
    ranked = sorted((p, n) for n, (_, p) in _CONTROLLERS.items() if p)
    return tuple(n for _, n in ranked)


def get_workload(name: str) -> Callable:
    """The workload's entry point (``run_job``, ``run_insitu``, ...)."""
    return _resolve(_lookup(_WORKLOADS, "workload", name))


def get_machine(name: str) -> Callable:
    """The machine's factory; each call returns a fresh spec."""
    return _resolve(_lookup(_MACHINES, "machine", name))


def list_analyses() -> tuple[str, ...]:
    """Every runnable analysis-workload name: the base kernels, then
    the paper's composites."""
    from repro.workloads.profiles import ANALYSIS_PHASES, COMPOSITES

    return (*ANALYSIS_PHASES, *COMPOSITES)
