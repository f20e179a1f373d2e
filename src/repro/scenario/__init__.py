"""Declarative scenario layer: one typed spec from CLI to cell hash.

A scenario — workload + controller + machine + faults + seeds +
repeats — has one first-class representation, :class:`ScenarioSpec`:
JSON round-trippable, schema-validated with actionable errors, and
hash-stable. Sweeps are :class:`ScenarioMatrix` expansions; named
implementations (controllers, workloads, analyses, machines) resolve
through one static name table (:mod:`repro.scenario.registry`) that
imports a module only when one of its names is looked up; shipped
suites under ``specs/`` drive every figure/table module and the CLI's
``run --spec`` / ``scenario`` subcommands. See DESIGN §16.

Every submodule imports only the stdlib at module level, so importing
this package loads no simulation code.
"""

from repro.scenario.loader import (
    SpecSuite,
    load_spec_file,
    load_suite,
    spec_path,
    specs_dir,
    suite_hash,
)
from repro.scenario.matrix import ScenarioMatrix, set_field
from repro.scenario.registry import (
    ControllerInfo,
    RegistryError,
    controller_names,
    get_controller,
    get_machine,
    get_workload,
    list_analyses,
    paper_approaches,
)
from repro.scenario.spec import (
    JobParams,
    ScenarioSpec,
    SpecError,
    spec_hash,
    validate_spec,
)

__all__ = [
    "ControllerInfo",
    "JobParams",
    "RegistryError",
    "ScenarioMatrix",
    "ScenarioSpec",
    "SpecError",
    "SpecSuite",
    "controller_names",
    "get_controller",
    "get_machine",
    "get_workload",
    "list_analyses",
    "load_spec_file",
    "load_suite",
    "paper_approaches",
    "set_field",
    "spec_hash",
    "spec_path",
    "specs_dir",
    "suite_hash",
    "validate_spec",
]
