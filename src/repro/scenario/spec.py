"""The typed scenario spec: one declarative description of a run.

A :class:`ScenarioSpec` names everything the paper's measurement
protocol varies — workload parameters (the :class:`~repro.workloads
.JobConfig` fields), the approach and its controller options, the
machine envelope, an optional fault plan, seeds and repeat counts —
in a JSON-serializable, hash-stable form. Every figure/table module
ships its runs as spec files under ``specs/``; the CLI runs arbitrary
spec files with ``run --spec``; campaigns derive their
:class:`~repro.campaign.cells.CellSpec` cache keys from specs.

Three properties are load-bearing:

* **round-trip stability** — ``from_json(to_json(s)) == s`` and the
  serialized form is byte-stable (field order fixed, all fields
  explicit), so specs diff cleanly and hash drift is detectable;
* **hash compatibility** — :func:`to_cells` derives exactly the
  ``CellSpec`` objects the pre-scenario harnesses built, so campaign
  cache keys survive the refactor (pinned by
  ``tests/scenario/test_hash_compat.py``);
* **actionable validation** — :func:`validate_spec` reports every
  problem with its field path and the valid choices, including which
  controller options the chosen approach rejects.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.scenario import registry

__all__ = [
    "JobParams",
    "ScenarioSpec",
    "SpecError",
    "spec_hash",
    "validate_spec",
]


class SpecError(ValueError):
    """A spec document failed to parse or validate; message says where."""


@dataclass(frozen=True)
class JobParams:
    """The workload half of a scenario: ``JobConfig`` by value.

    Mirrors :class:`repro.workloads.JobConfig` field-for-field with two
    JSON-friendly substitutions: ``cap_mode`` is the enum's string
    value and ``machine`` is a registry name (``theta`` /
    ``xeon-cluster``) resolved to a fresh ``MachineSpec`` at build
    time. Noise stays at the machine's defaults — custom noise models
    are a Python-API concern, not a scenario knob.
    """

    analyses: tuple[str, ...] = ("full_msd",)
    dim: int = 16
    n_nodes: int = 128
    j: int = 1
    n_verlet_steps: int = 400
    budget_per_node_w: float = 110.0
    cap_mode: str = "long"
    seed: int = 0
    #: per-analysis invocation interval in synchronizations (Table II)
    analysis_intervals: dict = field(default_factory=dict)
    machine: str = "theta"
    collect_traces: bool = False

    def to_job_config(self):
        """Build the concrete :class:`~repro.workloads.JobConfig`."""
        from repro.power.rapl import CapMode
        from repro.workloads import JobConfig

        machine = registry.get_machine(self.machine)()
        return JobConfig(
            analyses=tuple(self.analyses),
            dim=self.dim,
            n_nodes=self.n_nodes,
            j=self.j,
            n_verlet_steps=self.n_verlet_steps,
            budget_per_node_w=self.budget_per_node_w,
            cap_mode=CapMode(self.cap_mode),
            seed=self.seed,
            analysis_intervals=dict(self.analysis_intervals),
            machine=machine,
            collect_traces=self.collect_traces,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: workload × approach × measurement.

    ``baseline_sim_share`` switches the scenario's *measurement*: when
    ``None`` the scenario is ``repeats`` plain managed runs (the
    metric is each run's total time); when set, every run is paired
    with a static baseline at that share inside the same job — the
    paper's §VII-A protocol — and the metric is the median percentage
    improvement over ``repeats`` pairs.
    """

    name: str
    approach: str = "seesaw"
    workload: str = "proxy"
    job: JobParams = field(default_factory=JobParams)
    #: controller options forwarded to the approach's constructor
    #: (validated against the registry's accepted-option metadata)
    controller: dict = field(default_factory=dict)
    #: static pairing share for improvement scenarios (None = plain run)
    baseline_sim_share: float | None = None
    #: runs per data point (median-of-N for paired scenarios)
    repeats: int = 1
    #: run index of a single plain run (pairing always uses 0..N-1)
    run_index: int = 0
    #: fault plan reference: a plan JSON path or the compact DSL
    #: (workload insitu only; validate_spec rejects it elsewhere)
    faults: str | None = None
    #: seed for a sampled fault plan (mutually exclusive with faults)
    chaos_seed: int | None = None
    #: InsituConfig overrides for DES-backed scenarios (workload insitu)
    insitu: dict = field(default_factory=dict)
    #: renderer annotations (labels, panel ids, seed offsets, ...);
    #: carried verbatim, never interpreted by the scenario layer
    extras: dict = field(default_factory=dict)

    # ------------------------------------------------------- evolution
    def with_job(self, **kw) -> "ScenarioSpec":
        """Copy with ``job`` fields replaced (sweep/override hook)."""
        return replace(self, job=replace(self.job, **kw))

    def with_controller(self, **kw) -> "ScenarioSpec":
        """Copy with controller options merged in."""
        return replace(self, controller={**self.controller, **kw})

    # ----------------------------------------------------- serialization
    def to_json(self) -> dict:
        """Plain-data form: every field explicit, order fixed."""
        doc: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "job":
                value = {
                    jf.name: _plain(getattr(value, jf.name))
                    for jf in fields(JobParams)
                }
            else:
                value = _plain(value)
            doc[f.name] = value
        return doc

    def dumps(self) -> str:
        """The byte-stable serialized form (what ``specs/`` ships)."""
        return json.dumps(self.to_json(), indent=2) + "\n"

    @classmethod
    def from_json(cls, doc: dict, where: str = "scenario") -> "ScenarioSpec":
        """Parse and type-check a plain-data document.

        Unknown keys are rejected (typos must not silently become
        defaults); missing keys take the field defaults, except
        ``name`` which is required.
        """
        if not isinstance(doc, dict):
            raise SpecError(f"{where}: expected an object, got {type(doc).__name__}")
        data = dict(doc)
        if "name" not in data:
            raise SpecError(f"{where}: missing required key 'name'")
        job_doc = data.pop("job", {})
        if not isinstance(job_doc, dict):
            raise SpecError(f"{where}.job: expected an object")
        known_job = {f.name for f in fields(JobParams)}
        bad = sorted(set(job_doc) - known_job)
        if bad:
            raise SpecError(
                f"{where}.job: unknown key(s) {', '.join(bad)}; "
                f"valid keys: {', '.join(sorted(known_job))}"
            )
        job_kwargs = dict(job_doc)
        if "analyses" in job_kwargs:
            job_kwargs["analyses"] = _as_str_tuple(
                job_kwargs["analyses"], f"{where}.job.analyses"
            )
        known = {f.name for f in fields(cls)} - {"job"}
        bad = sorted(set(data) - known)
        if bad:
            raise SpecError(
                f"{where}: unknown key(s) {', '.join(bad)}; "
                f"valid keys: {', '.join(sorted(known | {'job'}))}"
            )
        try:
            job = JobParams(**job_kwargs)
            spec = cls(job=job, **data)
        except TypeError as exc:
            raise SpecError(f"{where}: {exc}") from None
        spec._typecheck(where)
        return spec

    def _typecheck(self, where: str) -> None:
        checks = [
            ("name", self.name, str),
            ("approach", self.approach, str),
            ("workload", self.workload, str),
            ("repeats", self.repeats, int),
            ("run_index", self.run_index, int),
            ("controller", self.controller, dict),
            ("insitu", self.insitu, dict),
            ("extras", self.extras, dict),
            ("job.dim", self.job.dim, int),
            ("job.n_nodes", self.job.n_nodes, int),
            ("job.j", self.job.j, int),
            ("job.n_verlet_steps", self.job.n_verlet_steps, int),
            ("job.budget_per_node_w", self.job.budget_per_node_w, (int, float)),
            ("job.cap_mode", self.job.cap_mode, str),
            ("job.seed", self.job.seed, int),
            ("job.analysis_intervals", self.job.analysis_intervals, dict),
            ("job.machine", self.job.machine, str),
            ("job.collect_traces", self.job.collect_traces, bool),
        ]
        for key, value, types in checks:
            if isinstance(value, bool) and types in (int, (int, float)):
                raise SpecError(f"{where}.{key}: expected a number, got a bool")
            if not isinstance(value, types):
                want = (
                    types.__name__
                    if isinstance(types, type)
                    else "/".join(t.__name__ for t in types)
                )
                raise SpecError(
                    f"{where}.{key}: expected {want}, "
                    f"got {type(value).__name__}"
                )
        if self.baseline_sim_share is not None and (
            isinstance(self.baseline_sim_share, bool)
            or not isinstance(self.baseline_sim_share, (int, float))
        ):
            raise SpecError(
                f"{where}.baseline_sim_share: expected a number or null"
            )

    # ---------------------------------------------------------- derivation
    def to_cells(self):
        """The campaign cells this scenario expands to — exactly the
        ``CellSpec`` objects the pre-scenario harnesses built, so cache
        keys are unchanged. A paired scenario interleaves each managed
        run with its static baseline (``[managed 0, static 0, managed
        1, ...]``), the layout ``runner.improvement`` folds."""
        from repro.campaign.cells import CellSpec

        cfg = self.job.to_job_config()
        kwargs = dict(self.controller)
        if self.baseline_sim_share is None:
            start = self.run_index
            return [
                CellSpec(self.approach, cfg, start + i, dict(kwargs))
                for i in range(self.repeats)
            ]
        cells = []
        for i in range(self.repeats):
            cells.append(CellSpec(self.approach, cfg, i, dict(kwargs)))
            cells.append(
                CellSpec(
                    "static", cfg, i, {"sim_share": self.baseline_sim_share}
                )
            )
        return cells


def _plain(value):
    """Recursively convert to JSON-native data (tuples → lists)."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Path):
        return str(value)
    return value


def _as_str_tuple(value, where: str) -> tuple[str, ...]:
    if isinstance(value, str):
        raise SpecError(f"{where}: expected a list of names, got a string")
    try:
        items = tuple(value)
    except TypeError:
        raise SpecError(f"{where}: expected a list of names") from None
    if not all(isinstance(v, str) for v in items):
        raise SpecError(f"{where}: every analysis name must be a string")
    return items


def spec_hash(spec: ScenarioSpec) -> str:
    """Stable content hash of a scenario (code-version independent)."""
    from repro.campaign.hashing import stable_hash

    return stable_hash(spec)


def validate_spec(spec: ScenarioSpec, where: str | None = None) -> list[str]:
    """Every problem with ``spec``, as actionable messages.

    Checks registry membership (approach, workload, machine, analysis
    names), controller options against the approach's accepted-option
    metadata, measurement-protocol fields, fault options (which only
    the ``insitu`` workload runs), and finally attempts the
    concrete ``JobConfig`` construction so infeasible parameter
    combinations (budget below the RAPL floor, odd node counts, bad
    ``j``) surface here rather than mid-campaign.
    """
    where = where or spec.name or "scenario"
    problems: list[str] = []

    try:
        info = registry.get_controller(spec.approach)
    except registry.RegistryError as exc:
        problems.append(f"{where}.approach: {exc}")
        info = None
    if info is not None:
        try:
            info.check_kwargs(spec.controller)
        except TypeError as exc:
            problems.append(f"{where}.controller: {exc}")

    try:
        registry.get_workload(spec.workload)
    except registry.RegistryError as exc:
        problems.append(f"{where}.workload: {exc}")

    try:
        registry.get_machine(spec.job.machine)
    except registry.RegistryError as exc:
        problems.append(f"{where}.job.machine: {exc}")

    known_analyses = registry.list_analyses()
    for name in spec.job.analyses:
        if name not in known_analyses:
            problems.append(
                f"{where}.job.analyses: unknown analysis {name!r}; "
                f"choose from {', '.join(sorted(known_analyses))}"
            )
    for name in spec.job.analysis_intervals:
        if name not in known_analyses:
            problems.append(
                f"{where}.job.analysis_intervals: unknown analysis {name!r}"
            )

    from repro.power.rapl import CapMode

    valid_modes = [m.value for m in CapMode]
    if spec.job.cap_mode not in valid_modes:
        problems.append(
            f"{where}.job.cap_mode: unknown mode {spec.job.cap_mode!r}; "
            f"choose from {', '.join(valid_modes)}"
        )

    if spec.repeats < 1:
        problems.append(f"{where}.repeats: must be >= 1")
    if spec.run_index < 0:
        problems.append(f"{where}.run_index: must be >= 0")
    if spec.baseline_sim_share is not None and not (
        0.0 < spec.baseline_sim_share < 1.0
    ):
        problems.append(
            f"{where}.baseline_sim_share: must lie in (0, 1), "
            f"got {spec.baseline_sim_share}"
        )
    if spec.workload != "insitu":
        # only the DES-backed workload runs under a fault plan
        for name in ("faults", "chaos_seed"):
            if getattr(spec, name) is not None:
                problems.append(
                    f"{where}.{name}: the {spec.workload!r} workload "
                    "ignores fault plans; only 'insitu' runs them"
                )
    if spec.faults is not None and spec.chaos_seed is not None:
        problems.append(
            f"{where}: faults and chaos_seed are mutually exclusive"
        )
    if spec.faults is not None:
        from repro.faults import FaultPlan

        try:
            FaultPlan.from_spec(spec.faults)
        except (ValueError, OSError) as exc:
            problems.append(f"{where}.faults: {exc}")

    if spec.insitu:
        from repro.insitu.coupler import InsituConfig

        known_insitu = {f.name for f in fields(InsituConfig)}
        bad = sorted(set(spec.insitu) - known_insitu)
        if bad:
            problems.append(
                f"{where}.insitu: unknown key(s) {', '.join(bad)}; "
                f"valid keys: {', '.join(sorted(known_insitu))}"
            )

    # the concrete construction is the last word on feasibility
    if not problems:
        try:
            spec.job.to_job_config()
        except ValueError as exc:
            problems.append(f"{where}.job: {exc}")
    return problems
