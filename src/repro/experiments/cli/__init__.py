"""Command-line entry point: regenerate any paper table/figure.

Usage::

    seesaw-experiments list
    seesaw-experiments run fig4
    seesaw-experiments run all --jobs 8
    seesaw-experiments run fig3a --quick --cache /tmp/cells
    seesaw-experiments run all --output artifacts/ --trace run.jsonl
    seesaw-experiments run fig8 --trace fig8-trace.json
    seesaw-experiments run --spec specs/fig4.json
    seesaw-experiments scenario list
    seesaw-experiments scenario validate my-sweep.json
    seesaw-experiments scenario expand specs/fig8.json
    seesaw-experiments scenario hash --check
    seesaw-experiments trace --out trace.json --approach seesaw
    seesaw-experiments run fig4 --metrics metrics.json --audit audit.jsonl
    seesaw-experiments audit replay audit.jsonl
    seesaw-experiments audit diff a.jsonl b.jsonl
    seesaw-experiments audit timeline audit.jsonl
    seesaw-experiments run fig2 --chaos-seed 7
    seesaw-experiments run fig8 --faults "cap_skew@2.0+200.0x-12.0"
    seesaw-experiments chaos --seed 7 --events chaos-events.jsonl
    seesaw-experiments campaign watch run.jsonl
    seesaw-experiments campaign report run.jsonl --format html --out r.html

``--quick`` trades statistical fidelity for speed (fewer Verlet steps,
single run instead of median-of-3) — useful for smoke-testing.
``--runs N`` overrides the number of repeated runs per data point.
``--output DIR`` additionally writes each experiment's rendered table
(``<name>.txt``) and a JSON dump of its raw result (``<name>.json``)
into ``DIR``.

Scenario specs (see :mod:`repro.scenario`): every figure and table
declares its runs as typed scenario specs shipped under ``specs/``;
``run --spec FILE`` executes any such file — shipped or hand-written —
through the same campaign engine, so its cells hit the same
content-addressed cache as the named harnesses. The ``scenario``
subcommand lists the shipped suites, validates spec files with
actionable messages (unknown approaches, rejected controller options),
expands sweep matrices into their concrete scenarios, and checks
content hashes against the ``specs/HASHES.json`` pins.

Campaign flags (see :mod:`repro.campaign`): ``--jobs N`` fans the
underlying cells out across N worker processes; results are cached
content-addressed under ``--cache DIR`` (default
``~/.cache/seesaw-repro/cells``; disable with ``--no-cache``) so
re-running an experiment whose inputs and code are unchanged is
near-instant. With ``--jobs > 1`` the cells are dispatched
longest-first, one at a time, to a warm worker pool (see
:mod:`repro.campaign.scheduler`).

Resume: the cell cache is the checkpoint. If a campaign is killed —
even with SIGKILL — running the same ``run`` command against the same
``--cache`` serves every finished cell from the cache (never
recomputed), executes the rest, and writes results bit-identical to
an uninterrupted run.

Tracing (see :mod:`repro.telemetry`): ``run ... --trace PATH`` records
spans and instants from every layer of the runs, pool workers
included: a ``.jsonl`` path streams JSON lines as the run goes, any
other path gets a Chrome ``trace_event`` JSON that opens in
``chrome://tracing`` / Perfetto. The JSONL trace is the campaign's
log: each cell outcome is a ``campaign.cell`` span, and the run ends
with a ``campaign.summary`` instant. ``campaign watch PATH`` tails it
as a live dashboard; ``campaign report PATH`` renders the energy
attribution (text, JSON or HTML). ``trace`` runs a purpose-built
small in-situ job under any registered approach, writes its trace
and prints the same attribution, per-phase time/power table included.

Observability (see :mod:`repro.metrics`): ``run ... --metrics PATH``
folds the run's trace records, pool workers' included, into streaming
histograms and counters and writes a report (JSON for ``.json`` paths,
Prometheus text otherwise); ``run ... --audit PATH`` journals every controller decision
to JSONL. ``audit replay`` re-executes a journal's decisions from their
recorded inputs and verifies the cap schedule (exit 1 on mismatch);
``audit diff`` compares two journals decision-by-decision (exit 1 iff
they diverge); ``audit timeline`` renders the Fig. 1/2-style power
split in the terminal.

Fault injection (see :mod:`repro.faults`): ``run ... --faults SPEC``
installs a declarative fault plan (JSON path or the compact
``kind@START+DUR[xMAG]`` DSL) over the in-process runs;
``run ... --chaos-seed N`` samples a seed-replayable plan instead.
``run`` takes only the domain-wide RAPL actuation kinds (``cap_drop``,
``cap_lag``, ``cap_skew``), the ones that reach the analytic proxy;
any other kind or a ``:rankN`` target is a usage error.
Faulted runs bypass the cell cache so poisoned results never persist.
``trace`` accepts the same two flags plus ``--audit PATH``, giving a
DES-backed faulted job whose holds show up in ``audit replay``.
The ``chaos`` subcommand sweeps a controllers × fault-kinds matrix —
declared as a scenario matrix, dump it with ``--matrix-out`` — and
reports completion/slowdown/allocation-stability per cell (exit 1 when
a cell crashes, breaches the budget, or regresses past the threshold).
"""

from __future__ import annotations

from repro.experiments.cli.app import main
from repro.experiments.cli.common import (
    QUICK_OVERRIDES,
    _build_engine,
    _first_doc_line,
    _harness_kwargs,
    _jsonable,
    _run_one,
)

__all__ = ["main"]
