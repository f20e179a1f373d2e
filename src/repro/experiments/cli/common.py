"""Shared helpers for the CLI subcommand modules."""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.campaign import CampaignEngine, CellStore, default_cache_dir
from repro.experiments import EXPERIMENTS

__all__ = [
    "QUICK_OVERRIDES",
    "_build_engine",
    "_first_doc_line",
    "_harness_kwargs",
    "_jsonable",
    "_run_one",
]

#: parameter overrides applied by --quick where the harness accepts them
QUICK_OVERRIDES = {"n_runs": 1, "n_verlet_steps": 100}


def _jsonable(obj):
    """Best-effort conversion of a result object to JSON-safe data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return _jsonable(obj.value)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted((_jsonable(v) for v in obj), key=repr)
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


def _harness_kwargs(fn, overrides: dict) -> dict:
    """The subset of ``overrides`` the harness signature accepts."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in overrides.items() if k in params}


def _run_one(name: str, overrides: dict, output: Path | None) -> str:
    fn = EXPERIMENTS[name]
    kwargs = _harness_kwargs(fn, overrides)
    t0 = time.perf_counter()
    result = fn(**kwargs)
    elapsed = time.perf_counter() - t0
    rendered = result.render()
    if output is not None:
        output.mkdir(parents=True, exist_ok=True)
        (output / f"{name}.txt").write_text(rendered + "\n")
        (output / f"{name}.json").write_text(
            json.dumps(_jsonable(result), indent=2) + "\n"
        )
    return f"{rendered}\n\n[{name} regenerated in {elapsed:.1f} s]"


def _first_doc_line(fn) -> str:
    doc = inspect.getdoc(fn) or ""
    for line in doc.splitlines():
        if line.strip():
            return line.strip()
    return ""


def _build_engine(args) -> CampaignEngine:
    """Campaign engine from the CLI flags (cache failures degrade)."""
    store = None
    if not args.no_cache:
        cache_dir = args.cache if args.cache is not None else default_cache_dir()
        try:
            store = CellStore(cache_dir)
        except OSError as exc:
            print(
                f"warning: cell cache disabled ({cache_dir}: {exc})",
                file=sys.stderr,
            )
    return CampaignEngine(
        jobs=args.jobs, store=store, progress=sys.stderr.isatty()
    )
