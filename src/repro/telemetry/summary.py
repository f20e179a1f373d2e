"""Trace post-processing: span validation and span seconds.

:func:`validate_spans` checks structural well-formedness — every end
matches the innermost open begin of its ``(pid, tid)`` lane, nothing is
left open, and children lie within their parent's interval. The
property tests drive it with randomized span programs; the CLI runs it
before writing a trace so a malformed instrumentation change fails
loudly rather than producing a file Perfetto rejects.

:func:`span_seconds` is the seconds a complete span accounts for: a
span that aggregates a partition's ranks (the proxy's) counts its
rank-seconds, so times and mean powers stay per node. The one fold of
a trace's records is :class:`repro.obs.report.TraceFold`.
"""

from __future__ import annotations

__all__ = ["span_seconds", "validate_spans"]


def span_seconds(rec: dict) -> float:
    """The seconds an ``"X"`` record accounts for: its ``rank_s`` arg
    where it has one (a per-partition span carries its ranks' seconds,
    summed), else its ``dur``."""
    args = rec.get("args") or {}
    return float(args.get("rank_s", rec.get("dur", 0.0)) or 0.0)


def validate_spans(records: list[dict]) -> list[str]:
    """Structural violations in a record stream (empty list = clean).

    Checks, independently per ``(pid, tid)`` lane:

    * "E" records match the innermost open "B" by name;
    * timestamps never run backwards within a lane;
    * every opened span is closed (balanced enter/exit);
    * child spans end no later than their parent ends.

    The parent-interval property follows from the first three for
    stack-disciplined spans, but malformed ``ts`` overrides can break
    it independently, so it is verified directly.
    """
    problems: list[str] = []
    # per-lane stack of [begin_record, max_end_of_closed_children]
    stacks: dict[tuple, list[list]] = {}
    last_ts: dict[tuple, float] = {}
    for rec in records:
        ph = rec.get("ph")
        if ph not in ("B", "E", "X"):
            continue
        lane = (rec.get("pid", 0), rec.get("tid", 0))
        ts = rec["ts"]
        if ts < last_ts.get(lane, float("-inf")):
            problems.append(
                f"lane {lane}: ts went backwards at {rec['name']!r} "
                f"({ts} < {last_ts[lane]})"
            )
        last_ts[lane] = ts
        stack = stacks.setdefault(lane, [])
        if ph == "B":
            stack.append([rec, float("-inf")])
        elif ph == "E":
            if not stack:
                problems.append(
                    f"lane {lane}: end of {rec['name']!r} with no open span"
                )
                continue
            top, child_end = stack.pop()
            if top["name"] != rec["name"]:
                problems.append(
                    f"lane {lane}: end of {rec['name']!r} closes "
                    f"{top['name']!r}"
                )
            if ts < top["ts"]:
                problems.append(
                    f"lane {lane}: span {top['name']!r} ends before it begins"
                )
            if child_end > ts + 1e-9:
                problems.append(
                    f"lane {lane}: a child outlives parent {top['name']!r}"
                )
            if stack:  # this span is itself a closed child of its parent
                stack[-1][1] = max(stack[-1][1], ts)
        else:  # X: a pre-closed span; note its end for the open parent
            end = ts + rec.get("dur", 0.0)
            if stack:
                stack[-1][1] = max(stack[-1][1], end)
    for lane, stack in stacks.items():
        for rec, _ in stack:
            problems.append(f"lane {lane}: span {rec['name']!r} never ended")
    return problems
