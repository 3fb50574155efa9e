"""Trace import/export as JSON Lines.

Long experiment runs produce traces worth keeping (the control plane's
decisions, the preemption evidence trail); these helpers serialize a
:class:`~repro.sim.trace.TraceLog` to a ``.jsonl`` file -- one record per
line -- and load it back.  Only JSON-representable payload values survive a
round trip; others are stringified on export (the kernel's payloads are
all ints/strings/dicts, so in practice traces round-trip exactly).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.sim.trace import TraceLog


def _jsonable(value):
    try:
        json.dumps(value)
        return value
    except (TypeError, ValueError):
        return repr(value)


def dump_trace(trace: TraceLog, path: Union[str, Path]) -> int:
    """Write every record of *trace* to *path* (JSONL).  Returns the count."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for record in trace:
            payload = {
                "t": record.time,
                "cat": record.category,
                "data": {k: _jsonable(v) for k, v in record.data.items()},
            }
            handle.write(json.dumps(payload, separators=(",", ":")) + "\n")
            count += 1
    return count


#: Milestone categories the timeline keeps by default: low-volume control
#: events that narrate a run.  Bulk series (``pc.poll``,
#: ``kernel.dispatch``) stay out -- they drown the story.
TIMELINE_CATEGORIES = frozenset(
    {
        "app.finished",
        "server.update",
        "server.register",
        "server.crash",
        "server.restart",
        "plane.rebalance",
        "plane.failover",
        "pc.suspend",
        "pc.resume",
        "pc.poll_failed",
        "pc.target_expired",
        "pc.policy_swap",
        "kernel.cpu_offline",
        "kernel.cpu_online",
        "kernel.cpu_offline_refused",
        "kernel.kill",
        "sanitize.violation",
        "service.slo_violation",
        "lock.cull",
        "lock.readmit",
    }
)

#: Category prefix -> timeline lane (the actor the event belongs to).
_LANE_OF_PREFIX = {
    "kernel": "kernel",
    "server": "server",
    "plane": "plane",
    "watchdog": "watchdog",
    "pc": "app",
    "app": "app",
    "service": "app",
    "sanitize": "sanitize",
    # Per-lock milestones (culling/readmission) act on an app's lock;
    # spin.* witnesses likewise narrate application-side contention.
    "lock": "app",
    "spin": "app",
}


def timeline_events(trace: TraceLog, categories=None):
    """Time-ordered milestone rows for rendering a run's control timeline.

    Every ``watchdog.*`` record is always surfaced -- suspicion, restarts,
    failovers, and degraded-mode transitions are exactly the events a
    post-mortem reads the timeline for -- alongside the default milestone
    set (or *categories*, when given).  Each row carries the record's
    ``t``/``cat``/``data`` plus a ``lane`` naming the acting component
    (``kernel``/``server``/``plane``/``watchdog``/``app``).
    """
    keep = TIMELINE_CATEGORIES if categories is None else set(categories)
    rows = []
    for record in trace:
        category = record.category
        if category not in keep and not category.startswith("watchdog."):
            continue
        prefix = category.split(".", 1)[0]
        rows.append(
            {
                "t": record.time,
                "lane": _LANE_OF_PREFIX.get(prefix, prefix),
                "cat": category,
                "data": {k: _jsonable(v) for k, v in record.data.items()},
            }
        )
    rows.sort(key=lambda row: row["t"])
    return rows


def dump_timeline(
    trace: TraceLog, path: Union[str, Path], categories=None
) -> int:
    """Write :func:`timeline_events` rows to *path* (JSONL); returns count."""
    path = Path(path)
    rows = timeline_events(trace, categories=categories)
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, separators=(",", ":")) + "\n")
    return len(rows)


def load_trace(path: Union[str, Path]) -> TraceLog:
    """Read a JSONL trace written by :func:`dump_trace`."""
    path = Path(path)
    trace = TraceLog()
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                trace.emit(payload["t"], payload["cat"], **payload["data"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: malformed trace line"
                ) from exc
    return trace
