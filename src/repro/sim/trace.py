"""Structured trace log for simulation runs.

The kernel and the threads package emit :class:`TraceRecord` entries for
every interesting transition (dispatch, preempt, suspend, resume, lock
contention, server decisions, ...).  The metrics layer turns these into the
time series behind Figure 5 and the utilization breakdowns in the ablation
tables.

Tracing can be filtered by category to keep long runs cheap.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set


@dataclass(frozen=True)
class TraceRecord:
    """One trace event.

    Attributes:
        time: simulation time in microseconds.
        category: a dotted category string, e.g. ``"kernel.dispatch"``.
        data: free-form payload; keys are category-specific but stable.
    """

    time: int
    category: str
    data: Dict[str, Any] = field(default_factory=dict)


class TraceLog:
    """An append-only, optionally filtered, trace sink.

    By default every record is kept.  Pass ``categories`` to keep only
    selected ones, or ``enabled=False`` to drop everything (records are not
    even constructed in the hot path when the category check fails: callers
    use :meth:`wants` to guard expensive payload construction).
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Optional[Iterable[str]] = None,
    ) -> None:
        self.enabled = enabled
        self._categories: Optional[Set[str]] = (
            set(categories) if categories is not None else None
        )
        self._records: List[TraceRecord] = []

    def wants(self, category: str) -> bool:
        """True if a record with this category would be kept."""
        if not self.enabled:
            return False
        return self._categories is None or category in self._categories

    def emit(self, time: int, category: str, **data: Any) -> None:
        """Record an event if the category passes the filter."""
        if self.wants(category):
            self._records.append(TraceRecord(time, category, data))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def records(self, category: Optional[str] = None) -> List[TraceRecord]:
        """All records, or just those in *category*."""
        if category is None:
            return list(self._records)
        return [r for r in self._records if r.category == category]

    def categories(self) -> Set[str]:
        """The set of categories present in the log."""
        return {r.category for r in self._records}

    def clear(self) -> None:
        """Drop all records (used between experiment repetitions)."""
        self._records.clear()


def dispatch_digest(trace: TraceLog) -> str:
    """SHA-256 over the run's dispatch sequence.

    Hashes every ``kernel.dispatch`` record as a ``time:pid:cpu`` line, in
    emission order.  Two runs of the same scenario produce the same digest
    iff every process landed on the same processor at the same microsecond
    in the same order -- the bit-identical-replay check the golden-trace
    regression tests pin (``tests/test_golden_traces.py``).

    The trace must have been collected with the ``kernel.dispatch``
    category enabled (``run_scenario`` records nothing unless handed a
    trace).
    """
    hasher = hashlib.sha256()
    for record in trace:
        if record.category != "kernel.dispatch":
            continue
        data = record.data
        hasher.update(f"{record.time}:{data['pid']}:{data['cpu']}\n".encode())
    return hasher.hexdigest()
