"""Cyclic barrier.

Process-level blocking barrier: the first ``parties - 1`` arrivals block;
the last arrival releases everyone and the barrier resets for reuse.

Note that the applications in :mod:`repro.apps` mostly use *phase
continuations* in the threads package (tasks of the next phase are enqueued
when the previous phase drains) rather than process-level barriers, exactly
because the task-queue model makes that the safe-suspension-friendly way to
express phased algorithms.  The kernel barrier exists for programs written
directly against the kernel and for the coscheduling experiments.
"""

from __future__ import annotations

from typing import Any, List, Optional


class Barrier:
    """State and transitions for one cyclic barrier."""

    __slots__ = ("name", "parties", "waiters", "generation", "wait_cost", "trips")

    def __init__(self, parties: int, name: str = "barrier", wait_cost: int = 5) -> None:
        if parties < 1:
            raise ValueError(f"barrier parties must be >= 1, got {parties}")
        self.name = name
        self.parties = parties
        self.waiters: List[Any] = []
        self.generation = 0
        self.wait_cost = wait_cost
        self.trips = 0

    @property
    def n_waiting(self) -> int:
        """Number of processes currently blocked at the barrier."""
        return len(self.waiters)

    def arrive(self, process: Any) -> Optional[List[Any]]:
        """*process* arrives.  The last party trips the barrier and gets
        back the waiters to release into the new ``generation``; any
        earlier one joins the waiters and gets ``None`` (it must sleep)."""
        if len(self.waiters) + 1 == self.parties:
            self.generation += 1
            self.trips += 1
            released, self.waiters = self.waiters, []
            return released
        self.waiters.append(process)
        return None

    def detach(self, process: Any) -> None:
        """Forget a killed waiter."""
        if process in self.waiters:
            self.waiters.remove(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Barrier {self.name!r} {self.n_waiting}/{self.parties} "
            f"gen={self.generation}>"
        )
