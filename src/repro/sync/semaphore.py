"""Counting semaphore.

Used by the producer/consumer synthetic application that reproduces
degradation source #2 of Section 2 (consumers scheduled while the producer
is preempted find nothing to do).
"""

from __future__ import annotations

from typing import Any, List

from repro.sync.lock import pop_live


class Semaphore:
    """State and transitions for one counting semaphore."""

    __slots__ = ("name", "count", "waiters", "wait_cost", "post_cost", "posts", "waits")

    def __init__(self, name: str = "semaphore", initial: int = 0,
                 wait_cost: int = 5, post_cost: int = 5) -> None:
        if initial < 0:
            raise ValueError(f"initial semaphore count must be >= 0, got {initial}")
        self.name = name
        self.count = initial
        self.waiters: List[Any] = []
        self.wait_cost = wait_cost
        self.post_cost = post_cost
        self.posts = 0
        self.waits = 0

    def wait(self, process: Any) -> bool:
        """Take one unit: ``True`` if the count allowed it, else *process*
        joins the FIFO and must sleep until a post hands it a unit."""
        self.waits += 1
        if self.count > 0:
            self.count -= 1
            return True
        self.waiters.append(process)
        return False

    def post(self) -> Any:
        """Return one unit: to the oldest live waiter, which is returned
        for waking, or to the count (returns ``None``)."""
        self.posts += 1
        waiter = pop_live(self.waiters)
        if waiter is None:
            self.count += 1
        return waiter

    def detach(self, process: Any) -> None:
        """Forget a killed waiter."""
        if process in self.waiters:
            self.waiters.remove(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Semaphore {self.name!r} count={self.count} "
            f"waiters={len(self.waiters)}>"
        )
