"""The shared task queue and its spinlock.

The queue's deque is plain Python state; *all* access happens inside the
worker program's spinlock-protected critical sections (the package yields
``SpinAcquire(queue.lock)`` around each operation).  That lock is precisely
the fine-grained critical section whose preemption produces the paper's
Figure 1 pathology, so it is a real simulated spinlock, not an abstraction.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.sync import SpinLock
from repro.threads.task import Task

#: Sentinel a worker dequeues when the application has finished; consuming
#: one makes the worker process exit.
POISON: object = object()


class TaskQueue:
    """FIFO task queue guarded by a spinlock."""

    # One per tenant (per stage for pipelines): no per-instance ``__dict__``.
    __slots__ = ("name", "lock", "_items", "enqueued", "dequeued", "high_water")

    def __init__(self, name: str = "taskq", acquire_cost: int = 2) -> None:
        self.name = name
        self.lock = SpinLock(f"{name}.lock", acquire_cost=acquire_cost)
        self._items: Deque[object] = deque()
        self.enqueued = 0
        self.dequeued = 0
        self.high_water = 0

    def push(self, task: object) -> None:
        """Append a task.  Caller must hold :attr:`lock` (worker protocol)."""
        self._items.append(task)
        self.enqueued += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)

    def push_front(self, task: object) -> None:
        """Prepend an urgent task.  Caller must hold :attr:`lock`."""
        self._items.appendleft(task)
        self.enqueued += 1
        if len(self._items) > self.high_water:
            self.high_water = len(self._items)

    def pop(self) -> Optional[object]:
        """Remove and return the oldest task, or None when empty.  Caller
        must hold :attr:`lock`."""
        if not self._items:
            return None
        self.dequeued += 1
        return self._items.popleft()

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskQueue {self.name!r} depth={len(self._items)}>"
