"""The shared task queue and its spinlock.

The queue's list is plain Python state; *all* access happens inside the
worker program's spinlock-protected critical sections (the package yields
``SpinAcquire(queue.lock)`` around each operation).  That lock is precisely
the fine-grained critical section whose preemption produces the paper's
Figure 1 pathology, so it is a real simulated spinlock, not an abstraction.
"""

from __future__ import annotations

from typing import List, Optional

from repro.kernel import syscalls as sc
from repro.sync import SpinLock
from repro.threads.task import Task

#: Sentinel a worker dequeues when the application has finished; consuming
#: one makes the worker process exit.
POISON: object = object()


class TaskQueue:
    """FIFO task queue guarded by a spinlock.

    The live tasks are ``_items[_head:]``.  A pop only advances the head
    (clearing the consumed slot), the consumed prefix is cut once it is
    more than half the list, and a drained list is emptied, so ``_items``
    -- always the same list object -- is truthy exactly when there is work.
    Workers keep a reference to it for their free shared-memory peek.  A
    list grows in place where a deque holds a ~760 B block even when empty.
    """

    # One per tenant (per stage for pipelines): no per-instance ``__dict__``.
    __slots__ = (
        "name", "lock", "acquire", "release",
        "_items", "_head", "enqueued", "dequeued", "high_water",
    )

    def __init__(self, name: str = "taskq", acquire_cost: int = 2) -> None:
        self.name = name
        self.lock = SpinLock(f"{name}.lock", acquire_cost=acquire_cost)
        #: The lock's syscall pair, built once and yielded around every
        #: queue operation (syscall records are immutable and shareable).
        self.acquire = sc.SpinAcquire(self.lock)
        self.release = sc.SpinRelease(self.lock)
        self._items: List[object] = []
        self._head = 0
        self.enqueued = 0
        self.dequeued = 0
        self.high_water = 0

    def push(self, task: object) -> None:
        """Append a task.  Caller must hold :attr:`lock` (worker protocol)."""
        self._items.append(task)
        self.enqueued += 1
        depth = len(self._items) - self._head
        if depth > self.high_water:
            self.high_water = depth

    def push_front(self, task: object) -> None:
        """Prepend an urgent task.  Caller must hold :attr:`lock`."""
        if self._head:
            self._head -= 1
            self._items[self._head] = task
        else:
            self._items.insert(0, task)
        self.enqueued += 1
        depth = len(self._items) - self._head
        if depth > self.high_water:
            self.high_water = depth

    def pop(self) -> Optional[object]:
        """Remove and return the oldest task, or None when empty.  Caller
        must hold :attr:`lock`."""
        items = self._items
        if not items:
            return None
        self.dequeued += 1
        head = self._head
        task = items[head]
        head += 1
        if head == len(items):
            items.clear()
            head = 0
        elif head > len(items) >> 1:
            del items[:head]
            head = 0
        else:
            items[head - 1] = None
        self._head = head
        return task

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TaskQueue {self.name!r} depth={len(self)}>"
