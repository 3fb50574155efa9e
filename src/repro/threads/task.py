"""Tasks: the user-level threads multiplexed onto worker processes.

A :class:`Task` is "a small chunk of computation that may potentially
execute in parallel" (Section 1).  Its body is a generator factory: when a
worker process picks the task up, it instantiates the generator and
forwards every yielded kernel syscall, so a task may compute, take
application spinlocks, sleep, and so on.  A task may also yield
:class:`SpawnTask` to add new tasks to the application's queue -- "as the
result of executing a thread of control, that thread may decide to add new
threads to the task queue".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.kernel import syscalls as sc
from repro.sync import SpinLock

#: Type of a task body: a no-argument callable returning a fresh generator.
TaskBody = Callable[[], Generator[Any, Any, None]]


@dataclass
class SpawnTask:
    """Yielded *by a task body* to enqueue a new task dynamically."""

    task: "Task"


@dataclass(slots=True)
class Task:
    """One user-level thread.

    Attributes:
        name: label for traces and debugging.
        body: generator factory executed by whichever worker dequeues the
            task.
        phase: optional phase index (used by phased applications).
        meta: free-form application payload, or ``None`` (the default:
            a plain compute task carries none, and readers test
            ``if task.meta:``).
        urgent: enqueue at the *front* of the task queue instead of the
            back.  Service applications mark their dispatcher segments
            urgent so request admission keeps pace with the arrival clock
            instead of queueing behind a backlog of stage work -- the
            task-queue analogue of the elevated priority every real
            server gives its accept loop.
    """

    name: str
    body: TaskBody
    phase: int = 0
    meta: Optional[dict] = None
    urgent: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} phase={self.phase}>"


def compute_task(
    name: str,
    cost: int,
    lock: Optional[SpinLock] = None,
    critical_cost: int = 0,
    phase: int = 0,
) -> "ComputeTask":
    """A common task shape: compute, then optionally a short critical section.

    This mirrors how the paper's applications behave: the bulk of a task is
    independent computation, followed by a brief spinlock-protected update
    of shared state (accumulating a result row, merging a partial sum).
    The critical section is what makes untimely preemption expensive.
    """
    if cost < 0 or critical_cost < 0:
        raise ValueError("task costs must be >= 0")
    return ComputeTask(name, cost, lock, critical_cost, phase)


class ComputeTask:
    """A :func:`compute_task`: one record that is both the task and its body.

    It reads like a :class:`Task` (``name``, ``phase``, ``meta``,
    ``urgent``, and a ``body()`` returning a fresh generator) but holds
    the costs instead of a body object, so each of the tens of thousands
    a large run queues costs ~72 B, not the ~128 B of a ``Task`` with a
    separate body.  A compute task carries no payload and is never
    urgent, so ``meta`` and ``urgent`` are class attributes.
    """

    __slots__ = ("name", "phase", "cost", "lock", "critical_cost")

    meta: Optional[dict] = None
    urgent: bool = False

    def __init__(
        self,
        name: str,
        cost: int,
        lock: Optional[SpinLock],
        critical_cost: int,
        phase: int,
    ) -> None:
        self.name = name
        self.phase = phase
        self.cost = cost
        self.lock = lock
        self.critical_cost = critical_cost

    def body(self):
        if self.cost:
            yield sc.Compute(self.cost)
        lock = self.lock
        if lock is not None and self.critical_cost:
            yield sc.SpinAcquire(lock)
            yield sc.Compute(self.critical_cost)
            yield sc.SpinRelease(lock)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComputeTask {self.name!r} phase={self.phase}>"
