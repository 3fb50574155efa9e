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
        name: optional label for debugging (``None``: no label).  Nothing
            reads it but ``repr``, so the built-in applications leave it
            unset.
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

    name: Optional[str]
    body: TaskBody
    phase: int = 0
    meta: Optional[dict] = None
    urgent: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name!r} phase={self.phase}>"


def critical_section(lock: SpinLock, cost: int) -> Optional[tuple]:
    """The syscall records of a *cost*-us section held under *lock*, or
    ``None`` when *cost* is 0.

    Build it once per lock and share it among every task that runs the
    section: syscall records are immutable values, so one
    ``(SpinAcquire, Compute, SpinRelease)`` triple serves every task.
    """
    if cost < 0:
        raise ValueError("task costs must be >= 0")
    if not cost:
        return None
    return (sc.SpinAcquire(lock), sc.Compute(cost), sc.SpinRelease(lock))


def compute_task(
    cost: int,
    section: Optional[tuple] = None,
    phase: int = 0,
    name: Optional[str] = None,
) -> "ComputeTask":
    """A common task shape: compute, then optionally a short critical section.

    This mirrors how the paper's applications behave: the bulk of a task is
    independent computation, followed by a brief spinlock-protected update
    of shared state (accumulating a result row, merging a partial sum).
    The critical section, a :func:`critical_section`, is what makes
    untimely preemption expensive.  *name* is an optional label for
    debugging; the built-in applications leave it unset.
    """
    if cost < 0:
        raise ValueError("task costs must be >= 0")
    return ComputeTask(cost, section, phase, name)


class ComputeTask:
    """A :func:`compute_task`: one record that is both the task and its body.

    It reads like a :class:`Task` (``name``, ``phase``, ``meta``,
    ``urgent``, and a ``body()`` returning a fresh generator) but holds
    its cost and its application's shared critical section instead of a
    body object, so each of the tens of thousands a large run queues
    costs ~64 B, not the ~128 B of a ``Task`` with a separate body.  A
    compute task carries no payload and is never urgent, so ``meta`` and
    ``urgent`` are class attributes; its ``name`` is optional, as a
    :class:`Task`'s is.
    """

    __slots__ = ("name", "phase", "cost", "section")

    meta: Optional[dict] = None
    urgent: bool = False

    def __init__(
        self,
        cost: int,
        section: Optional[tuple],
        phase: int,
        name: Optional[str],
    ) -> None:
        self.name = name
        self.phase = phase
        self.cost = cost
        self.section = section

    def body(self):
        if self.cost:
            yield sc.Compute(self.cost)
        section = self.section
        if section is not None:
            acquire, critical, release = section
            yield acquire
            yield critical
            yield release

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ComputeTask {self.name!r} phase={self.phase}>"
