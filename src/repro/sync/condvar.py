"""Condition variable.

Mesa-style semantics, always used with a :class:`~repro.sync.mutex.Mutex`:
``CondWait`` atomically releases the mutex and blocks; a signalled process
re-acquires the mutex (possibly blocking again on it) before its wait
returns.  The condition variable keeps its waiters; the kernel composes
its transitions with the mutex's (``release`` and ``requeue``) and blocks
and wakes the processes.
"""

from __future__ import annotations

from typing import Any, List

from repro.sim.engine import SimulationError
from repro.sync.lock import pop_live
from repro.sync.mutex import Mutex


class ConditionVariable:
    """State and transitions for one condition variable."""

    __slots__ = ("name", "mutex", "waiters", "signals", "broadcasts", "wait_cost")

    def __init__(self, mutex: Mutex, name: str = "condvar", wait_cost: int = 5) -> None:
        self.name = name
        self.mutex = mutex
        self.waiters: List[Any] = []
        self.signals = 0
        self.broadcasts = 0
        self.wait_cost = wait_cost

    def wait(self, process: Any) -> None:
        """*process*, which must hold the mutex, joins the waiters; the
        caller then releases the mutex on its behalf."""
        if self.mutex.holder_pid != process.pid:
            raise SimulationError(
                f"CondWait by process {process.pid} without holding "
                f"{self.mutex.name!r}"
            )
        self.waiters.append(process)

    def signal(self) -> Any:
        """Take the oldest live waiter off the condition, or ``None``; it
        must re-acquire the mutex (:meth:`~repro.sync.mutex.Mutex.requeue`)."""
        self.signals += 1
        return pop_live(self.waiters)

    def broadcast(self) -> List[Any]:
        """Take every live waiter off the condition, oldest first."""
        self.broadcasts += 1
        woken, self.waiters = self.waiters, []
        return [waiter for waiter in woken if waiter.alive]

    def detach(self, process: Any) -> None:
        """Forget a killed waiter.  (A signalled one has completed its
        wait; it sits on the mutex FIFO, whose release skips it.)"""
        if process in self.waiters:
            self.waiters.remove(process)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConditionVariable {self.name!r} waiters={len(self.waiters)}>"
