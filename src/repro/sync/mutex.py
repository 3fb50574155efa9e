"""Blocking mutual-exclusion lock.

Unlike a :class:`~repro.sync.spinlock.SpinLock`, a process that fails to
acquire a :class:`Mutex` blocks: it leaves its processor and waits on the
mutex's FIFO queue.  A release hands ownership directly to the head
waiter (no barging), so the lock is fair.

A mutex never burns cycles, so it cannot collapse the way a saturated
spinlock does -- but a deep waiter queue still inflates hand-off latency
(every waiter pays a full wake/dispatch round trip).  The optional
``admission`` knob applies the same Malthusian restriction as the
spinlock's: at most ``admission`` processes sit on the active FIFO, the
rest are parked in ``culled`` and fed back one per release.  Culled
waiters re-enter newest first (LIFO), trading fairness for cache warmth
exactly as the Malthusian-lock paper prescribes for its passive set.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sync.lock import GRANT, QUEUE, Lock, pop_live


class Mutex(Lock):
    """State and transitions for one blocking lock."""

    kind = "mutex"
    _label = "mutex"
    _wait_outcome = QUEUE
    _readmit_at = -1  # LIFO: the most recently parked waiter is the warmest

    # A mutex never spins and keeps no hold-time telemetry.
    holder_preempted_encounters = 0
    total_spin_time = 0
    total_hold_time = 0

    __slots__ = ()

    def __init__(
        self,
        name: str = "mutex",
        acquire_cost: int = 5,
        release_cost: int = 5,
        admission: Optional[int] = None,
    ):
        super().__init__(name, acquire_cost, release_cost, admission)

    @property
    def waiters(self) -> List[Any]:
        """The active set under its mutex name: the FIFO, oldest first."""
        return self.active

    def release(self, pid: int, now: int) -> Any:
        """*pid* releases the mutex: returns the oldest live waiter, now
        the holder, or ``None`` when nobody queues."""
        self.note_released(pid)
        waiter = pop_live(self.active)
        if waiter is not None:
            self.note_acquired(waiter.pid, now, contended=True)
        return waiter

    def requeue(self, process: Any, now: int) -> str:
        """A signalled condition waiter re-acquires the mutex (Mesa
        semantics): :data:`~repro.sync.lock.GRANT` if it is free, else it
        queues or is culled like any arrival.  It records no wait: it was
        waiting on the condition, not the mutex."""
        if self.holder_pid is None:
            self.note_acquired(process.pid, now, contended=True)
            return GRANT
        return self._join(process)

    def note_released(self, pid: int) -> None:
        """Record that *pid* gave up ownership."""
        self._clear_holder(pid)
