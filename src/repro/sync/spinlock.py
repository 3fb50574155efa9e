"""Busy-waiting spinlock.

Semantics (decided by the lock, applied by the kernel when servicing
``SpinAcquire`` / ``SpinRelease`` syscalls):

* A free lock is acquired immediately for a small fixed cost.
* A held lock puts the caller into the *spinning* state: the process stays
  dispatched on its processor, consuming cycles but doing no work.
* On release, ownership is handed to the longest-spinning process that is
  *currently running*; spinners that were preempted mid-spin re-attempt when
  they are next dispatched.  (Only scheduled processes contend -- the
  observation the paper makes under Figure 1.)

The lock records contention statistics used by the experiment reports:
total spin time, number of contended acquires, and -- the paper's smoking
gun -- how often an acquire found the lock held by a *preempted* process.

Two optional knobs model the modern sequel to the paper's story
(Malthusian locks; Dice & Kogan's "Avoiding Scalability Collapse by
Restricting Concurrency"):

* ``contention_penalty`` -- extra microseconds added to every ownership
  hand-off *per remaining spinner*, modelling the invalidation storm the
  releasing cache line suffers on a saturated lock.  With it non-zero,
  throughput provably collapses as spinners grow even with zero
  preemption.  Default 0: hand-offs cost exactly ``handoff_cost`` and
  behaviour is bit-identical to earlier revisions.
* ``admission`` -- the concurrency-restriction knob.  At most ``admission``
  processes may actively spin; excess waiters are *passivated* into the
  ``culled`` list (they block, keeping their acquire syscall pending) and
  are readmitted FIFO, one per release, i.e. clocked by the lock's
  measured service rate.  ``None`` disables restriction.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sync.lock import SPIN, Lock


class SpinLock(Lock):
    """State and transitions for one spinlock.

    Attributes (beyond :class:`~repro.sync.lock.Lock`'s):
        handoff_cost: microseconds charged to transfer ownership to a
            spinner (models the cache-line ping).
        contention_penalty: extra hand-off microseconds per remaining
            spinner (models the invalidation storm; 0 = classic model).
        spinners: the active set -- processes currently dispatched and
            busy-waiting, oldest first.
    """

    kind = "spin"
    _label = "spinlock"
    _wait_outcome = SPIN
    _readmit_at = 0  # FIFO: a readmitted spinner retries like a new arrival

    __slots__ = (
        "handoff_cost",
        "contention_penalty",
        "holder_preempted_encounters",
        "total_spin_time",
        "hold_started_at",
        "total_hold_time",
        "last_released_at",
        "service_interval_ewma",
    )

    def __init__(
        self,
        name: str = "spinlock",
        acquire_cost: int = 2,
        release_cost: int = 1,
        handoff_cost: int = 3,
        contention_penalty: int = 0,
        admission: Optional[int] = None,
    ) -> None:
        if contention_penalty < 0:
            raise ValueError("contention_penalty must be >= 0")
        super().__init__(name, acquire_cost, release_cost, admission)
        self.handoff_cost = handoff_cost
        self.contention_penalty = contention_penalty
        self.holder_preempted_encounters = 0
        self.total_spin_time = 0
        self.hold_started_at: Optional[int] = None
        self.total_hold_time = 0
        self.last_released_at: Optional[int] = None
        self.service_interval_ewma: Optional[float] = None

    @property
    def spinners(self) -> List[Any]:
        """The active set under its spinlock name."""
        return self.active

    def handoff_charge(self) -> int:
        """Microseconds the next ownership hand-off costs.

        ``handoff_cost`` plus the invalidation-storm penalty scaled by the
        spinners that will still be chewing on the cache line *after* the
        hand-off (the grantee itself no longer spins).  Price it before
        :meth:`release` takes the grantee out of the spin set.
        """
        remaining = max(0, len(self.active) - 1)
        return self.handoff_cost + self.contention_penalty * remaining

    def release(self, pid: int, now: int) -> Any:
        """*pid* releases the lock: returns the oldest spinner, now the
        holder, or ``None`` when nobody spins.

        A spinner is on its processor, so none is skipped: a dead one
        (a kill-path bug) is returned for the kernel to reject.
        """
        self.note_released(pid, now)
        if not self.active:
            return None
        grantee = self.active.pop(0)
        self.note_acquired(grantee.pid, now, contended=True)
        return grantee

    def stop_spinning(self, process: Any) -> None:
        """A preempted or killed spinner leaves the spin set; its acquire
        stays pending, so a preempted one retries on its next dispatch."""
        if process in self.active:
            self.active.remove(process)

    def _hold_started(self, now: int) -> None:
        self.hold_started_at = now

    def note_released(self, pid: int, now: int) -> None:
        """Record that *pid* released the lock at time *now*."""
        self._clear_holder(pid)
        if self.hold_started_at is not None:
            self.total_hold_time += now - self.hold_started_at
            self.hold_started_at = None
        # Service-rate estimate: EWMA of the release-to-release interval.
        # Readmission is clocked by releases, so this is the measured rate
        # at which culled waiters get another shot.
        if self.last_released_at is not None:
            interval = float(now - self.last_released_at)
            if self.service_interval_ewma is None:
                self.service_interval_ewma = interval
            else:
                self.service_interval_ewma = (
                    0.25 * interval + 0.75 * self.service_interval_ewma
                )
        self.last_released_at = now
