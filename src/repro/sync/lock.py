"""What :class:`~repro.sync.spinlock.SpinLock` and
:class:`~repro.sync.mutex.Mutex` share: ownership, Malthusian admission,
the culled set, the wait and hand-off telemetry, and the transitions.

A transition touches only the lock's own state and answers with a module
constant, a process or ``None``, never a fresh object: the spinlock path
runs on every task-queue operation.  The kernel applies the answer.  A
waiter is anything with a ``pid`` and an ``alive`` flag.  The wait sets
are lists because an empty deque costs 760 B against a list's 56 B, and
``scale`` builds ~10k task-queue spinlocks.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: :meth:`Lock.acquire` outcomes.  The caller owns the lock now.
GRANT = "grant"
#: The caller joined a spinlock's spin set and busy-waits on its processor.
SPIN = "spin"
#: The caller joined a mutex's FIFO and sleeps until a release grants it.
QUEUE = "queue"
#: The active set was full: the caller was passivated into ``culled`` and
#: sleeps with its acquire still pending until a release readmits it.
CULL = "cull"


def pop_live(waiters: List[Any], at: int = 0) -> Any:
    """Pop *waiters* at index *at* (0 oldest, -1 newest) until a live one
    comes off, and return it; ``None`` once the list runs dry.  Waiters
    killed while parked are dropped on the way."""
    while waiters:
        waiter = waiters.pop(at)
        if waiter.alive:
            return waiter
    return None


class Lock:
    """Ownership, admission and telemetry shared by both lock kinds.

    Attributes:
        admission: max processes in the active wait set, or ``None``.
        holder_pid: pid currently holding the lock, or ``None``.
        active: waiters competing for the next hand-off, oldest first
            (a spinlock's ``spinners``, a mutex's ``waiters``).
        culled: passivated waiters (blocked, acquire still pending).
    """

    kind = ""  # the LockStats label
    _label = "lock"  # the kind's name in error messages
    _wait_outcome = ""  # SPIN or QUEUE: what an admitted waiter does
    _readmit_at = 0  # the culled index readmission pops: 0 FIFO, -1 LIFO

    __slots__ = (
        "name",
        "acquire_cost",
        "release_cost",
        "admission",
        "holder_pid",
        "active",
        "culled",
        "acquisitions",
        "contended_acquisitions",
        "wait_started",
        "wait_hist",
        "total_wait_time",
        "handoffs",
        "handoff_latency_total",
        "handoff_latency_max",
        "passivations",
        "readmissions",
        "culled_peak",
    )

    def __init__(
        self,
        name: str,
        acquire_cost: int,
        release_cost: int,
        admission: Optional[int],
    ) -> None:
        if admission is not None and admission < 1:
            raise ValueError("admission must be >= 1 (or None to disable)")
        self.name = name
        self.acquire_cost = acquire_cost
        self.release_cost = release_cost
        self.admission = admission
        self.holder_pid: Optional[int] = None
        self.active: List[Any] = []
        self.culled: List[Any] = []
        self.acquisitions = 0
        self.contended_acquisitions = 0
        # contention telemetry
        self.wait_started: Dict[int, int] = {}
        self.wait_hist: Dict[int, int] = {}
        self.total_wait_time = 0
        self.handoffs = 0
        self.handoff_latency_total = 0
        self.handoff_latency_max = 0
        self.passivations = 0
        self.readmissions = 0
        self.culled_peak = 0

    @property
    def held(self) -> bool:
        """True while some process owns the lock."""
        return self.holder_pid is not None

    @property
    def waiting(self) -> int:
        """Processes waiting for the lock right now (active or culled)."""
        return len(self.active) + len(self.culled)

    @property
    def n_culled(self) -> int:
        """Passivated waiters right now."""
        return len(self.culled)

    def _active_full(self) -> bool:
        """The admission check: no room left in the active set."""
        return self.admission is not None and len(self.active) >= self.admission

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def acquire(self, process: Any, now: int) -> str:
        """*process* asks for the lock: :data:`GRANT` on a free lock, else
        it joins the active set (:data:`SPIN` or :data:`QUEUE`) or, past
        the admission bound, is culled (:data:`CULL`)."""
        if self.holder_pid is None:
            self.note_acquired(process.pid, now, contended=False)
            return GRANT
        self.note_wait_started(process.pid, now)
        return self._join(process)

    def _join(self, process: Any) -> str:
        """A waiter joins the active set, or the culled set past the
        admission bound (the Malthusian restriction)."""
        if self._active_full():
            self.note_culled(process)
            return CULL
        self.active.append(process)
        return self._wait_outcome

    def readmit(self, now: int) -> Any:
        """Feed one live culled waiter back after a release, or ``None``.

        A lock gone free is granted to it directly, so no barging window
        opens; the waiter then holds the lock.  Otherwise, if the active
        set has room, a mutex waiter rejoins the FIFO asleep and a
        spinlock waiter is returned to be woken to retry its acquire.
        """
        if not self.culled:
            return None
        direct = self.holder_pid is None
        if not direct and self._active_full():
            return None
        waiter = pop_live(self.culled, self._readmit_at)
        if waiter is None:
            return None
        self.readmissions += 1
        if direct:
            self.note_acquired(waiter.pid, now, contended=True)
        elif self._wait_outcome is QUEUE:
            self.active.append(waiter)
        return waiter

    def detach(self, process: Any) -> None:
        """Forget a killed waiter: its wait-set entry and its wait anchor."""
        if process in self.active:
            self.active.remove(process)
        elif process in self.culled:
            self.culled.remove(process)
        self.wait_started.pop(process.pid, None)

    # ------------------------------------------------------------------
    # Telemetry hooks
    # ------------------------------------------------------------------

    def note_wait_started(self, pid: int, now: int) -> None:
        """Record that *pid* started waiting at *now*.

        Samples the waiters histogram with the queue depth the arriving
        process observed.  ``setdefault`` keeps the *earliest* wait start
        across preempt-and-retry cycles so hand-off latency measures the
        full wall-clock wait, but each retry re-samples the histogram
        (each is a fresh observation of the queue).
        """
        self.wait_hist[self.waiting] = self.wait_hist.get(self.waiting, 0) + 1
        self.wait_started.setdefault(pid, now)

    def note_culled(self, process: Any) -> None:
        """Record that *process* was passivated into the culled set."""
        self.culled.append(process)
        self.passivations += 1
        if len(self.culled) > self.culled_peak:
            self.culled_peak = len(self.culled)

    def note_acquired(self, pid: int, now: int, contended: bool) -> None:
        """Record that *pid* took the lock at time *now*."""
        if self.holder_pid is not None:
            raise RuntimeError(
                f"{self._label} {self.name!r}: acquire by {pid} while held "
                f"by {self.holder_pid}"
            )
        self.holder_pid = pid
        self._hold_started(now)
        self.acquisitions += 1
        if contended:
            self.contended_acquisitions += 1
        started = self.wait_started.pop(pid, None)
        if started is not None:
            # The process waited at some point (possibly across a
            # preempt-and-retry cycle that ends in a free-lock acquire).
            latency = now - started
            self.total_wait_time += latency
            self.handoffs += 1
            self.handoff_latency_total += latency
            if latency > self.handoff_latency_max:
                self.handoff_latency_max = latency
        elif not contended:
            # Uncontended acquire: the arriving process saw zero waiters.
            self.wait_hist[0] = self.wait_hist.get(0, 0) + 1

    def _hold_started(self, now: int) -> None:
        """Per-kind hold-time hook (a mutex keeps no hold-time telemetry)."""

    def _clear_holder(self, pid: int) -> None:
        """The shared half of ``note_released``: *pid* must be the holder."""
        if self.holder_pid != pid:
            raise RuntimeError(
                f"{self._label} {self.name!r}: release by {pid} but held "
                f"by {self.holder_pid}"
            )
        self.holder_pid = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} holder={self.holder_pid} "
            f"active={len(self.active)} culled={len(self.culled)}>"
        )
