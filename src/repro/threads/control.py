"""Per-application process-control state.

One :class:`ControlState` is shared (simulated shared memory) by all worker
processes of an application.  Workers consult and update it at safe
suspension points; the mutations between simulation yields are atomic, just
as short lock-protected updates are on the real machine, where
:mod:`repro.realsys` runs the same transitions over shared memory.
"""

from __future__ import annotations

from typing import List, Optional

#: Signal payloads used by the suspension protocol.
RESUME = "pc-resume"
FINISH = "pc-finish"


class ControlState:
    """Shared control block for one application's worker processes.

    Attributes:
        target: the number of runnable processes the server most recently
            told this application to use (``None`` until the first poll,
            and again after a stale-target expiry released control).
        runnable_workers: workers currently not suspended by control.
        parked / n_parked: the suspended workers, FIFO ("kept on a queue",
            Section 5): the first ``n_parked`` of one slot per worker, a
            layout shared memory holds as well.
        closed: set at finish or shutdown; nothing parks afterwards.
        last_poll: simulation time of the last server poll.
        last_fresh: time of the last poll that returned a fresh target.
        poll_gap: backoff-adjusted effective poll interval (``None`` =
            use the configured base interval).
        polls / suspensions / resumes: statistics for the reports.
        failed_polls / target_expiries: degradation statistics.
    """

    # One per tenant: a fixed layout, no per-instance ``__dict__``.
    __slots__ = (
        "target",
        "runnable_workers",
        "parked",
        "n_parked",
        "closed",
        "last_poll",
        "last_fresh",
        "poll_gap",
        "consecutive_failures",
        "first_failure",
        "polls",
        "suspensions",
        "resumes",
        "failed_polls",
        "target_expiries",
    )

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError("an application needs at least one worker")
        self.target: Optional[int] = None
        self.runnable_workers = n_workers
        self.parked: List[int] = [0] * n_workers
        self.n_parked = 0
        self.closed = False
        self.last_poll: Optional[int] = None
        self.last_fresh: Optional[int] = None
        self.poll_gap: Optional[int] = None
        self.consecutive_failures = 0
        self.first_failure: Optional[int] = None
        self.polls = 0
        self.suspensions = 0
        self.resumes = 0
        self.failed_polls = 0
        self.target_expiries = 0

    def note_fresh(self, target: int, now: int) -> None:
        """Adopt a fresh server target; any backoff state is reset."""
        self.target = target
        self.polls += 1
        self.last_fresh = now
        self.poll_gap = None
        self.consecutive_failures = 0
        self.first_failure = None

    def note_fresh_deferred(self, now: int) -> None:
        """Record a fresh poll *without* adopting the width.

        Deferred-adoption runtimes (fork-join, pipeline) reset their
        backoff state the moment the board answers, but move
        :attr:`target` only when their workers actually conform at a safe
        point -- the package does that part.
        """
        self.polls += 1
        self.last_fresh = now
        self.poll_gap = None
        self.consecutive_failures = 0
        self.first_failure = None

    def note_failure(
        self,
        now: int,
        base_gap: int,
        max_gap: int,
        ttl: int,
        crash_epoch: Optional[int] = None,
    ) -> bool:
        """Record a failed/stale poll: back off (bounded exponential) and
        check the stale-target TTL.

        *crash_epoch* is the board's recorded server-death time, when one
        is known: the TTL then ages from the crash instant rather than
        from our last successful read, so every worker of every
        application releases a dead server's target on the same schedule
        no matter when it last happened to poll.

        Returns ``True`` when the TTL expired on this failure, in which
        case the target is released (``None``) so the application restores
        full parallelism rather than running forever at a stale width.
        """
        self.failed_polls += 1
        if self.consecutive_failures == 0:
            self.first_failure = now
        self.consecutive_failures += 1
        self.poll_gap = min(base_gap << self.consecutive_failures, max_gap)
        anchor = self.last_fresh if self.last_fresh is not None else self.first_failure
        if crash_epoch is not None:
            # The word was good until the server died, and nothing read
            # after the death is fresh: age from the crash instant -- or
            # from an even earlier failure streak (a wedged server that
            # then died must not have its countdown reset by the death
            # notice).
            anchor = crash_epoch
            if self.first_failure is not None:
                anchor = min(anchor, self.first_failure)
        if self.target is not None and now - anchor >= ttl:
            self.target = None
            self.target_expiries += 1
            return True
        return False

    def park(self, worker: int, width: Optional[int]) -> bool:
        """Count *worker* out and queue it while more than ``max(width, 1)``
        workers run; ``False`` (and no change) otherwise.  Never the last
        runnable worker: "each application has at least one runnable
        process to avoid starvation".  A closed block parks nobody, nor
        does a ``None`` width (no target)."""
        if self.closed or width is None or self.runnable_workers <= max(width, 1):
            return False
        self.runnable_workers -= 1
        self.parked[self.n_parked] = worker
        self.n_parked += 1
        self.suspensions += 1
        return True

    def unpark(self) -> Optional[int]:
        """Take the longest-parked worker back while under target, counting
        the resume.  A released (``None``) target wakes anyone parked: the
        degraded mode is full parallelism, not a frozen stale width."""
        target = self.target
        if self.n_parked and (target is None or self.runnable_workers < target):
            self.resumes += 1
            return self.wake_next()
        return None

    def close(self) -> None:
        """The application finished (or its pool shut down): stop parking."""
        self.closed = True

    def wake_next(self) -> Optional[int]:
        """Take the longest-parked worker back for the finish or shutdown
        drain (not a resume); ``None`` once nobody is parked."""
        n = self.n_parked
        if not n:
            return None
        parked = self.parked
        worker = parked[0]
        parked[: n - 1] = parked[1:n]
        self.n_parked = n - 1
        self.runnable_workers += 1
        return worker

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} target={self.target} "
            f"runnable={self.runnable_workers} parked={self.n_parked}>"
        )
