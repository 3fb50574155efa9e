"""Per-tenant compliance telemetry.

The paper assumes every application *can* hand processors back at a safe
suspension point shortly after being asked.  Real runtimes differ: a
task-queue package complies within a task, a fork-join runtime only at
the next phase barrier, a pipeline only when a stage drains, and an
uncontrolled tenant never.  The :class:`ComplianceTracker` measures that
difference as two figures every runtime maintains at its safe points:

* **adoption lag** -- time from the server *publishing* a shrink target
  to the runtime's runnable worker count actually conforming to it;
* **residual overshoot** -- workers kept runnable above the published
  target at the moment of a safe point (nonzero while adoption is
  pending, permanently nonzero for a tenant whose structural floor
  exceeds its grant).

A :class:`ComplianceReport` snapshot is piggybacked on every control
poll through the :class:`~repro.kernel.ipc.ControlBoard`'s reverse
channel -- a free shared-memory write, like the demand and QoS words --
and consumed by the ``compliance`` allocation policy
(:mod:`repro.core.allocation`).  All tracker updates
are host-side bookkeeping between simulation yields: they add no events
and cannot move golden digests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class ComplianceReport:
    """One tenant's compliance snapshot, as written to the board.

    Attributes:
        runtime: the reporting package's runtime name (``"taskqueue"``,
            ``"forkjoin"``, ``"pipeline"``).
        floor: the runtime's declared structural floor -- the worker
            count below which it cannot shrink (1 for a task queue, one
            per stage for a pipeline).  Overshoot at or below the floor
            is structural, not misbehaviour.
        overshoot: runnable workers above the *published* target at the
            tenant's most recent safe point (0.0 = fully compliant).
        adoption_lag_us: the most recent shrink's publish-to-conformance
            lag; ``None`` until the first adoption completes.
        max_adoption_lag_us: worst adoption lag observed so far.
        adoptions: completed target adoptions (shrinks fully honoured).
        reported_at: board timestamp of this report.
    """

    runtime: str
    floor: int
    overshoot: float
    adoption_lag_us: Optional[int]
    max_adoption_lag_us: int
    adoptions: int
    reported_at: int


class ComplianceTracker:
    """Accumulates one runtime's compliance figures at its safe points.

    The tracker is deliberately passive: runtimes call
    :meth:`note_published` whenever they *read* a target off the board,
    and :meth:`note_conformed` whenever their runnable count is at or
    below the pending target.  Everything else is arithmetic.
    """

    # One per tenant: a fixed layout, no per-instance ``__dict__``.
    __slots__ = (
        "_pending",
        "adoptions",
        "last_adoption_lag",
        "max_adoption_lag",
        "overshoot",
        "overshoot_peak",
    )

    def __init__(self) -> None:
        # Pending shrink: (target, published_at), cleared on conformance.
        self._pending: Optional[Tuple[int, int]] = None
        # Adoption-lag statistics.
        self.adoptions = 0
        self.last_adoption_lag: Optional[int] = None
        self.max_adoption_lag = 0
        # Overshoot statistics (sampled at polls/safe points).
        self.overshoot = 0.0
        self.overshoot_peak = 0.0

    # -- target adoption ----------------------------------------------------

    def note_published(
        self, target: int, runnable: int, now: int,
        published_at: Optional[int] = None,
    ) -> None:
        """A target was read off the board with *runnable* workers up.

        Samples the residual overshoot, and (for a shrink the runtime has
        not yet honoured) starts -- or keeps -- the adoption clock from
        the server's publish instant *published_at* (defaulting to the
        read instant when the board does not know).
        """
        overshoot = float(max(0, runnable - target))
        self.overshoot = overshoot
        if overshoot > self.overshoot_peak:
            self.overshoot_peak = overshoot
        if runnable <= target:
            # Already conforming: the latest published word supersedes
            # any older pending shrink (a growth back to 6 cancels an
            # unadopted shrink to 2 -- no adoption happened).
            self._pending = None
            return
        since = published_at if published_at is not None else now
        pending = self._pending
        if pending is None or pending[0] != target:
            # A new shrink (or a different target) restarts the clock at
            # its own publish instant.
            self._pending = (target, since)

    def note_conformed(self, runnable: int, now: int) -> None:
        """The runtime's runnable count reached the pending target."""
        pending = self._pending
        if pending is None:
            return
        target, since = pending
        if runnable > target:
            return
        lag = max(0, now - since)
        self._pending = None
        self.adoptions += 1
        self.last_adoption_lag = lag
        if lag > self.max_adoption_lag:
            self.max_adoption_lag = lag
        self.overshoot = 0.0

    def note_released(self) -> None:
        """Control released the target (TTL expiry): nothing is pending."""
        self._pending = None
        self.overshoot = 0.0

    @property
    def pending_target(self) -> Optional[int]:
        """The shrink target awaiting adoption, if any."""
        return self._pending[0] if self._pending is not None else None

    # -- reporting ----------------------------------------------------------

    def report(self, runtime: str, floor: int, now: int) -> ComplianceReport:
        """A board-ready snapshot of the current figures."""
        return ComplianceReport(
            runtime=runtime,
            floor=floor,
            overshoot=self.overshoot,
            adoption_lag_us=self.last_adoption_lag,
            max_adoption_lag_us=self.max_adoption_lag,
            adoptions=self.adoptions,
            reported_at=now,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ComplianceTracker overshoot={self.overshoot} "
            f"adoptions={self.adoptions} pending={self._pending}>"
        )
