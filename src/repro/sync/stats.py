"""Picklable per-lock contention telemetry snapshots.

:class:`~repro.sync.spinlock.SpinLock` and
:class:`~repro.sync.mutex.Mutex` accumulate raw counters in place as
their transitions run; a :class:`LockStats` freezes those counters into
a plain dataclass that survives pickling across the parallel sweep
runner and lands in :class:`~repro.workloads.runner.ScenarioResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict


@dataclass(frozen=True, slots=True)
class LockStats:
    """Frozen contention telemetry for one lock.

    Times are simulated microseconds.  ``waiters_hist`` maps the queue
    depth observed at each wait entry (0 for uncontended acquires) to how
    many acquire attempts observed it.
    """

    name: str
    kind: str  # "spin" or "mutex"
    acquisitions: int = 0
    contended_acquisitions: int = 0
    holder_preempted_encounters: int = 0
    total_spin_time: int = 0
    total_hold_time: int = 0
    total_wait_time: int = 0
    handoffs: int = 0
    handoff_latency_max: int = 0
    waiters_hist: Dict[int, int] = field(default_factory=dict)
    passivations: int = 0
    readmissions: int = 0
    culled_peak: int = 0
    admission: Any = None

    @property
    def handoff_latency_mean(self) -> float:
        """Mean contended-acquire wait in microseconds (0 if none)."""
        if not self.handoffs:
            return 0.0
        return self.total_wait_time / self.handoffs

    @property
    def waiters_peak(self) -> int:
        """Deepest queue any acquire attempt observed."""
        return max(self.waiters_hist, default=0)

    @classmethod
    def from_lock(cls, lock: Any) -> "LockStats":
        """Snapshot a live SpinLock or Mutex."""
        return cls(
            name=lock.name,
            kind=lock.kind,
            acquisitions=lock.acquisitions,
            contended_acquisitions=lock.contended_acquisitions,
            holder_preempted_encounters=lock.holder_preempted_encounters,
            total_spin_time=lock.total_spin_time,
            total_hold_time=lock.total_hold_time,
            total_wait_time=lock.total_wait_time,
            handoffs=lock.handoffs,
            handoff_latency_max=lock.handoff_latency_max,
            waiters_hist=dict(lock.wait_hist),
            passivations=lock.passivations,
            readmissions=lock.readmissions,
            culled_peak=lock.culled_peak,
            admission=lock.admission,
        )

    def merged(self, other: "LockStats") -> "LockStats":
        """Combine two snapshots (for aggregating a lock family)."""
        hist = dict(self.waiters_hist)
        for depth, count in other.waiters_hist.items():
            hist[depth] = hist.get(depth, 0) + count
        return LockStats(
            name=self.name,
            kind=self.kind,
            acquisitions=self.acquisitions + other.acquisitions,
            contended_acquisitions=(
                self.contended_acquisitions + other.contended_acquisitions
            ),
            holder_preempted_encounters=(
                self.holder_preempted_encounters
                + other.holder_preempted_encounters
            ),
            total_spin_time=self.total_spin_time + other.total_spin_time,
            total_hold_time=self.total_hold_time + other.total_hold_time,
            total_wait_time=self.total_wait_time + other.total_wait_time,
            handoffs=self.handoffs + other.handoffs,
            handoff_latency_max=max(
                self.handoff_latency_max, other.handoff_latency_max
            ),
            waiters_hist=hist,
            passivations=self.passivations + other.passivations,
            readmissions=self.readmissions + other.readmissions,
            culled_peak=max(self.culled_peak, other.culled_peak),
            admission=self.admission,
        )
