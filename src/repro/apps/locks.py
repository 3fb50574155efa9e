"""Lock-saturation applications: the scalability-collapse workload.

Every task is one iteration of the canonical contention microbenchmark --
*think* for a while outside the lock, then update shared state inside a
short critical section:

    think (parallel) -> acquire -> critical section (serial) -> release

With ``T`` the think time and ``C`` the critical-section time, the lock
saturates once roughly ``T / C + 1`` threads run: the serial section is
always busy and every extra thread only deepens the spin queue.  Past
that knee, a spinlock with a non-zero ``contention_penalty`` (hand-off
cost grows with the number of spinners still hammering the cache line)
*collapses* -- aggregate throughput falls as threads are added, even
with zero preemption.  This is the modern sequel to the paper's
spinlock-preemption story (Malthusian locks; Dice & Kogan 2019), and the
``admission`` knob on the lock is the remedy the literature prescribes:
cull the excess waiters at the lock instead of (or as well as) sizing
the machine.

:class:`LockSaturationApp` exhibits the phenomenon; it exposes its lock
via :meth:`locks` so scenario-level restriction knobs and the telemetry
snapshotter can reach it.  ``blocking=True`` swaps the spinlock for a
mutex -- no cycles burned, no storm, but hand-off latency still grows
with queue depth, which is the contrast the experiment figure draws.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.apps.base import Application
from repro.kernel import syscalls as sc
from repro.sync import Mutex, SpinLock
from repro.threads.task import Task


class LockSaturationApp(Application):
    """Think/critical-section iterations hammering one shared lock."""

    def __init__(
        self,
        app_id: str = "locks",
        n_tasks: int = 64,
        think_time: int = 600,
        cs_time: int = 150,
        contention_penalty: int = 40,
        admission: Optional[int] = None,
        blocking: bool = False,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if think_time < 0 or cs_time < 1:
            raise ValueError("think_time must be >= 0 and cs_time >= 1")
        self.n_tasks = n_tasks
        self.think_time = think_time
        self.cs_time = cs_time
        self.jitter_fraction = jitter
        self.blocking = blocking
        if blocking:
            self.lock = Mutex(f"{app_id}.lock", admission=admission)
            acquire, release = sc.MutexAcquire(self.lock), sc.MutexRelease(self.lock)
        else:
            self.lock = SpinLock(
                f"{app_id}.lock",
                contention_penalty=contention_penalty,
                admission=admission,
            )
            acquire, release = sc.SpinAcquire(self.lock), sc.SpinRelease(self.lock)
        #: The critical section's syscall records, built once and yielded
        #: by every iteration (syscall records are immutable values).
        self._section = (acquire, sc.Compute(cs_time), release)

    def saturation_knee(self) -> float:
        """Thread count at which the critical section stays always busy."""
        return self.think_time / self.cs_time + 1.0

    def locks(self) -> tuple:
        return (self.lock,)

    def initial_tasks(self) -> List[Task]:
        return [
            Task(
                name=None,
                body=self._iteration(
                    self._jitter(self.think_time, self.jitter_fraction)
                    if self.think_time
                    else 0
                ),
            )
            for _ in range(self.n_tasks)
        ]

    def _iteration(self, think: int):
        section = self._section

        def body():
            acquire, critical, release = section
            if think:
                yield sc.Compute(think)
            yield acquire
            yield critical
            yield release

        return body

    def total_work(self) -> int:
        return self.n_tasks * (self.think_time + self.cs_time)

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "locks",
            "n_tasks": self.n_tasks,
            "think_time_us": self.think_time,
            "cs_time_us": self.cs_time,
            "blocking": self.blocking,
            "admission": self.lock.admission,
            "saturation_knee": round(self.saturation_knee(), 2),
        }
