"""Synchronization primitives for simulated processes.

Each primitive owns its transitions: ``acquire``, ``release``,
``readmit`` and the like decide over the primitive's own state and answer
with a module constant, a process or ``None``.  The kernel
(:mod:`repro.kernel.kernel`) applies each answer: it blocks and wakes
processes, marks processors spinning and charges the costs.

Two families matter for the paper:

* :class:`~repro.sync.spinlock.SpinLock` -- busy-waiting locks.  A process
  that fails to acquire one *keeps its processor and burns cycles*.  When the
  lock holder is preempted, every spinner wastes its whole quantum -- this is
  degradation source #1 in Section 2 of the paper.
* Blocking primitives (:class:`~repro.sync.mutex.Mutex`,
  :class:`~repro.sync.semaphore.Semaphore`,
  :class:`~repro.sync.barrier.Barrier`,
  :class:`~repro.sync.condvar.ConditionVariable`) -- waiters give up the
  processor and sit on the primitive's queue.
"""

from repro.sync.spinlock import SpinLock
from repro.sync.mutex import Mutex
from repro.sync.semaphore import Semaphore
from repro.sync.barrier import Barrier
from repro.sync.condvar import ConditionVariable
from repro.sync.spinbarrier import SpinBarrier, spin_barrier_wait
from repro.sync.stats import LockStats

__all__ = [
    "SpinLock",
    "Mutex",
    "LockStats",
    "Semaphore",
    "Barrier",
    "ConditionVariable",
    "SpinBarrier",
    "spin_barrier_wait",
]
