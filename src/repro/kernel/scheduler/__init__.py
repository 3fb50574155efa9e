"""Pluggable kernel scheduling policies.

The paper's experiments run on UMAX's shared FIFO run queue with time
quanta (:class:`~repro.kernel.scheduler.fifo.FifoScheduler`).  The related
work of Section 3 and the future work of Section 7 are implemented as
alternative policies so the benchmark suite can compare them:

- :class:`~repro.kernel.scheduler.fifo.FifoScheduler` -- shared FIFO run
  queue, round-robin quanta (the UMAX baseline).
- :class:`~repro.kernel.scheduler.decay.PriorityDecayScheduler` -- UMAX/BSD
  style CPU-usage priority decay; explains the paper's observation that
  freshly started applications (matmul in Figure 4) are favoured.
- :class:`~repro.kernel.scheduler.coscheduling.CoschedulingScheduler` --
  Ousterhout's gang scheduling.
- :class:`~repro.kernel.scheduler.nopreempt.NoPreemptAwareScheduler` --
  honours Zahorjan-style no-preempt flags and deprioritizes spinners whose
  lock holder is preempted.
- :class:`~repro.kernel.scheduler.groups.ProcessGroupScheduler` -- Edler et
  al. (NYU Ultracomputer) process groups with per-group policies.
- :class:`~repro.kernel.scheduler.affinity.AffinityScheduler` -- Lazowska &
  Squillante cache-affinity scheduling.
- :class:`~repro.kernel.scheduler.partition.SpacePartitionScheduler` -- the
  paper's Section 7 processor-group space partitioning with a high-level
  policy module.
"""

from repro.kernel.scheduler.base import SchedulerPolicy
from repro.kernel.scheduler.fifo import FifoScheduler
from repro.kernel.scheduler.decay import PriorityDecayScheduler
from repro.kernel.scheduler.coscheduling import CoschedulingScheduler
from repro.kernel.scheduler.nopreempt import NoPreemptAwareScheduler
from repro.kernel.scheduler.groups import GroupPolicy, ProcessGroupScheduler
from repro.kernel.scheduler.affinity import AffinityScheduler
from repro.kernel.scheduler.partition import SpacePartitionScheduler

__all__ = [
    "SchedulerPolicy",
    "FifoScheduler",
    "PriorityDecayScheduler",
    "CoschedulingScheduler",
    "NoPreemptAwareScheduler",
    "GroupPolicy",
    "ProcessGroupScheduler",
    "AffinityScheduler",
    "SpacePartitionScheduler",
]
