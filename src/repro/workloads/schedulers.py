"""Scheduler registry: name -> policy instance.

Experiments refer to kernel policies by name so scenario descriptions stay
declarative and printable.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.kernel.scheduler import (
    AffinityScheduler,
    CoschedulingScheduler,
    FifoScheduler,
    NoPreemptAwareScheduler,
    PriorityDecayScheduler,
    ProcessGroupScheduler,
    SchedulerPolicy,
    SpacePartitionScheduler,
)

_FACTORIES: Dict[str, Callable[[], SchedulerPolicy]] = {
    "fifo": FifoScheduler,
    "decay": PriorityDecayScheduler,
    "coscheduling": CoschedulingScheduler,
    "nopreempt": NoPreemptAwareScheduler,
    "groups": ProcessGroupScheduler,
    "affinity": AffinityScheduler,
    "partition": SpacePartitionScheduler,
}

#: Names accepted by :func:`make_scheduler` / ``Scenario.scheduler``.
SCHEDULER_NAMES = tuple(sorted(_FACTORIES))


def make_scheduler(name: str) -> SchedulerPolicy:
    """Build a fresh scheduler policy by name."""
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown scheduler {name!r}; valid names: {', '.join(SCHEDULER_NAMES)}"
        )
    return factory()
