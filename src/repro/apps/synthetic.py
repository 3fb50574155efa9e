"""Synthetic applications for ablation studies.

Each isolates one of Section 2's degradation mechanisms:

- :class:`UniformApp` -- a knob-everything app: one phase of identical
  tasks with a configurable critical-section fraction.
- :class:`BarrierHeavyApp` -- many small phases: isolates the straggler /
  producer-consumer effect (point 2).
- :class:`CriticalSectionApp` -- long lock-held fraction: isolates
  preemption inside critical sections (point 1).
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import Application, PhasedApplication
from repro.sim import units
from repro.sync import SpinLock
from repro.threads.task import Task, compute_task, critical_section


class UniformApp(Application):
    """One phase of identical tasks; the simplest calibration workload."""

    def __init__(
        self,
        app_id: str = "uniform",
        n_tasks: int = 200,
        task_cost: int = units.ms(100),
        critical_fraction: float = 0.0,
        jitter: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        if not 0.0 <= critical_fraction < 1.0:
            raise ValueError("critical_fraction must be in [0, 1)")
        self.n_tasks = n_tasks
        self.task_cost = task_cost
        self.critical_cost = int(task_cost * critical_fraction)
        self.compute_cost = task_cost - self.critical_cost
        self.jitter_fraction = jitter
        self.lock = SpinLock(f"{app_id}.lock")
        self._section = critical_section(self.lock, self.critical_cost)

    def initial_tasks(self) -> List[Task]:
        tasks = [
            compute_task(
                cost=self._jitter(self.compute_cost, self.jitter_fraction),
                section=self._section,
            )
            for _ in range(self.n_tasks)
        ]
        # Every cost is drawn: release the jitter stream now rather than
        # at the finish.
        self.streams.clear()
        return tasks

    def total_work(self) -> int:
        return self.n_tasks * self.task_cost

    def locks(self) -> tuple:
        return (self.lock,)

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "uniform",
            "n_tasks": self.n_tasks,
            "task_cost_us": self.task_cost,
            "critical_cost_us": self.critical_cost,
        }


class BarrierHeavyApp(PhasedApplication):
    """Many short phases: a pure straggler-sensitivity probe."""

    def __init__(
        self,
        app_id: str = "barrier-heavy",
        phases: int = 60,
        tasks_per_phase: int = 16,
        task_cost: int = units.ms(40),
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if phases < 1 or tasks_per_phase < 1:
            raise ValueError("phases and tasks_per_phase must be >= 1")
        self._n_phases = phases
        self.tasks_per_phase = tasks_per_phase
        self.task_cost = task_cost

    @property
    def n_phases(self) -> int:
        return self._n_phases

    def phase_tasks(self, phase: int) -> List[Task]:
        return [
            compute_task(cost=self.task_cost, phase=phase)
            for _ in range(self.tasks_per_phase)
        ]

    def total_work(self) -> int:
        return self._n_phases * self.tasks_per_phase * self.task_cost

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "barrier-heavy",
            "phases": self._n_phases,
            "tasks_per_phase": self.tasks_per_phase,
            "task_cost_us": self.task_cost,
        }


class CriticalSectionApp(UniformApp):
    """A fine-grained application: a large share of each task runs inside a
    spinlock -- "critical sections are entered frequently and are fairly
    large relative to the grain size" (Section 2)."""

    def __init__(
        self,
        app_id: str = "cs-heavy",
        n_tasks: int = 400,
        task_cost: int = units.ms(20),
        critical_fraction: float = 0.15,
        seed: int = 0,
    ) -> None:
        super().__init__(
            app_id=app_id,
            n_tasks=n_tasks,
            task_cost=task_cost,
            critical_fraction=critical_fraction,
            seed=seed,
        )

    def describe(self) -> Dict[str, object]:
        info = super().describe()
        info["kind"] = "cs-heavy"
        return info
