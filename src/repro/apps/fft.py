"""fft: "A parallel single-dimension Fast Fourier Transform, based on an
algorithm by Norton and Silberger ...  This FFT algorithm has several loops
that were broken into parts to provide parallelism."

Modelled as log-many butterfly phases.  Each phase is a set of loop-piece
tasks of roughly equal size (jittered for cache/data effects); a phase
barrier (expressed as a task-queue phase boundary) separates stages, which
is what makes fft sensitive to straggling preempted processes -- the effect
behind its large Figure 4 gain under process control.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import PhasedApplication
from repro.sim import units
from repro.sync import SpinLock
from repro.threads.task import Task, compute_task, critical_section


class FFT(PhasedApplication):
    """Phased one-dimensional FFT.

    Args:
        phases: butterfly stages (log2 of the problem size).
        tasks_per_phase: loop pieces per stage.
        task_cost: compute per piece (jittered +/-25%).
        critical_cost: spinlock-held twiddle/bookkeeping per piece.
        scale: multiplies all compute costs.
    """

    def __init__(
        self,
        app_id: str = "fft",
        phases: int = 14,
        tasks_per_phase: int = 48,
        task_cost: int = units.ms(480),
        critical_cost: int = units.ms(12),
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if phases < 1 or tasks_per_phase < 1:
            raise ValueError("phases and tasks_per_phase must be >= 1")
        self._n_phases = phases
        self.tasks_per_phase = tasks_per_phase
        self.task_cost = max(1, int(task_cost * scale))
        self.critical_cost = max(0, int(critical_cost * scale))
        self.stage_lock = SpinLock(f"{app_id}.stage")
        self._section = critical_section(self.stage_lock, self.critical_cost)
        self._costs = [
            [self._jitter(self.task_cost, 0.25) for _ in range(tasks_per_phase)]
            for _ in range(phases)
        ]

    @property
    def n_phases(self) -> int:
        return self._n_phases

    def phase_tasks(self, phase: int) -> List[Task]:
        return [
            compute_task(cost=cost, section=self._section, phase=phase)
            for cost in self._costs[phase]
        ]

    def total_work(self) -> int:
        return sum(sum(row) for row in self._costs) + (
            self._n_phases * self.tasks_per_phase * self.critical_cost
        )

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "fft",
            "phases": self._n_phases,
            "tasks_per_phase": self.tasks_per_phase,
            "task_cost_us": self.task_cost,
            "critical_cost_us": self.critical_cost,
        }
