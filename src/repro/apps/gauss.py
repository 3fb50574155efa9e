"""gauss: "A parallel Gaussian elimination algorithm.  The solution is
computed using partial pivoting and back substitution, and the row
elimination is parallelized."

Each elimination step is a *serial* pivot-selection phase followed by a
*parallel* row-elimination phase over the remaining rows; both the task
count and the per-task cost shrink as elimination proceeds.  The dense
alternation of serial and parallel phases makes gauss the application most
punished by uncontrolled multiprogramming (66 s vs 28 s in the paper's
Figure 4/5 discussion) -- every straggling preempted process stalls a
barrier.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import PhasedApplication
from repro.sim import units
from repro.sync import SpinLock
from repro.threads.task import Task, compute_task, critical_section


class Gauss(PhasedApplication):
    """Gaussian elimination with partial pivoting.

    Phases alternate: even phases are the serial pivot search for step
    ``k = phase // 2``; odd phases are that step's parallel eliminations.

    Args:
        n_steps: elimination steps (matrix dimension / row-block count).
        elim_cost: elimination task cost at step 0; shrinks linearly to
            ``elim_cost / n_steps`` by the last step (jittered +/-10%).
        rows_per_task: divisor from remaining rows to elimination tasks.
        pivot_cost: the serial pivot phase's compute.
        critical_cost: spinlock-held multiplier/row bookkeeping per task.
        scale: multiplies all compute costs.
    """

    def __init__(
        self,
        app_id: str = "gauss",
        n_steps: int = 48,
        elim_cost: int = units.ms(300),
        rows_per_task: int = 1,
        pivot_cost: int = units.ms(25),
        critical_cost: int = units.ms(6),
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if rows_per_task < 1:
            raise ValueError("rows_per_task must be >= 1")
        self.n_steps = n_steps
        self.elim_cost = max(1, int(elim_cost * scale))
        self.rows_per_task = rows_per_task
        self.pivot_cost = max(1, int(pivot_cost * scale))
        self.critical_cost = max(0, int(critical_cost * scale))
        self.pivot_lock = SpinLock(f"{app_id}.pivot")
        self._section = critical_section(self.pivot_lock, self.critical_cost)

    @property
    def n_phases(self) -> int:
        return 2 * self.n_steps

    def _tasks_at_step(self, step: int) -> int:
        remaining_rows = self.n_steps - step
        return max(1, remaining_rows // self.rows_per_task)

    def _cost_at_step(self, step: int) -> int:
        fraction = (self.n_steps - step) / self.n_steps
        return max(1, int(self.elim_cost * fraction))

    def phase_tasks(self, phase: int) -> List[Task]:
        step = phase // 2
        if phase % 2 == 0:
            # Serial pivot search (partial pivoting).
            return [
                compute_task(cost=self.pivot_cost, phase=phase)
            ]
        cost = self._cost_at_step(step)
        return [
            compute_task(
                cost=self._jitter(cost, 0.10, stream=f"elim{step}"),
                section=self._section,
                phase=phase,
            )
            for _ in range(self._tasks_at_step(step))
        ]

    def total_work(self) -> int:
        total = 0
        for step in range(self.n_steps):
            n_tasks = self._tasks_at_step(step)
            total += self.pivot_cost
            total += n_tasks * (self._cost_at_step(step) + self.critical_cost)
        return total

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "gauss",
            "n_steps": self.n_steps,
            "elim_cost_us": self.elim_cost,
            "pivot_cost_us": self.pivot_cost,
            "critical_cost_us": self.critical_cost,
        }
