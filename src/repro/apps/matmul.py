"""matmul: "A simple matrix multiplication algorithm.  The multiplication
is parallelized by splitting the multiplicand by rows."

One phase of independent row-block tasks; each block finishes with a very
short spinlock-protected bookkeeping update.  This is the paper's most
scalable application (near-linear speedup to 16 processors) and the one
least hurt by multiprogramming in Figure 4.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import Application
from repro.sim import units
from repro.sync import SpinLock
from repro.threads.task import Task, compute_task, critical_section


class MatMul(Application):
    """Row-partitioned matrix multiplication.

    The kernel streams through its rows, so little of its working set is
    worth re-fetching after a context switch: ``cache_footprint`` is small,
    which is part of why matmul is the application least hurt by
    multiprogramming in Figure 4.

    Args:
        n_tasks: number of row blocks.
        task_cost: compute per block (jittered +/-10% for data dependence).
        critical_cost: spinlock-held bookkeeping at the end of each block.
        scale: multiplies all compute costs (benchmarks shrink with this).
    """

    cache_footprint = 0.35

    def __init__(
        self,
        app_id: str = "matmul",
        n_tasks: int = 1500,
        task_cost: int = units.ms(180),
        critical_cost: int = units.us(600),
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if n_tasks < 1:
            raise ValueError("n_tasks must be >= 1")
        self.n_tasks = n_tasks
        self.task_cost = max(1, int(task_cost * scale))
        self.critical_cost = max(0, int(critical_cost * scale))
        self.result_lock = SpinLock(f"{app_id}.result")
        self._section = critical_section(self.result_lock, self.critical_cost)
        self._costs = [
            self._jitter(self.task_cost, 0.10) for _ in range(n_tasks)
        ]

    def initial_tasks(self) -> List[Task]:
        return [
            compute_task(cost=cost, section=self._section)
            for cost in self._costs
        ]

    def total_work(self) -> int:
        return sum(self._costs) + self.n_tasks * self.critical_cost

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "matmul",
            "n_tasks": self.n_tasks,
            "task_cost_us": self.task_cost,
            "critical_cost_us": self.critical_cost,
        }
