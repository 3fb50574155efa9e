"""sort: "A parallel merge sort algorithm, simultaneously sorting a number
of small lists of numbers with heapsort, and then merging pairs of sorted
lists in parallel until the final sorted list is achieved."

Phase 0 heapsorts the sublists in parallel; each merge level halves the
task count and doubles the task size, ending in a single serial merge.
The shrinking-parallelism tail caps the speedup well below the machine
width -- sort has the flattest curve in the paper's Figure 3.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import PhasedApplication
from repro.sim import units
from repro.sync import SpinLock
from repro.threads.task import Task, compute_task, critical_section


class MergeSort(PhasedApplication):
    """Parallel merge sort over ``n_lists`` sublists (a power of two).

    Args:
        n_lists: number of sublists heapsorted in phase 0.
        sort_cost: per-sublist heapsort compute (jittered +/-15%).
        merge_base_cost: per-merge compute at the first merge level; it
            doubles every level (merged runs double in length).
        critical_cost: spinlock-held run bookkeeping per task.
        scale: multiplies all compute costs.
    """

    cache_footprint = 0.8

    def __init__(
        self,
        app_id: str = "sort",
        n_lists: int = 128,
        sort_cost: int = units.ms(700),
        merge_base_cost: int = units.ms(250),
        critical_cost: int = units.ms(8),
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if n_lists < 2 or n_lists & (n_lists - 1):
            raise ValueError("n_lists must be a power of two >= 2")
        self.n_lists = n_lists
        self.sort_cost = max(1, int(sort_cost * scale))
        self.merge_base_cost = max(1, int(merge_base_cost * scale))
        self.critical_cost = max(0, int(critical_cost * scale))
        self.run_lock = SpinLock(f"{app_id}.runs")
        self._section = critical_section(self.run_lock, self.critical_cost)
        self._merge_levels = n_lists.bit_length() - 1  # log2(n_lists)
        self._sort_costs = [
            self._jitter(self.sort_cost, 0.15) for _ in range(n_lists)
        ]

    @property
    def n_phases(self) -> int:
        return 1 + self._merge_levels

    def phase_tasks(self, phase: int) -> List[Task]:
        if phase == 0:
            return [
                compute_task(cost=cost, section=self._section)
                for cost in self._sort_costs
            ]
        level = phase - 1  # merge level 0 merges pairs of sorted sublists
        width = self.n_lists >> (level + 1)
        cost = self.merge_base_cost << level
        return [
            compute_task(
                cost=self._jitter(cost, 0.10, stream=f"merge{level}"),
                section=self._section,
                phase=phase,
            )
            for _ in range(width)
        ]

    def total_work(self) -> int:
        total = sum(self._sort_costs)
        for level in range(self._merge_levels):
            width = self.n_lists >> (level + 1)
            total += width * (self.merge_base_cost << level)
        n_tasks = self.n_lists + self.n_lists - 1
        return total + n_tasks * self.critical_cost

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "sort",
            "n_lists": self.n_lists,
            "sort_cost_us": self.sort_cost,
            "merge_base_cost_us": self.merge_base_cost,
            "critical_cost_us": self.critical_cost,
        }
