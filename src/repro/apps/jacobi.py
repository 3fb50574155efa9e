"""Jacobi iteration: the classic barrier-per-sweep stencil workload.

Included as a fifth application because it is the *most* barrier-dense
realistic workload (one global barrier per sweep, dozens to hundreds of
sweeps), i.e. the worst case for uncontrolled multiprogramming that
Section 2's producer/consumer discussion predicts, and a natural extra
evaluation point beyond the paper's four applications.
"""

from __future__ import annotations

from typing import Dict, List

from repro.apps.base import PhasedApplication
from repro.sim import units
from repro.sync import SpinLock
from repro.threads.task import Task, compute_task, critical_section


class Jacobi(PhasedApplication):
    """``sweeps`` phases of ``strips`` stencil-update tasks each.

    Args:
        sweeps: number of Jacobi iterations (phases).
        strips: row strips updated in parallel within a sweep.
        strip_cost: compute per strip per sweep (jittered +/-5%).
        residual_cost: spinlock-held residual accumulation per strip.
        scale: multiplies all compute costs.
    """

    def __init__(
        self,
        app_id: str = "jacobi",
        sweeps: int = 80,
        strips: int = 16,
        strip_cost: int = units.ms(60),
        residual_cost: int = units.ms(1),
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        super().__init__(app_id, seed)
        if sweeps < 1 or strips < 1:
            raise ValueError("sweeps and strips must be >= 1")
        self._sweeps = sweeps
        self.strips = strips
        self.strip_cost = max(1, int(strip_cost * scale))
        self.residual_cost = max(0, int(residual_cost * scale))
        self.residual_lock = SpinLock(f"{app_id}.residual")
        self._section = critical_section(self.residual_lock, self.residual_cost)

    @property
    def n_phases(self) -> int:
        return self._sweeps

    def phase_tasks(self, phase: int) -> List[Task]:
        return [
            compute_task(
                cost=self._jitter(self.strip_cost, 0.05, stream=f"sweep{phase}"),
                section=self._section,
                phase=phase,
            )
            for _ in range(self.strips)
        ]

    def total_work(self) -> int:
        return self._sweeps * self.strips * (self.strip_cost + self.residual_cost)

    def describe(self) -> Dict[str, object]:
        return {
            "app_id": self.app_id,
            "kind": "jacobi",
            "sweeps": self._sweeps,
            "strips": self.strips,
            "strip_cost_us": self.strip_cost,
            "residual_cost_us": self.residual_cost,
        }
