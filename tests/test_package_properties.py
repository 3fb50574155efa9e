"""Hypothesis property tests on the threads package.

Generated phased applications with arbitrary shapes, worker counts, and
control targets must always (a) execute every task exactly once, (b)
terminate cleanly with no suspended workers left behind, and (c) be
deterministic.
"""

from typing import List

from hypothesis import given, settings, strategies as st

from repro.apps.base import PhasedApplication
from repro.kernel.ipc import ControlBoard
from repro.sim import units
from repro.threads import Task, ThreadsPackage, ThreadsPackageConfig, compute_task

from tests.conftest import make_kernel


class GeneratedApp(PhasedApplication):
    """A phased application built from a generated shape."""

    def __init__(self, shape: List[int], task_cost: int):
        super().__init__("genapp")
        self.shape = shape
        self.task_cost = task_cost

    @property
    def n_phases(self) -> int:
        return len(self.shape)

    def phase_tasks(self, phase: int) -> List[Task]:
        return [
            compute_task(self.task_cost, phase=phase, name=f"p{phase}.t{i}")
            for i in range(self.shape[phase])
        ]

    def total_work(self) -> int:
        return sum(self.shape) * self.task_cost


app_shapes = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5)


@given(
    shape=app_shapes,
    n_workers=st.integers(min_value=1, max_value=6),
    idle_spin=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_every_task_runs_exactly_once(shape, n_workers, idle_spin):
    kernel = make_kernel(n_processors=2)
    app = GeneratedApp(shape, task_cost=units.ms(1))
    package = ThreadsPackage(
        kernel, app, n_workers, ThreadsPackageConfig(idle_spin=idle_spin)
    )
    package.start()
    kernel.run_until_quiescent(max_events=2_000_000)
    assert package.finished
    assert package.tasks_completed == sum(shape)
    assert package.control.n_parked == 0
    for pid in package.worker_pids:
        assert not kernel.processes[pid].alive


@given(
    shape=app_shapes,
    n_workers=st.integers(min_value=2, max_value=6),
    target=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_control_never_loses_tasks(shape, n_workers, target):
    """Whatever the server demands, all work completes and no worker is
    left suspended."""
    kernel = make_kernel(n_processors=2)
    board = ControlBoard()
    board.post({"genapp": target}, now=0)
    app = GeneratedApp(shape, task_cost=units.ms(1))
    package = ThreadsPackage(
        kernel,
        app,
        n_workers,
        ThreadsPackageConfig(
            control="centralized", board=board, poll_interval=units.ms(5)
        ),
    )
    package.start()
    kernel.run_until_quiescent(max_events=2_000_000)
    assert package.finished
    assert package.tasks_completed == sum(shape)
    assert package.control.n_parked == 0
    if target < n_workers:
        assert package.control.suspensions >= 1 or sum(shape) <= 2


@given(shape=app_shapes, n_workers=st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_package_runs_are_deterministic(shape, n_workers):
    def run():
        kernel = make_kernel(n_processors=2)
        app = GeneratedApp(shape, task_cost=units.ms(1))
        package = ThreadsPackage(kernel, app, n_workers)
        package.start()
        kernel.run_until_quiescent(max_events=2_000_000)
        return package.wall_time

    assert run() == run()
