"""Memory footprint regressions for the per-task and per-tenant records.

The 10k-tenant ``scale`` workload keeps ~80k tasks and one control block,
queue and config per tenant alive at once, so every byte on these records
is multiplied: the records are slotted, a compute task's body is a small
partial rather than a closure, and a finished process or tenant drops
what it no longer needs.
"""

import tracemalloc

import pytest

import repro.workloads.runner as runner
from repro.apps.synthetic import UniformApp
from repro.kernel.process import Process, ProcessStats, ProcessState
from repro.sim import units
from repro.sync import SpinLock
from repro.threads import ControlState, TaskQueue, ThreadsPackageConfig
from repro.threads.compliance import ComplianceTracker
from repro.threads.task import Task, compute_task
from repro.workloads import AppSpec, Scenario

from tests.conftest import small_machine

#: tracemalloc bytes one ``compute_task`` call may allocate: ~278 B on
#: CPython 3.10-3.13 (slotted Task + partial + its argument tuple), with
#: ~15% headroom.  A closure-bodied task with a ``__dict__`` and its own
#: empty ``meta`` dict costs ~510 B and fails this.
COMPUTE_TASK_CEILING_BYTES = 320


@pytest.mark.parametrize(
    "record",
    [
        Task("t", lambda: iter(())),
        Process(pid=1, program=None),
        ProcessStats(),
        ControlState(2),
        TaskQueue("q"),
        ThreadsPackageConfig(),
        ComplianceTracker(),
    ],
    ids=lambda record: type(record).__name__,
)
def test_hot_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def test_compute_task_allocation_ceiling():
    lock = SpinLock("l")
    name = "app.t0"
    n = 2000
    tasks = [None] * n
    compute_task(name, 5000, lock, 7)  # warm any lazily built caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            tasks[i] = compute_task(name, 5000, lock, 7)
        per_task = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_task <= COMPUTE_TASK_CEILING_BYTES, f"{per_task:.0f} B per task"


def test_compute_task_body_runs_its_segments():
    lock = SpinLock("l")
    ops = list(compute_task("t", 10, lock, critical_cost=3).body())
    assert [type(op).__name__ for op in ops] == [
        "Compute",
        "SpinAcquire",
        "Compute",
        "SpinRelease",
    ]
    assert [type(op).__name__ for op in compute_task("t", 0).body()] == []
    assert compute_task("t", 10).meta is None


def test_finished_processes_and_tenants_release_their_state(monkeypatch):
    packages = []
    make_package = runner.make_package

    def recording_make_package(*args, **kwargs):
        package = make_package(*args, **kwargs)
        packages.append(package)
        return package

    monkeypatch.setattr(runner, "make_package", recording_make_package)
    apps = [
        AppSpec(
            lambda name=name: UniformApp(
                app_id=name, n_tasks=12, task_cost=units.ms(2), jitter=0.2
            ),
            n_processes=2,
        )
        for name in ("a", "b")
    ]
    result = runner.run_scenario(
        Scenario(apps=apps, control="centralized", machine=small_machine(2))
    )

    assert [p.app_id for p in packages] == ["a", "b"]
    # Only the result keeps the trace: the run's cyclic object graph must
    # not hold the records until the next full collection.
    assert len(result.trace) > 0
    assert packages[0].kernel.trace is not result.trace
    for package in packages:
        assert package.finished
        assert result.apps[package.app_id].tasks_completed == 12
        # The jitter stream was drawn from, then released at the finish.
        assert package.app.streams._streams == {}
        workers = package.kernel.processes_of_app(package.app_id)
        assert len(workers) == 2
        for process in workers:
            assert process.state is ProcessState.TERMINATED
            assert process.program is None
