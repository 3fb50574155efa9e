"""Memory footprint regressions for the per-task and per-tenant records.

The 10k-tenant ``scale`` workload keeps ~80k tasks alive at once, builds
one application, control block and queue per tenant at its arrival, and
reduces one result record per tenant, so every byte on these records is
multiplied: the records are slotted, a compute task is one five-slot
record that is its own body rather than a task holding a closure, a
partial or a separate body object, a task queue is a list rather than a
deque, and a finished process or tenant drops what it no longer needs.

The ceilings are tracemalloc bytes per record, measured on CPython
3.10-3.13 with ~15-30% headroom; each sits well below what the previous
layout of the record cost.
"""

import gc
import tracemalloc
import weakref

import pytest

import repro.workloads.runner as runner
from repro.apps.synthetic import UniformApp
from repro.kernel.process import Process, ProcessStats, ProcessState
from repro.sim import TraceLog, units
from repro.sync import LockStats, SpinLock
from repro.threads import ControlState, TaskQueue, ThreadsPackageConfig
from repro.threads.compliance import ComplianceTracker
from repro.threads.task import Task, compute_task
from repro.workloads import AppSpec, Scenario
from repro.workloads.runner import AppResult

from tests.conftest import small_machine

#: One ``compute_task``: ~72 B (one five-slot record).  A slotted Task
#: with a three-slot body cost ~128 B, with a ``functools.partial`` body
#: ~278 B and with a closure body ~510 B.
COMPUTE_TASK_CEILING_BYTES = 90

#: One ``TaskQueue`` with its spinlock, their names and the lock's shared
#: ``SpinAcquire``/``SpinRelease`` pair: ~786 B on CPython 3.11 (~690 B
#: without the pair).  With a deque it cost ~1,240-1,380 B.
TASK_QUEUE_CEILING_BYTES = 800

#: One ``AppResult``: ~208 B (22 slots).  Its 34-slot layout cost
#: ~304 B; with an instance ``__dict__`` it cost ~445 B on CPython 3.10
#: and ~1,630 B on 3.11+.
APP_RESULT_CEILING_BYTES = 260


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
        compute_task("t", 1),
        AppResult("a", 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        LockStats("l", "spin"),
    ],
    ids=lambda record: type(record).__name__,
)
def test_hot_records_have_no_instance_dict(record):
    assert not hasattr(record, "__dict__")


def traced_bytes_per(make, n=2000):
    """Mean tracemalloc bytes one ``make(i)`` call leaves allocated."""
    make(0)  # warm any lazily built caches
    kept = [None] * n
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            kept[i] = make(i)
        return (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()


def test_compute_task_allocation_ceiling():
    lock = SpinLock("l")
    per_task = traced_bytes_per(lambda i: compute_task("app.t0", 5000, lock, 7))
    assert per_task <= COMPUTE_TASK_CEILING_BYTES, f"{per_task:.0f} B per task"


def test_task_queue_allocation_ceiling():
    names = [f"app{i:05d}.queue" for i in range(2001)]
    per_queue = traced_bytes_per(lambda i: TaskQueue(names[i]))
    assert per_queue <= TASK_QUEUE_CEILING_BYTES, f"{per_queue:.0f} B per queue"


def test_app_result_allocation_ceiling():
    names = [f"app{i:05d}" for i in range(2001)]
    per_result = traced_bytes_per(
        lambda i: AppResult(names[i], 2, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1)
    )
    assert per_result <= APP_RESULT_CEILING_BYTES, f"{per_result:.0f} B per result"


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
    assert compute_task("t", 10).urgent is False


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
        Scenario(apps=apps, control="centralized", machine=small_machine(2)),
        trace=TraceLog(),
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


def test_packages_live_from_arrival_to_last_worker_exit(monkeypatch):
    # Each tenant finishes long before the next arrives.  With the cycle
    # collector off, a package that is freed was freed by its refcount.
    # The specs declare their ids, so each application, too, is built in
    # its tenant's arrival event.
    arrivals = {"a": 0, "b": units.ms(20), "c": units.ms(40)}
    built = []  # (time, app_id, weakref, app_ids whose package was alive)
    applications = []  # app_id of each application built, in build order
    made_by_arrival = []  # applications built when each package is built
    make_package = runner.make_package

    def recording_make_package(runtime, kernel, app, n_processes, config=None):
        alive = [app_id for _, app_id, ref, _ in built if ref() is not None]
        made_by_arrival.append(list(applications))
        package = make_package(runtime, kernel, app, n_processes, config=config)
        built.append((kernel.now, package.app_id, weakref.ref(package), alive))
        return package

    def factory(name):
        def build():
            applications.append(name)
            return UniformApp(app_id=name, n_tasks=4, task_cost=units.ms(2))

        return build

    monkeypatch.setattr(runner, "make_package", recording_make_package)
    apps = [
        AppSpec(factory(name), n_processes=2, arrival=arrival, app_id=name)
        for name, arrival in arrivals.items()
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = runner.run_scenario(
            Scenario(apps=apps, control="centralized", machine=small_machine(2))
        )
        packages_freed = [ref() is None for _, _, ref, _ in built]
    finally:
        if enabled:
            gc.enable()

    # No application or package exists before its tenant's arrival ...
    assert [(now, app_id) for now, app_id, _, _ in built] == [
        (arrival, name) for name, arrival in arrivals.items()
    ]
    assert made_by_arrival == [["a"], ["a", "b"], ["a", "b", "c"]]
    # ... and each earlier tenant's package was gone by the next arrival.
    assert [alive for *_, alive in built] == [[], [], []]
    assert packages_freed == [True, True, True]
    for name in arrivals:
        assert result.apps[name].tasks_completed == 4
