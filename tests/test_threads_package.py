"""Tests for the threads package: task execution, the queue protocol,
process control suspension/resumption, and finish semantics."""

import pytest

from repro.apps.base import Application
from repro.core.plane import ControlPlane
from repro.kernel import syscalls as sc
from repro.kernel.ipc import ControlBoard
from repro.sim import TraceLog, units
from repro.threads import Task, ThreadsPackage, ThreadsPackageConfig, compute_task
from repro.threads.task import SpawnTask

from tests.conftest import make_kernel, server_updates


class ListApp(Application):
    """Test application: a fixed list of tasks, optional follow-ons."""

    def __init__(self, tasks, follow=None, app_id="test-app"):
        super().__init__(app_id)
        self._tasks = tasks
        self._follow = follow or {}

    def initial_tasks(self):
        return list(self._tasks)

    def on_task_done(self, task):
        return list(self._follow.pop(task.name, []))


def simple_tasks(n, cost=units.ms(5)):
    return [compute_task(f"t{i}", cost) for i in range(n)]


def run_app(kernel, app, n_processes, config=None):
    package = ThreadsPackage(kernel, app, n_processes, config=config)
    package.start()
    kernel.run_until_quiescent()
    return package


class TestBasicExecution:
    def test_all_tasks_execute_once(self):
        kernel = make_kernel(n_processors=4)
        package = run_app(kernel, ListApp(simple_tasks(20)), 4)
        assert package.finished
        assert package.tasks_completed == 20
        assert package.wall_time > 0

    def test_single_worker_executes_sequentially(self):
        kernel = make_kernel(n_processors=1)
        package = run_app(kernel, ListApp(simple_tasks(5, units.ms(10))), 1)
        assert package.tasks_completed == 5
        # Serial: wall >= total work.
        assert package.wall_time >= 5 * units.ms(10)

    def test_parallel_speedup(self):
        task_cost = units.ms(20)
        kernel1 = make_kernel(n_processors=1)
        serial = run_app(kernel1, ListApp(simple_tasks(8, task_cost)), 1)
        kernel4 = make_kernel(n_processors=4)
        parallel = run_app(kernel4, ListApp(simple_tasks(8, task_cost)), 4)
        assert parallel.wall_time < serial.wall_time / 2

    def test_follow_on_tasks_run(self):
        tasks = simple_tasks(3)
        follow = {"t0": [compute_task("f0", units.ms(2))]}
        kernel = make_kernel(n_processors=2)
        package = run_app(kernel, ListApp(tasks, follow), 2)
        assert package.tasks_completed == 4

    def test_dynamic_spawn_task(self):
        ran = []

        def spawning_body():
            yield sc.Compute(units.ms(1))
            yield SpawnTask(Task("child", child_body))

        def child_body():
            ran.append("child")
            yield sc.Compute(units.ms(1))

        kernel = make_kernel(n_processors=2)
        package = run_app(
            kernel, ListApp([Task("parent", spawning_body)]), 2
        )
        assert ran == ["child"]
        assert package.tasks_completed == 2

    def test_workers_exit_after_finish(self):
        kernel = make_kernel(n_processors=4)
        package = run_app(kernel, ListApp(simple_tasks(6)), 4)
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive

    def test_empty_app_rejected(self):
        kernel = make_kernel(n_processors=2)
        package = ThreadsPackage(kernel, ListApp([]), 2)
        package.start()
        with pytest.raises(Exception):
            kernel.run_until_quiescent()

    def test_blocking_mode_also_completes(self):
        kernel = make_kernel(n_processors=4)
        config = ThreadsPackageConfig(idle_spin=False)
        package = run_app(kernel, ListApp(simple_tasks(20)), 4, config)
        assert package.tasks_completed == 20

    def test_only_a_blocking_package_holds_a_semaphore(self):
        # A busy-wait package neither waits on nor posts one, so it builds
        # none; a blocking package's idle workers sleep on its own.
        busy = run_app(make_kernel(n_processors=4), ListApp(simple_tasks(8)), 4)
        assert busy.tasks_completed == 8
        assert busy.work_sem is None
        blocking = run_app(
            make_kernel(n_processors=4),
            ListApp(simple_tasks(8)),
            4,
            ThreadsPackageConfig(idle_spin=False),
        )
        assert blocking.work_sem.name == "test-app.work"
        # One post per task plus one per worker's poison task.
        assert blocking.work_sem.posts == 8 + 4

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            ThreadsPackageConfig(control="bogus")
        with pytest.raises(ValueError):
            ThreadsPackageConfig(control="centralized")  # board missing
        with pytest.raises(ValueError):
            ThreadsPackageConfig(poll_interval=0)

    def test_cannot_start_twice(self):
        kernel = make_kernel(n_processors=2)
        package = ThreadsPackage(kernel, ListApp(simple_tasks(2)), 2)
        package.start()
        with pytest.raises(RuntimeError):
            package.start()
        kernel.run_until_quiescent()


class TestProcessControl:
    def make_controlled(self, kernel, app, n_processes, board, poll=units.ms(50)):
        config = ThreadsPackageConfig(
            control="centralized", board=board, poll_interval=poll
        )
        package = ThreadsPackage(kernel, app, n_processes, config=config)
        package.start()
        return package

    def test_workers_suspend_to_target(self):
        kernel = make_kernel(n_processors=4)
        board = ControlBoard()
        board.post({"test-app": 2}, now=0)
        app = ListApp(simple_tasks(40, units.ms(5)))
        package = self.make_controlled(kernel, app, 4, board)
        kernel.run_until_quiescent()
        assert package.finished
        assert package.control.suspensions >= 2
        assert package.tasks_completed == 40

    def test_suspended_workers_resume_when_target_rises(self):
        kernel = make_kernel(n_processors=4)
        board = ControlBoard()
        board.post({"test-app": 1}, now=0)
        app = ListApp(simple_tasks(60, units.ms(5)))
        package = self.make_controlled(kernel, app, 4, board, poll=units.ms(20))
        # Raise the target mid-run.
        kernel.engine.schedule(
            units.ms(100), lambda: board.post({"test-app": 4}, kernel.now)
        )
        kernel.run_until_quiescent()
        assert package.control.suspensions >= 1
        assert package.control.resumes >= 1
        assert package.tasks_completed == 60

    def test_target_one_never_starves(self):
        kernel = make_kernel(n_processors=4)
        board = ControlBoard()
        board.post({"test-app": 1}, now=0)
        app = ListApp(simple_tasks(10, units.ms(5)))
        package = self.make_controlled(kernel, app, 4, board)
        kernel.run_until_quiescent()
        assert package.finished  # one worker kept running

    def test_finish_wakes_suspended_workers(self):
        kernel = make_kernel(n_processors=4)
        board = ControlBoard()
        board.post({"test-app": 1}, now=0)
        app = ListApp(simple_tasks(30, units.ms(5)))
        package = self.make_controlled(kernel, app, 4, board)
        kernel.run_until_quiescent()
        # No worker left suspended at the end.
        assert package.control.n_parked == 0
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive

    def test_runnable_count_tracks_target(self):
        kernel = make_kernel(n_processors=4)
        board = ControlBoard()
        board.post({"test-app": 2}, now=0)
        app = ListApp(simple_tasks(80, units.ms(5)))
        self.make_controlled(kernel, app, 4, board)
        kernel.run_until_quiescent()
        # Mid-run the runnable count must have dropped to the target and
        # held there until the finish woke the parked workers.
        _, per_app = kernel.detach_runnable_series()
        series = per_app["test-app"]
        assert 2 in [count for _, count in series.points]
        assert series.value_at(kernel.now // 2) == 2

    def test_control_transparent_to_application(self):
        """The same Application object API runs with and without control --
        'without any modifications whatsoever' (Section 5)."""
        board = ControlBoard()
        board.post({"test-app": 2}, now=0)
        results = {}
        for label, config in {
            "off": ThreadsPackageConfig(),
            "on": ThreadsPackageConfig(
                control="centralized", board=board, poll_interval=units.ms(50)
            ),
        }.items():
            kernel = make_kernel(n_processors=4)
            app = ListApp(simple_tasks(30, units.ms(5)))
            package = run_app(kernel, app, 4, config)
            results[label] = package.tasks_completed
        assert results["off"] == results["on"] == 30

    def test_end_to_end_with_server(self):
        kernel = make_kernel(
            n_processors=4, trace=TraceLog(categories={"server.update"})
        )
        (server,) = ControlPlane(kernel, interval=units.ms(50)).servers
        server.start()
        config = ThreadsPackageConfig(
            control="centralized",
            board=server.board,
            server_channel=server.channel,
            poll_interval=units.ms(50),
        )
        apps = []
        for name in ("alpha", "beta"):
            app = ListApp(simple_tasks(40, units.ms(5)), app_id=name)
            package = ThreadsPackage(kernel, app, 4, config=config)
            package.start()
            apps.append(package)
        kernel.run_until_quiescent()
        assert all(p.finished for p in apps)
        # Both applications registered and were told to shrink (4+4
        # processes on 4 CPUs -> 2 each).
        assert set(server.registered) == {"alpha", "beta"}
        assert any(
            t.get("alpha") == 2 and t.get("beta") == 2
            for _, t in server_updates(kernel)
        )
        assert all(p.control.suspensions >= 1 for p in apps)

    def test_decentralized_control(self):
        kernel = make_kernel(n_processors=4)
        config = ThreadsPackageConfig(
            control="decentralized", poll_interval=units.ms(50)
        )
        apps = []
        for name in ("alpha", "beta"):
            app = ListApp(simple_tasks(40, units.ms(5)), app_id=name)
            package = ThreadsPackage(kernel, app, 4, config=config)
            package.start()
            apps.append(package)
        kernel.run_until_quiescent()
        assert all(p.finished for p in apps)
        assert all(p.control.polls >= 1 for p in apps)
        assert any(p.control.suspensions >= 1 for p in apps)
