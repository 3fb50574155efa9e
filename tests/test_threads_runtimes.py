"""The fork-join and pipeline runtimes, the runtime contract, and the
compliance telemetry they feed.

Covers the runtime layer the mixed-runtime experiment stands on: the
barrier-only safe points of :class:`ForkJoinPackage`, the stage floor of
:class:`PipelinePackage`, the :class:`ComplianceTracker` arithmetic, the
fork-join demand report (team width, not the always-empty-at-a-barrier
queue backlog), and the kernel census word the compliance policy
cross-checks against published targets.
"""

import pytest

from repro.apps.pipeline import PipelineApp
from repro.apps.synthetic import BarrierHeavyApp
from repro.kernel import syscalls as sc
from repro.kernel.ipc import ControlBoard
from repro.sim import units
from repro.threads import (
    PACKAGE_CLASSES,
    RUNTIME_NAMES,
    ForkJoinPackage,
    PipelinePackage,
    ThreadsPackage,
    ThreadsPackageConfig,
    make_package,
)
from repro.threads.compliance import ComplianceTracker

from tests.conftest import make_kernel
from tests.test_threads_package import ListApp, simple_tasks

ms = units.ms


def controlled_config(board, poll=ms(10), **kw):
    return ThreadsPackageConfig(
        control="centralized", board=board, poll_interval=poll, **kw
    )


# -- the compliance tracker ----------------------------------------------------


class TestComplianceTracker:
    def test_shrink_clock_runs_from_the_publish_instant(self):
        tracker = ComplianceTracker()
        # Published at 1000, read at 5000, conformed at 9000: the lag the
        # server experienced is 8000, not the 4000 since the read.
        tracker.note_published(2, runnable=4, now=5000, published_at=1000)
        assert tracker.pending_target == 2
        assert tracker.overshoot == 2.0
        tracker.note_conformed(2, now=9000)
        assert tracker.adoptions == 1
        assert tracker.last_adoption_lag == 8000
        assert tracker.overshoot == 0.0

    def test_rereading_the_same_target_keeps_the_original_clock(self):
        tracker = ComplianceTracker()
        tracker.note_published(2, runnable=4, now=1000, published_at=1000)
        tracker.note_published(2, runnable=4, now=6000, published_at=6000)
        tracker.note_conformed(2, now=7000)
        assert tracker.last_adoption_lag == 6000  # from the first publish

    def test_a_different_target_restarts_the_clock(self):
        tracker = ComplianceTracker()
        tracker.note_published(3, runnable=6, now=1000, published_at=1000)
        tracker.note_published(2, runnable=6, now=4000, published_at=4000)
        tracker.note_conformed(2, now=5000)
        assert tracker.last_adoption_lag == 1000

    def test_growth_cancels_an_unadopted_shrink(self):
        tracker = ComplianceTracker()
        tracker.note_published(2, runnable=6, now=1000, published_at=1000)
        # The server changed its mind before the runtime conformed: a
        # width we already satisfy means nothing is pending any more.
        tracker.note_published(6, runnable=6, now=2000, published_at=2000)
        assert tracker.pending_target is None
        tracker.note_conformed(2, now=3000)
        assert tracker.adoptions == 0

    def test_conformance_requires_reaching_the_target(self):
        tracker = ComplianceTracker()
        tracker.note_published(2, runnable=6, now=0, published_at=0)
        tracker.note_conformed(4, now=1000)  # not there yet
        assert tracker.adoptions == 0
        assert tracker.pending_target == 2

    def test_release_clears_pending_and_overshoot(self):
        tracker = ComplianceTracker()
        tracker.note_published(2, runnable=6, now=0, published_at=0)
        tracker.note_released()
        assert tracker.pending_target is None
        assert tracker.overshoot == 0.0

    def test_report_snapshots_the_figures(self):
        tracker = ComplianceTracker()
        tracker.note_published(2, runnable=5, now=2000, published_at=1000)
        tracker.note_conformed(2, now=4000)
        report = tracker.report("forkjoin", floor=1, now=5000)
        assert report.runtime == "forkjoin"
        assert report.floor == 1
        assert report.adoptions == 1
        assert report.adoption_lag_us == 3000
        assert report.max_adoption_lag_us == 3000
        assert report.overshoot == 0.0
        assert report.reported_at == 5000


# -- the runtime registry ------------------------------------------------------


class TestRuntimeRegistry:
    def test_registry_names_match_the_package_classes(self):
        assert set(RUNTIME_NAMES) == set(PACKAGE_CLASSES)
        assert PACKAGE_CLASSES["taskqueue"] is ThreadsPackage
        assert PACKAGE_CLASSES["forkjoin"] is ForkJoinPackage
        assert PACKAGE_CLASSES["pipeline"] is PipelinePackage

    def test_make_package_defaults_to_taskqueue(self):
        kernel = make_kernel(n_processors=2)
        app = ListApp(simple_tasks(2))
        package = make_package(None, kernel, app, 2)
        assert type(package) is ThreadsPackage

    def test_make_package_rejects_unknown_runtimes(self):
        kernel = make_kernel(n_processors=2)
        with pytest.raises(ValueError, match="unknown runtime"):
            make_package("openmp", kernel, ListApp(simple_tasks(2)), 2)

    @pytest.mark.parametrize("runtime", list(PACKAGE_CLASSES))
    def test_compliance_report_carries_name_and_floor(self, runtime):
        apps = {
            "taskqueue": lambda: ListApp(simple_tasks(12), app_id="tenant"),
            "forkjoin": lambda: BarrierHeavyApp(
                "tenant", phases=3, tasks_per_phase=6, task_cost=ms(2)
            ),
            "pipeline": lambda: PipelineApp(
                "tenant", n_items=12, stage_costs=(ms(1), ms(2), ms(1))
            ),
        }
        floors = {"taskqueue": 1, "forkjoin": 1, "pipeline": 3}
        board = ControlBoard()
        board.post({"tenant": 2}, now=0)
        kernel = make_kernel(n_processors=8)
        package = make_package(
            runtime, kernel, apps[runtime](), 4,
            config=controlled_config(board, poll=ms(2)),
        )
        package.start()
        kernel.run_until_quiescent()
        assert package.finished
        report = board.compliance_snapshot()["tenant"]
        assert report.runtime == package.runtime == runtime
        assert report.floor == package.floor == floors[runtime]


# -- the fork-join runtime -----------------------------------------------------


class TestForkJoinPackage:
    def run_fj(self, app, n, config=None, board=None, after=None):
        kernel = make_kernel(n_processors=8)
        package = ForkJoinPackage(kernel, app, n, config=config)
        package.start()
        if after is not None:
            after(kernel)
        kernel.run_until_quiescent()
        return kernel, package

    def test_uncontrolled_run_completes_every_phase(self):
        app = BarrierHeavyApp("fj", phases=4, tasks_per_phase=6, task_cost=ms(2))
        kernel, package = self.run_fj(app, 4)
        assert package.finished
        assert package.tasks_completed == 4 * 6
        # The last phase finishes the app rather than closing a barrier.
        assert package.phases_closed == 3
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive

    def test_shrink_is_adopted_only_at_a_barrier(self):
        board = ControlBoard()
        board.post({"fj": 2}, now=0)
        app = BarrierHeavyApp("fj", phases=4, tasks_per_phase=8, task_cost=ms(5))
        kernel, package = self.run_fj(
            app, 4, config=controlled_config(board, poll=ms(2))
        )
        assert package.finished
        control = package.control
        tracker = package.tracker
        # The team conformed (workers withheld across a barrier)...
        assert control.suspensions >= 1
        assert tracker.adoptions >= 1
        # ...but only after a mid-phase wait: the lag spans the phase
        # remainder, never a sub-poll interval.
        assert tracker.max_adoption_lag > 0

    def test_demand_reports_team_width_not_queue_backlog(self):
        # At a barrier the queue is empty by construction; the honest
        # demand is the width the next phase staffs.
        board = ControlBoard()
        kernel = make_kernel(n_processors=8)
        app = BarrierHeavyApp("fj", phases=2, tasks_per_phase=6, task_cost=ms(2))
        package = ForkJoinPackage(
            kernel, app, 5, config=controlled_config(board)
        )
        package.start()
        assert package.report_demand() == 5
        kernel.run_until_quiescent()
        assert package.finished

    def test_withheld_workers_rejoin_when_the_target_rises(self):
        board = ControlBoard()
        board.post({"fj": 1}, now=0)
        app = BarrierHeavyApp("fj", phases=6, tasks_per_phase=6, task_cost=ms(3))

        def raise_target(kernel):
            kernel.engine.schedule(
                ms(60), lambda: board.post({"fj": 4}, kernel.now)
            )

        kernel, package = self.run_fj(
            app, 4, config=controlled_config(board, poll=ms(5)),
            after=raise_target,
        )
        assert package.finished
        assert package.control.suspensions >= 1
        assert package.control.resumes >= 1

    def test_finish_wakes_parked_workers(self):
        app = BarrierHeavyApp("fj", phases=2, tasks_per_phase=2, task_cost=ms(2))
        kernel, package = self.run_fj(app, 6)  # more workers than tasks
        assert package.finished
        assert not package.parked
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive


# -- the pipeline runtime ------------------------------------------------------


class TestPipelinePackage:
    def run_pipe(self, app, n, config=None):
        kernel = make_kernel(n_processors=8)
        package = PipelinePackage(kernel, app, n, config=config)
        package.start()
        kernel.run_until_quiescent()
        return kernel, package

    def test_rejects_stageless_applications(self):
        kernel = make_kernel(n_processors=2)
        with pytest.raises(ValueError, match="declares no stages"):
            PipelinePackage(kernel, ListApp(simple_tasks(2)), 2)

    def test_rejects_fewer_workers_than_stages(self):
        kernel = make_kernel(n_processors=2)
        app = PipelineApp("pipe", n_items=4, stage_costs=(100, 100, 100))
        with pytest.raises(ValueError, match="every stage needs"):
            PipelinePackage(kernel, app, 2)

    def test_every_item_crosses_every_stage(self):
        app = PipelineApp("pipe", n_items=12, stage_costs=(ms(1), ms(2), ms(1)))
        kernel, package = self.run_pipe(app, 3)
        assert package.finished
        assert package.tasks_completed == 12 * 3
        assert app.items_done == 12
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive

    def test_surplus_workers_suspend_but_primaries_never_do(self):
        board = ControlBoard()
        board.post({"pipe": 1}, now=0)  # below the 3-stage floor
        app = PipelineApp("pipe", n_items=40, stage_costs=(ms(1), ms(2), ms(1)))
        kernel, package = self.run_pipe(
            app, 6, config=controlled_config(board, poll=ms(2))
        )
        assert package.finished
        control = package.control
        # The surplus (6 - floor 3) suspended; the floor never did.
        assert control.suspensions >= 1
        assert package.floor == 3
        # The published 1 is never adopted below the floor: the width is
        # floored at 3 once the surplus conforms, or still pending.
        assert control.target != 1
        assert control.target in (None, 3)

    def test_floor_overshoot_is_reported_as_structural(self):
        board = ControlBoard()
        board.post({"pipe": 1}, now=0)
        app = PipelineApp("pipe", n_items=40, stage_costs=(ms(1), ms(2), ms(1)))
        kernel, package = self.run_pipe(
            app, 6, config=controlled_config(board, poll=ms(2))
        )
        report = board.compliance_snapshot().get("pipe")
        assert report is not None
        assert report.runtime == "pipeline"
        assert report.floor == 3
        # Published 1 against a 3-stage floor: at least two workers are
        # held above target by physics, and the report says so.
        assert report.overshoot >= 2.0

    def test_lock_admission_restricts_every_stage_lock(self):
        # Scenario.lock_admission restricts each package queue lock; a
        # pipeline's queue locks are its stage locks, and it builds no
        # other queue.
        app = PipelineApp("p", n_items=8, stage_costs=(1000, 1000, 1000))
        package = PipelinePackage(
            make_kernel(n_processors=2),
            app,
            4,
            config=ThreadsPackageConfig(lock_admission=1),
        )
        assert package.queue is package.stage_queues[0]
        assert [q.lock.admission for q in package.stage_queues] == [1, 1, 1]

        from repro.machine import MachineConfig
        from repro.workloads import AppSpec, Scenario, run_scenario

        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(
                        factory=lambda: PipelineApp(
                            "p", n_items=8, stage_costs=(1000, 1000)
                        ),
                        n_processes=4,
                        runtime="pipeline",
                    )
                ],
                machine=MachineConfig(n_processors=2),
                lock_admission=1,
            )
        )
        assert result.locks["p.stage0.lock"].admission == 1

    def test_queue_lock_stats_aggregate_all_stages(self):
        app = PipelineApp("pipe", n_items=12, stage_costs=(ms(1), ms(1)))
        kernel, package = self.run_pipe(app, 4)
        locks = [queue.lock for queue in package.stage_queues]
        assert package.queue_lock_stats() == (
            sum(lock.contended_acquisitions for lock in locks),
            sum(lock.holder_preempted_encounters for lock in locks),
        )

    @pytest.mark.parametrize(
        "n_items,poll,cpus,n_stages,workers",
        [
            (1, 300, 2, 1, 4),
            (1, 300, 4, 2, 4),
            (1, 1000, 3, 2, 6),
            (2, 500, 4, 3, 6),
            (6, 3000, 4, 3, 5),
            (8, 300, 2, 1, 3),
        ],
    )
    def test_a_poll_spanning_the_finish_strands_no_worker(
        self, n_items, poll, cpus, n_stages, workers
    ):
        # A surplus worker whose poll spans the finish reaches its park
        # after the finish drained the parked queue (in the first cell,
        # p.w3 polls at 1,250 us and the finish is at 1,186 us).  The
        # closed control block must refuse it: nothing would ever wake it,
        # and the run would end in a deadlock.
        kernel = make_kernel(n_processors=cpus)
        board = ControlBoard()
        board.post({"p": 1}, now=0)
        app = PipelineApp("p", n_items=n_items, stage_costs=(1000,) * n_stages)
        package = PipelinePackage(
            kernel, app, workers, config=controlled_config(board, poll=poll)
        )
        package.start()
        kernel.run_until_quiescent()
        assert package.finished
        assert package.control.n_parked == 0
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive


# -- the kernel census word ----------------------------------------------------


class TestRunnableCensus:
    def test_load_summary_counts_runnable_per_application(self):
        kernel = make_kernel(n_processors=4)

        def worker():
            yield sc.Compute(ms(50))

        for _ in range(3):
            kernel.spawn(worker(), app_id="a", controllable=True)
        kernel.spawn(worker(), app_id="b", controllable=True)
        kernel.spawn(worker())  # no app: excluded from the census word

        summary = {}

        def prober():
            yield sc.Compute(100)
            summary["s"] = yield sc.GetLoadSummary()

        kernel.spawn(prober())
        kernel.run_until_quiescent()
        by_app = summary["s"].runnable_by_app
        assert by_app["a"] == 3
        assert by_app["b"] == 1
        assert None not in by_app
