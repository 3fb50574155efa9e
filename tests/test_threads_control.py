"""State-machine edges of the per-application control block.

:mod:`repro.threads.control` holds the shared suspension state every
worker consults at safe points.  These tests pin its transition edges
directly (backoff, TTL release, the starvation floor) and then the two
protocol edges that only show up with real workers: FINISH delivered to
a worker that is *suspended* at finish time, and a duplicated RESUME
signal racing a legitimate wake.
"""

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.ipc import ControlBoard
from repro.sim import TraceLog, units
from repro.threads import ThreadsPackage, ThreadsPackageConfig, compute_task
from repro.threads.control import FINISH, RESUME, ControlState

from tests.conftest import make_kernel
from tests.test_threads_package import ListApp, simple_tasks

ms = units.ms


class TestControlState:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least one"):
            ControlState(0)

    def test_fresh_poll_adopts_and_resets_backoff(self):
        state = ControlState(4)
        state.note_failure(now=1000, base_gap=100, max_gap=10_000, ttl=50_000)
        assert state.poll_gap is not None
        state.note_fresh(2, now=2000)
        assert state.target == 2
        assert state.poll_gap is None
        assert state.consecutive_failures == 0
        assert state.last_fresh == 2000

    def test_deferred_fresh_poll_does_not_adopt(self):
        # Fork-join/pipeline runtimes reset backoff on a board answer but
        # move the adopted width only when workers conform at a barrier.
        state = ControlState(4)
        state.target = 4
        state.note_fresh_deferred(now=2000)
        assert state.target == 4
        assert state.polls == 1
        assert state.poll_gap is None

    def test_failure_backoff_doubles_and_is_bounded(self):
        state = ControlState(4)
        gaps = []
        for i in range(8):
            state.note_failure(
                now=1000 * i, base_gap=100, max_gap=1600, ttl=10**9
            )
            gaps.append(state.poll_gap)
        assert gaps[0] == 200
        assert gaps[1] == 400
        assert gaps[-1] == 1600  # clamped, not 100 << 8
        assert state.failed_polls == 8

    def test_ttl_expiry_releases_the_target_once(self):
        state = ControlState(4)
        state.note_fresh(2, now=0)
        assert not state.note_failure(
            now=5000, base_gap=100, max_gap=1000, ttl=10_000
        )
        assert state.target == 2
        assert state.note_failure(
            now=10_000, base_gap=100, max_gap=1000, ttl=10_000
        )
        assert state.target is None
        assert state.target_expiries == 1
        # Already released: further failures report nothing new to do.
        assert not state.note_failure(
            now=20_000, base_gap=100, max_gap=1000, ttl=10_000
        )
        assert state.target_expiries == 1

    def test_crash_epoch_ages_the_ttl_from_the_death_instant(self):
        state = ControlState(4)
        state.note_fresh(2, now=9000)
        # Freshly read at 9000, but the server died at 1000: the word was
        # stale the moment it was read, and the TTL counts from the crash.
        assert state.note_failure(
            now=11_000, base_gap=100, max_gap=1000, ttl=10_000,
            crash_epoch=1000,
        )
        assert state.target is None

    def test_earlier_failure_streak_outranks_the_crash_epoch(self):
        # A wedged server that then dies must not have the countdown
        # reset by the death notice: the anchor is the *older* evidence.
        state = ControlState(4)
        state.note_fresh(2, now=0)
        state.note_failure(now=2000, base_gap=100, max_gap=1000, ttl=20_000)
        assert state.first_failure == 2000
        assert state.note_failure(
            now=22_000, base_gap=100, max_gap=1000, ttl=20_000,
            crash_epoch=21_000,
        )
        assert state.target is None

    def test_should_suspend_honours_the_starvation_floor(self):
        state = ControlState(4)
        assert not state.park(101, state.target)  # no target yet
        state.target = 0  # a zero target still leaves one worker running
        assert [state.park(pid, 0) for pid in (101, 102, 103, 104)] == [
            True, True, True, False,
        ]
        assert state.runnable_workers == 1

    def test_should_resume_wakes_everyone_on_a_released_target(self):
        state = ControlState(4)
        assert state.unpark() is None  # nobody suspended
        state.target = 2
        assert state.park(101, 2) and state.park(102, 2)
        assert state.unpark() is None
        state.target = None  # TTL released control: degraded mode is
        assert [state.unpark(), state.unpark()] == [101, 102]  # full
        assert state.runnable_workers == 4  # parallelism, not a freeze


class TestSuspensionProtocolEdges:
    def _controlled(self, kernel, app, n, board, poll=ms(20)):
        config = ThreadsPackageConfig(
            control="centralized", board=board, poll_interval=poll
        )
        package = ThreadsPackage(kernel, app, n, config=config)
        package.start()
        return package

    def test_finish_delivers_finish_payload_to_suspended_workers(self):
        # Workers parked at finish time must be woken by FINISH (and
        # exit), not left waiting for a RESUME that will never come.
        trace = TraceLog(categories=["pc.suspend", "pc.wake"])
        kernel = make_kernel(n_processors=4, trace=trace)
        board = ControlBoard()
        board.post({"test-app": 1}, now=0)
        app = ListApp(simple_tasks(20, ms(5)))
        package = self._controlled(kernel, app, 4, board)
        kernel.run_until_quiescent()
        assert package.finished
        assert package.control.n_parked == 0
        assert package.control.runnable_workers == 4
        payloads = [r.data["payload"] for r in trace.records("pc.wake")]
        assert FINISH in payloads
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive

    def test_double_resume_signal_does_not_corrupt_the_run(self):
        # Duplicate a legitimate wake: once a worker parks, fire an extra
        # RESUME straight at it.  The spurious wake must not crash the
        # protocol or lose tasks -- the run still completes and every
        # worker exits.
        kernel = make_kernel(n_processors=4)
        board = ControlBoard()
        board.post({"test-app": 2}, now=0)
        app = ListApp(simple_tasks(40, ms(5)))
        package = self._controlled(kernel, app, 4, board)

        def injector():
            control = package.control
            while not control.n_parked and not package.finished:
                yield sc.Sleep(ms(5))
            if control.n_parked:
                victim = control.parked[0]
                yield sc.SendSignal(victim, RESUME)

        kernel.spawn(injector(), name="resume-injector")
        kernel.run_until_quiescent()
        assert package.finished
        assert package.tasks_completed == 40
        for pid in package.worker_pids:
            assert not kernel.processes[pid].alive

    def test_resume_wakes_the_longest_suspended_worker_first(self):
        # FIFO queue semantics ("kept on a queue", Section 5): the pid
        # resumed is the one that suspended earliest.
        trace = TraceLog(categories=["pc.suspend", "pc.resume"])
        kernel = make_kernel(n_processors=4, trace=trace)
        board = ControlBoard()
        board.post({"test-app": 1}, now=0)
        app = ListApp(simple_tasks(60, ms(5)))
        package = self._controlled(kernel, app, 4, board, poll=ms(10))
        kernel.engine.schedule(
            ms(60), lambda: board.post({"test-app": 4}, kernel.now)
        )
        kernel.run_until_quiescent()
        suspended_order = [
            r.data["pid"] for r in trace.records("pc.suspend")
        ]
        resumed_order = [r.data["pid"] for r in trace.records("pc.resume")]
        assert resumed_order  # the raise really woke someone
        assert resumed_order[0] == suspended_order[0]
