"""Unit tests for the fault-injection subsystem and its degradation paths:
kernel kill / CPU hot-plug, server crash + restart, stale-target TTL with
poll backoff, the injector catalog, and the fault-plan spec grammar."""

import pytest

from repro.core.plane import ControlPlane
from repro.faults import (
    FaultPlan,
    parse_spec,
    parse_time,
    random_fault_spec,
)
from repro.faults.plan import parse_item
from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState
from repro.sim import TraceLog, units
from repro.sync import Mutex, Semaphore
from repro.threads.control import ControlState
from repro.threads.package import ThreadsPackageConfig
from repro.workloads import run_scenario

from tests.conftest import make_kernel, server_updates
from repro.faults.campaign import chaos_scenario


def spin_forever():
    def program():
        while True:
            yield sc.Compute(units.ms(1))

    return program()


def compute(amount):
    def program():
        yield sc.Compute(amount)

    return program()


# ----------------------------------------------------------------------
# kernel.kill
# ----------------------------------------------------------------------


class TestKill:
    def test_kill_running_process(self):
        kernel = make_kernel(n_processors=1)
        victim = kernel.spawn(spin_forever(), name="victim", daemon=True)
        kernel.engine.schedule(units.ms(5), lambda: kernel.kill(victim.pid))
        kernel.spawn(compute(units.ms(20)), name="other")
        kernel.run_until_quiescent()
        assert victim.state is ProcessState.TERMINATED
        assert victim.exit_time is not None

    def test_kill_ready_process(self):
        kernel = make_kernel(n_processors=1)
        runner = kernel.spawn(compute(units.ms(20)), name="runner")
        victim = kernel.spawn(spin_forever(), name="victim", daemon=True)
        # victim is READY behind the runner on the single CPU.
        kernel.engine.schedule(units.ms(1), lambda: kernel.kill(victim.pid))
        kernel.run_until_quiescent()
        assert victim.state is ProcessState.TERMINATED
        assert runner.state is ProcessState.TERMINATED

    def test_kill_sleeping_process_stale_timer_is_harmless(self):
        kernel = make_kernel(n_processors=2)

        def sleeper():
            yield sc.Sleep(units.seconds(10))

        victim = kernel.spawn(sleeper(), name="sleeper")
        # A long-running compute keeps the run alive past the sleep timer,
        # so the stale wake event actually fires on the corpse.
        kernel.spawn(compute(units.seconds(11)), name="runner")
        kernel.engine.schedule(units.ms(5), lambda: kernel.kill(victim.pid))
        kernel.run_until_quiescent()
        assert victim.state is ProcessState.TERMINATED
        assert kernel.now >= units.seconds(10)

    def test_kill_mutex_waiter_is_detached(self):
        kernel = make_kernel(n_processors=2)
        mutex = Mutex("m")

        def holder():
            yield sc.MutexAcquire(mutex)
            yield sc.Compute(units.ms(10))
            yield sc.MutexRelease(mutex)

        def waiter():
            yield sc.Compute(10)
            yield sc.MutexAcquire(mutex)
            yield sc.MutexRelease(mutex)

        kernel.spawn(holder(), name="h")
        victim = kernel.spawn(waiter(), name="w")
        kernel.engine.schedule(units.ms(2), lambda: kernel.kill(victim.pid))
        kernel.run_until_quiescent()
        assert victim.state is ProcessState.TERMINATED
        assert not mutex.held  # the holder still released cleanly

    def test_kill_sem_waiter_post_reaches_survivor(self):
        # A killed semaphore waiter must not swallow the post meant for a
        # live one.
        kernel = make_kernel(n_processors=4)
        sem = Semaphore("s", initial=0)

        def waiter():
            yield sc.SemWait(sem)

        victim = kernel.spawn(waiter(), name="v")
        survivor = kernel.spawn(waiter(), name="s")

        def poster():
            yield sc.Compute(units.ms(5))
            yield sc.SemPost(sem)

        kernel.spawn(poster(), name="p")
        kernel.engine.schedule(units.ms(2), lambda: kernel.kill(victim.pid))
        kernel.run_until_quiescent()
        assert victim.state is ProcessState.TERMINATED
        assert survivor.state is ProcessState.TERMINATED

    def test_kill_unknown_or_dead_pid_returns_false(self):
        kernel = make_kernel()
        assert kernel.kill(9999) is False
        p = kernel.spawn(compute(100), name="p")
        kernel.run_until_quiescent()
        assert kernel.kill(p.pid) is False


# ----------------------------------------------------------------------
# CPU hot-plug
# ----------------------------------------------------------------------


class TestCpuHotplug:
    def test_offline_excludes_cpu_from_dispatch(self):
        trace = TraceLog(categories=["kernel.dispatch"])
        kernel = make_kernel(n_processors=2, trace=trace)
        assert kernel.cpu_offline(1) is True
        for i in range(4):
            kernel.spawn(compute(units.ms(2)), name=f"p{i}")
        kernel.run_until_quiescent()
        cpus = {r.data["cpu"] for r in trace.records("kernel.dispatch")}
        assert cpus == {0}
        assert kernel.online_cpus() == [0]
        assert kernel.online_processor_count() == 1

    def test_offline_migrates_running_process(self):
        kernel = make_kernel(n_processors=2, quantum=units.ms(50))
        a = kernel.spawn(compute(units.ms(20)), name="a")
        b = kernel.spawn(compute(units.ms(20)), name="b")
        kernel.engine.schedule(units.ms(5), lambda: kernel.cpu_offline(1))
        kernel.run_until_quiescent()
        # Both finish even though one lost its processor mid-run.
        assert a.state is ProcessState.TERMINATED
        assert b.state is ProcessState.TERMINATED
        assert a.stats.preemptions + b.stats.preemptions >= 1

    def test_refuses_to_offline_last_cpu(self):
        kernel = make_kernel(n_processors=2)
        assert kernel.cpu_offline(1) is True
        assert kernel.cpu_offline(0) is False
        assert kernel.online_cpus() == [0]

    def test_online_restores_dispatch(self):
        kernel = make_kernel(n_processors=2)
        kernel.cpu_offline(1)
        assert kernel.cpu_online(1) is True
        assert kernel.online_cpus() == [0, 1]
        # Idempotent in both directions.
        assert kernel.cpu_online(1) is False
        assert kernel.cpu_offline(1) is True

    def test_offline_validates_cpu_id(self):
        kernel = make_kernel(n_processors=2)
        with pytest.raises(ValueError):
            kernel.cpu_offline(5)
        with pytest.raises(ValueError):
            kernel.cpu_online(-1)


# ----------------------------------------------------------------------
# Server crash / restart
# ----------------------------------------------------------------------


class TestServerCrashRestart:
    def _kernel_with_workers(self):
        kernel = make_kernel(n_processors=4)
        (server,) = ControlPlane(kernel, interval=units.ms(10)).servers
        server.start()
        for i in range(3):
            kernel.spawn(
                compute(units.ms(60)),
                name=f"w{i}",
                app_id="app",
                controllable=True,
            )
        return kernel, server

    def test_crash_leaves_stale_board(self):
        kernel, server = self._kernel_with_workers()
        kernel.engine.schedule(units.ms(25), server.crash)
        kernel.run_until_quiescent()
        assert server.crashes == 1
        assert server.pid is None
        # The board keeps the last published (now stale) targets.
        assert server.board.read("app") is not None
        updates_at_crash = server.updates
        assert updates_at_crash >= 1

    def test_restart_rebuilds_registry_from_process_table(self):
        kernel, server = self._kernel_with_workers()
        kernel.engine.schedule(units.ms(25), server.crash)
        kernel.engine.schedule(units.ms(40), server.restart)
        kernel.run_until_quiescent()
        assert server.restarts == 1
        assert server.pid is not None
        # Registry rebuilt without any registration message: lowest live
        # controllable pid per application.
        assert set(server.registered) == {"app"}
        assert server.updates >= 2  # posted again after the restart

    def test_restart_while_running_raises(self):
        kernel, server = self._kernel_with_workers()
        with pytest.raises(RuntimeError):
            server.restart()

    def test_crash_when_not_running_returns_false(self):
        kernel = make_kernel()
        (server,) = ControlPlane(kernel, interval=units.ms(10)).servers
        assert server.crash() is False


# ----------------------------------------------------------------------
# Poll faults on the board's write path
# ----------------------------------------------------------------------


class TestPollFaultsOnPublishes:
    """``poll-delay`` and ``poll-dup`` act on the posts the server makes
    inside their window: the sparse publish, ``post_delta``."""

    def _run_to_shrink(self, spec):
        """Four workers of "a" on 4 CPUs; four of "b" arrive at 25ms, so
        the next scan (inside the 5-65ms window) moves a's target 4 -> 2.
        Returns the kernel, the server and that update's time."""
        kernel = make_kernel(
            n_processors=4, trace=TraceLog(categories={"server.update"})
        )
        plane = ControlPlane(kernel, interval=units.ms(10))
        (server,) = plane.servers
        server.start()

        def spawn(app_id, cost):
            for i in range(4):
                kernel.spawn(
                    compute(cost), name=f"{app_id}{i}", app_id=app_id,
                    controllable=True,
                )

        spawn("a", units.ms(90))
        kernel.engine.schedule_at(units.ms(25), lambda: spawn("b", units.ms(90)))
        FaultPlan.from_spec(spec).install(kernel, server=plane)
        engine = kernel.engine
        engine.run_until(units.ms(25))
        assert server.board.read("a") == 4
        updates = server.updates
        while server.updates == updates:
            assert engine.step()
        published, targets = server_updates(kernel)[-1]
        assert targets["a"] == 2
        return kernel, server, published

    def test_poll_delay_lands_an_in_window_publish_delay_later(self):
        delay = units.ms(7)
        kernel, server, published = self._run_to_shrink(
            "poll-delay:at=5ms,duration=60ms,delay=7ms"
        )
        board = server.board
        kernel.engine.run_until(published + delay - 1)
        assert board.read("a") == 4  # the publish is still in flight
        kernel.engine.run_until(published + delay)
        assert board.read("a") == 2
        assert board.posted_at("a") == published + delay

    def test_poll_dup_reads_are_one_post_behind(self):
        kernel, server, published = self._run_to_shrink(
            "poll-dup:at=5ms,duration=60ms"
        )
        board = server.board
        assert board.targets["a"] == 2  # the post landed ...
        assert board.read("a") == 4  # ... but reads serve the one before
        updates = server.updates
        while server.updates == updates:
            assert kernel.engine.step()
        # The next post re-publishes 2, so the previous posting is now 2.
        assert board.read("a") == 2


# ----------------------------------------------------------------------
# Stale-target TTL + poll backoff (threads package degradation)
# ----------------------------------------------------------------------


class TestStaleTargetTtl:
    def test_note_failure_backs_off_and_expires(self):
        control = ControlState(n_workers=4)
        base, cap, ttl = 100, 800, 400
        control.note_fresh(2, now=1000)
        assert control.poll_gap is None
        expired = control.note_failure(1100, base, cap, ttl)
        assert not expired
        assert control.poll_gap == 200  # 100 << 1
        expired = control.note_failure(1300, base, cap, ttl)
        assert not expired
        assert control.poll_gap == 400
        # TTL measured from the last fresh poll: 1000 + 400.
        expired = control.note_failure(1400, base, cap, ttl)
        assert expired
        assert control.target is None
        assert control.target_expiries == 1
        assert control.failed_polls == 3
        # Gap never exceeds the cap.
        for now in (1500, 1600, 1700):
            control.note_failure(now, base, cap, ttl)
        assert control.poll_gap == cap

    def test_fresh_poll_resets_backoff(self):
        control = ControlState(n_workers=4)
        control.note_fresh(2, now=0)
        control.note_failure(100, 100, 800, 10_000)
        assert control.consecutive_failures == 1
        control.note_fresh(3, now=200)
        assert control.poll_gap is None
        assert control.consecutive_failures == 0
        assert control.target == 3

    def test_released_target_resumes_suspended_workers(self):
        control = ControlState(n_workers=2)
        control.target = 1
        assert control.park(42, control.target)
        assert control.unpark() is None
        control.note_fresh(1, now=0)
        control.note_failure(10_000, 100, 800, 400)  # expires immediately
        assert control.target is None
        assert control.unpark() == 42  # full parallelism restored
        assert control.runnable_workers == 2

    def test_config_validates_ttl_and_backoff(self):
        with pytest.raises(ValueError):
            ThreadsPackageConfig(poll_interval=100, stale_target_ttl=0)
        with pytest.raises(ValueError):
            ThreadsPackageConfig(
                poll_interval=100, stale_target_ttl=400, poll_backoff_max=50
            )
        config = ThreadsPackageConfig(poll_interval=100, stale_target_ttl=400)
        assert config.poll_backoff_max == 800  # default: 8x poll interval


# ----------------------------------------------------------------------
# Spec grammar
# ----------------------------------------------------------------------


class TestSpecGrammar:
    def test_parse_time_suffixes(self):
        assert parse_time("6s") == 6_000_000
        assert parse_time("40ms") == 40_000
        assert parse_time("250us") == 250
        assert parse_time("1234") == 1234
        assert parse_time("1.5ms") == 1500

    def test_parse_spec_round_trips(self):
        spec = "cpu-offline:at=5ms,cpu=1,duration=30ms;server-crash:at=8ms"
        plan = FaultPlan.from_spec(spec, seed=7)
        assert len(plan.injectors) == 2
        reparsed = parse_spec(plan.describe())
        assert [i.describe() for i in reparsed] == [
            i.describe() for i in plan.injectors
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_item("disk-on-fire:at=1ms")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            parse_item("cpu-offline:frequency=2")

    def test_malformed_parameter_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_item("cpu-offline:cpu")

    def test_invalid_injector_parameters_rejected(self):
        for bad in (
            "poll-drop:at=0,duration=0",
            "chan-drop:at=0,duration=0",
            "clock-jitter:at=0,duration=0",
            "preempt-storm:at=0,duration=10ms,period=0",
        ):
            with pytest.raises(ValueError):
                parse_item(bad)

    def test_random_fault_spec_is_reproducible_and_parseable(self):
        a = random_fault_spec(5, horizon=100_000)
        b = random_fault_spec(5, horizon=100_000)
        assert a == b
        assert random_fault_spec(6, horizon=100_000) != a
        assert parse_spec(a)  # every generated item parses


# ----------------------------------------------------------------------
# Injectors end-to-end (through run_scenario)
# ----------------------------------------------------------------------


def _run_with_faults(spec, scheduler="decay", seed=0):
    scenario = chaos_scenario(scheduler, seed, faults=spec)
    return run_scenario(scenario, sanitize="strict")


class TestInjectors:
    def test_cpu_offline_injector_fires_and_recovers(self):
        result = _run_with_faults("cpu-offline:cpu=1,at=5ms,duration=20ms")
        names = [event for _, event, _ in result.fault_events]
        assert names == ["cpu_offline", "cpu_online"]
        assert result.sanitizer_violations == 0
        assert all(a.finished_at is not None for a in result.apps.values())

    def test_server_crash_injector_restarts_and_run_completes(self):
        result = _run_with_faults("server-crash:at=8ms,down=30ms")
        names = [event for _, event, _ in result.fault_events]
        assert "server_crash" in names
        assert "server_restart" in names
        assert all(a.finished_at is not None for a in result.apps.values())

    def test_poll_drop_triggers_failed_polls(self):
        result = _run_with_faults("poll-drop:at=15ms,duration=60ms,p=1.0")
        assert sum(a.failed_polls for a in result.apps.values()) > 0
        assert all(a.finished_at is not None for a in result.apps.values())

    def test_preempt_storm_completes_clean(self):
        result = _run_with_faults(
            "preempt-storm:at=5ms,duration=30ms,period=2ms"
        )
        names = [event for _, event, _ in result.fault_events]
        assert "preempt_storm_start" in names
        assert result.sanitizer_violations == 0

    def test_channel_and_jitter_faults_complete_clean(self):
        result = _run_with_faults(
            "chan-drop:at=0,duration=10ms,p=1.0;"
            "clock-jitter:at=5ms,duration=40ms,amp=3ms"
        )
        assert result.sanitizer_violations == 0
        assert all(a.finished_at is not None for a in result.apps.values())

    def test_same_seed_same_fault_events(self):
        spec = "poll-drop:at=5ms,duration=40ms,p=0.5;server-crash:at=20ms,down=30ms"
        first = _run_with_faults(spec, seed=3)
        second = _run_with_faults(spec, seed=3)
        assert first.fault_events == second.fault_events
        assert first.sim_time == second.sim_time
        assert first.makespan == second.makespan

    def test_faults_disabled_is_bit_identical_to_healthy(self):
        from repro.sim import dispatch_digest

        digests = []
        for _ in range(2):
            trace = TraceLog(categories={"kernel.dispatch"})
            result = run_scenario(chaos_scenario("decay", 0), trace=trace)
            digests.append((dispatch_digest(trace), result.sim_time))
        assert digests[0] == digests[1]

    def test_poll_delay_moves_the_run(self):
        # The window's start and end log two events; a delayed publish
        # must move more of the run than that.
        healthy = run_scenario(chaos_scenario("fifo", 0))
        delayed = run_scenario(
            chaos_scenario(
                "fifo", 0, faults="poll-delay:at=10ms,duration=60ms,delay=7ms"
            )
        )
        assert delayed.events_fired > healthy.events_fired + 2
        assert delayed.makespan != healthy.makespan

    def test_scenario_faults_field_is_used(self):
        scenario = chaos_scenario(
            "decay", 0, faults="cpu-offline:cpu=1,at=5ms,duration=10ms"
        )
        result = run_scenario(scenario, sanitize="record")
        assert result.faults_injected == 1
        assert result.fault_events
