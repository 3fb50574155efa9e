"""Kernel edge cases: forced preemption, no-preempt grace, cache-dispatch
interaction, process table, accounting under churn."""

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState
from repro.sim import TraceLog, units
from repro.sync import SpinLock

from tests.conftest import make_kernel


def cpu_bound(duration, chunk=units.ms(5)):
    def program():
        remaining = duration
        while remaining > 0:
            step = min(chunk, remaining)
            remaining -= step
            yield sc.Compute(step)

    return program()


class TestForcePreempt:
    def test_force_preempt_requeues_current(self):
        kernel = make_kernel(n_processors=1, quantum=units.seconds(10))
        a = kernel.spawn(cpu_bound(units.ms(50)), name="a")
        kernel.spawn(cpu_bound(units.ms(50)), name="b")
        kernel.engine.schedule(units.ms(10), lambda: kernel.force_preempt(0))
        kernel.run_until_quiescent()
        assert a.stats.preemptions >= 1

    def test_force_preempt_idle_cpu_is_noop(self):
        kernel = make_kernel(n_processors=1)
        kernel.force_preempt(0)  # nothing dispatched; must not raise
        assert kernel.machine.processors[0].idle


class TestNoPreemptGrace:
    def test_flag_cannot_hold_cpu_forever(self):
        """A process that never clears its flag is preempted after the
        grace period (the protection concern the paper raises about the
        Zahorjan scheme)."""
        kernel = make_kernel(n_processors=1, quantum=units.ms(5))

        def rude():
            yield sc.SetNoPreempt(True)
            yield sc.Compute(units.ms(100))  # never clears the flag

        rude_process = kernel.spawn(rude(), name="rude")
        victim = kernel.spawn(cpu_bound(units.ms(10)), name="victim")
        kernel.run_until_quiescent()
        assert rude_process.stats.preemptions >= 1
        assert victim.state is ProcessState.TERMINATED

    def test_clearing_flag_triggers_deferred_preemption(self):
        trace = TraceLog(categories=["kernel.preempt_deferred", "kernel.preempt"])
        kernel = make_kernel(n_processors=1, quantum=units.ms(5), trace=trace)

        def polite():
            yield sc.SetNoPreempt(True)
            yield sc.Compute(units.ms(7))  # quantum expires mid-section
            yield sc.SetNoPreempt(False)  # deferred preemption fires here
            yield sc.Compute(units.ms(5))

        kernel.spawn(polite(), name="polite")
        kernel.spawn(cpu_bound(units.ms(5)), name="other")
        kernel.run_until_quiescent()
        assert len(trace.records("kernel.preempt_deferred")) >= 1
        reasons = [r.data["reason"] for r in trace.records("kernel.preempt")]
        assert "deferred" in reasons


class TestCacheDispatchInteraction:
    def test_warm_redispatch_cheaper_than_cold(self):
        trace = TraceLog(categories=["kernel.dispatch"])
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(10),
            cache_enabled=True,
            trace=trace,
            context_switch_cost=0,
        )
        # Single process: repeated quantum extensions, no re-dispatch; use
        # two processes so they evict each other.
        kernel.spawn(cpu_bound(units.ms(100)), name="a")
        kernel.spawn(cpu_bound(units.ms(100)), name="b")
        kernel.run_until_quiescent()
        reloads = [r.data["reload"] for r in trace.records("kernel.dispatch")]
        # First dispatches are fully cold; later ones vary but stay bounded
        # by the cold penalty.
        cold = kernel.machine.config.cache_cold_penalty
        assert reloads[0] == cold
        assert all(0 <= reload <= cold for reload in reloads)

    def test_small_footprint_pays_less(self):
        trace = TraceLog(categories=["kernel.dispatch"])
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(10),
            cache_enabled=True,
            trace=trace,
            context_switch_cost=0,
        )
        kernel.spawn(cpu_bound(units.ms(50)), name="big", cache_footprint=1.0)
        kernel.spawn(cpu_bound(units.ms(50)), name="small", cache_footprint=0.25)
        kernel.run_until_quiescent()
        by_pid = {}
        for record in trace.records("kernel.dispatch"):
            by_pid.setdefault(record.data["pid"], []).append(record.data["reload"])
        cold = kernel.machine.config.cache_cold_penalty
        assert max(by_pid[1]) == cold
        assert max(by_pid[2]) == cold // 4

    def test_negative_footprint_rejected(self):
        kernel = make_kernel()
        with pytest.raises(ValueError):
            kernel.spawn(cpu_bound(10), name="x", cache_footprint=-1.0)


class TestProcessTableSyscall:
    def test_table_includes_blocked_processes(self):
        kernel = make_kernel(n_processors=2)
        tables = []

        def observer():
            yield sc.Compute(units.ms(1))
            table = yield sc.GetProcessTable()
            tables.append(table)

        def sleeper():
            yield sc.Sleep(units.ms(50))

        kernel.spawn(sleeper(), name="sleepy")
        kernel.spawn(observer(), name="observer")
        kernel.run_until_quiescent()
        table = tables[0]
        names = {row.name for row in table}
        assert {"sleepy", "observer"} <= names
        sleepy_row = next(r for r in table if r.name == "sleepy")
        assert not sleepy_row.runnable


class TestAccountingUnderChurn:
    def test_accounting_balances_with_spin_and_blocking(self):
        kernel = make_kernel(n_processors=2, quantum=units.ms(2))
        lock = SpinLock("l")

        def mixed(tag):
            for _ in range(5):
                yield sc.Compute(units.ms(3))
                yield sc.SpinAcquire(lock)
                yield sc.Compute(units.ms(1))
                yield sc.SpinRelease(lock)
                yield sc.Sleep(units.ms(2))

        for i in range(5):
            kernel.spawn(mixed(i), name=f"m{i}")
        kernel.run_until_quiescent()
        kernel.finalize_accounting()
        for processor in kernel.machine.processors:
            assert processor.total_accounted() == kernel.now

    def test_series_agree_with_the_sampled_census(self):
        """Figure 5's series, written at each census change, read the same
        as ``runnable_count()``/``runnable_by_app()`` sampled by a periodic
        engine event through spawn, fork, block, wake, exit and kill.

        Every kernel event lands on a multiple of 10 us and the sampler on
        5 mod 10, so no census change shares an instant with a sample.
        """
        kernel = make_kernel(n_processors=2, quantum=units.ms(2))
        lock = SpinLock("l", acquire_cost=10, release_cost=10, handoff_cost=10)

        def worker():
            for _ in range(4):
                yield sc.Compute(3_000)
                yield sc.SpinAcquire(lock)
                yield sc.Compute(500)
                yield sc.SpinRelease(lock)
                yield sc.Sleep(2_000)

        def child():
            yield sc.Compute(4_000)

        def parent():
            pid = yield sc.Fork(child(), name="child")
            yield sc.WaitPid(pid)
            yield sc.Compute(1_000)

        def sleeper():
            yield sc.Sleep(units.ms(50))

        for i in range(3):
            kernel.spawn(worker(), name=f"a{i}", app_id="a")
        kernel.spawn(parent(), name="parent", app_id="b")
        blocked = kernel.spawn(sleeper(), name="blocked-victim", app_id="c")
        busy = kernel.spawn(cpu_bound(units.ms(40)), name="busy-victim", app_id="c")
        kernel.spawn(cpu_bound(units.ms(12)), name="loner")
        kernel.engine.schedule(10_000, lambda: kernel.kill(blocked.pid))
        kernel.engine.schedule(20_000, lambda: kernel.kill(busy.pid))
        samples = []

        def sample():
            samples.append(
                (kernel.now, kernel.runnable_count(), kernel.runnable_by_app())
            )

        kernel.engine.schedule(5, lambda: kernel.engine.schedule_every(970, sample))
        kernel.run_until_quiescent()
        total, per_app = kernel.detach_runnable_series()
        assert len(samples) > 20
        assert {0} < {count for _, count, _ in samples}  # saw busy and idle
        for now, count, by_app in samples:
            assert total.value_at(now) == count
            census = {("<none>" if a is None else a): n for a, n in by_app.items()}
            for app, series in per_app.items():
                assert series.value_at(now) == census.get(app, 0), (now, app)
            assert set(census) <= set(per_app)

    def test_trace_runnable_total_matches_census(self):
        kernel = make_kernel(n_processors=2)
        for i in range(4):
            kernel.spawn(cpu_bound(units.ms(20)), name=f"p{i}", app_id="app")
        kernel.spawn(cpu_bound(units.ms(30)), name="loner")
        kernel.run_until_quiescent()
        total, per_app = kernel.detach_runnable_series()
        assert set(per_app) == {"app", "<none>"}
        points = total.points
        assert points[0][1] >= 1
        # The last point shows an empty machine.
        assert points[-1][1] == 0
        # The per-application series sum to the total at every change.
        for time, value in points:
            assert sum(s.value_at(time) for s in per_app.values()) == value
