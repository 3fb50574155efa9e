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

    def test_trace_runnable_total_matches_census(self):
        trace = TraceLog(categories=["kernel.runnable"])
        kernel = make_kernel(n_processors=2, trace=trace)
        for i in range(4):
            kernel.spawn(cpu_bound(units.ms(20)), name=f"p{i}", app_id="app")
        kernel.run_until_quiescent()
        records = trace.records("kernel.runnable")
        assert records[0].data["total"] >= 1
        # The last record shows an empty machine.
        assert records[-1].data["total"] == 0
        # per_app counts always sum to the total.
        for record in records:
            assert sum(record.data["per_app"].values()) == record.data["total"]
