"""Per-lock contention telemetry, Malthusian concurrency restriction, and
the sync edges the restriction machinery has to survive: killed holders
and waiters, cpu hot-plug under a contended spin barrier, and a condvar
broadcast racing a process-control suspension safe point."""

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState
from repro.scenarios.catalog import build_catalog
from repro.sim import TraceLog, units
from repro.sync import (
    ConditionVariable,
    LockStats,
    Mutex,
    SpinBarrier,
    SpinLock,
    spin_barrier_wait,
)
from repro.workloads.locks import lock_saturation_scenario
from repro.workloads.runner import run_scenario

from tests.conftest import make_kernel


def _cycle(lock, acquire, release, work=100, order=None, tag=None):
    def program():
        yield acquire(lock)
        if order is not None:
            order.append(tag)
        yield sc.Compute(work)
        yield release(lock)

    return program


def spin_cycle(lock, **kw):
    return _cycle(lock, sc.SpinAcquire, sc.SpinRelease, **kw)


def mutex_cycle(lock, **kw):
    return _cycle(lock, sc.MutexAcquire, sc.MutexRelease, **kw)


class TestTelemetryUnit:
    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError, match="contention_penalty"):
            SpinLock("l", contention_penalty=-1)

    def test_zero_admission_rejected(self):
        with pytest.raises(ValueError, match="admission"):
            SpinLock("l", admission=0)
        with pytest.raises(ValueError, match="admission"):
            Mutex("m", admission=0)

    def test_handoff_charge_scales_with_remaining_spinners(self):
        lock = SpinLock("l", handoff_cost=3, contention_penalty=40)
        assert lock.handoff_charge() == 3  # nobody waiting
        lock.spinners.extend([object(), object(), object()])
        # The grantee leaves the spin set; two others keep storming.
        assert lock.handoff_charge() == 3 + 40 * 2

    def test_ownership_guards_reject_impossible_transitions(self):
        spin = SpinLock("l")
        spin.note_acquired(1, now=0, contended=False)
        with pytest.raises(RuntimeError, match="while held"):
            spin.note_acquired(2, now=5, contended=True)
        with pytest.raises(RuntimeError, match="release by"):
            spin.note_released(2, now=5)
        mutex = Mutex("m")
        mutex.note_acquired(1, contended=False, now=0)
        with pytest.raises(RuntimeError, match="while held"):
            mutex.note_acquired(2, contended=True, now=5)
        with pytest.raises(RuntimeError, match="release by"):
            mutex.note_released(2)

    def test_release_interval_ewma_tracks_service_rate(self):
        lock = SpinLock("l")
        lock.note_acquired(1, now=0, contended=False)
        lock.note_released(1, now=100)
        assert lock.service_interval_ewma is None  # one release, no interval
        lock.note_acquired(2, now=100, contended=False)
        lock.note_released(2, now=300)
        assert lock.service_interval_ewma == pytest.approx(200.0)
        lock.note_acquired(3, now=300, contended=False)
        lock.note_released(3, now=700)
        assert lock.service_interval_ewma == pytest.approx(
            0.25 * 400 + 0.75 * 200
        )


class TestSpinRestriction:
    def test_excess_spinners_are_culled_and_readmitted(self):
        trace = TraceLog(categories={"lock.cull", "lock.readmit"})
        kernel = make_kernel(n_processors=4, context_switch_cost=0, trace=trace)
        lock = SpinLock("l", admission=1)

        def contender(delay):
            yield sc.Compute(delay)
            yield from spin_cycle(lock, work=units.ms(1))()

        kernel.spawn(spin_cycle(lock, work=units.ms(1))(), name="h")
        for i in range(3):
            kernel.spawn(contender(10 * (i + 1)), name=f"c{i}")
        kernel.run_until_quiescent()

        assert lock.acquisitions == 4
        assert not lock.held and not lock.spinners and not lock.culled
        # One contender spins (the admission), the other two passivate.
        assert lock.passivations == 2
        assert lock.readmissions == 2
        assert lock.culled_peak == 2
        assert not lock.wait_started  # every entry drained on acquire
        assert len(trace.records("lock.cull")) == lock.passivations
        readmits = trace.records("lock.readmit")
        assert len(readmits) == lock.readmissions
        # A readmitted spinlock waiter wakes and retries its acquire.
        assert all(r.data["direct"] is False for r in readmits)

    def test_killed_spinner_turns_readmission_into_direct_grant(self):
        # The admitted spinner dies; the release then finds nobody
        # spinning, and the culled waiter is granted the free lock
        # directly (no barging window).
        trace = TraceLog(categories={"lock.readmit"})
        kernel = make_kernel(n_processors=3, context_switch_cost=0, trace=trace)
        lock = SpinLock("l", admission=1)

        def contender(delay):
            yield sc.Compute(delay)
            yield from spin_cycle(lock, work=200)()

        kernel.spawn(spin_cycle(lock, work=units.ms(2))(), name="h")
        spinner = kernel.spawn(contender(10), name="a")
        kernel.spawn(contender(20), name="b")
        kernel.run_until_quiescent(done=lambda: len(lock.culled) == 1)
        assert kernel.kill(spinner.pid)
        assert not lock.spinners  # settled out of the spin set on exit
        kernel.run_until_quiescent()

        assert lock.acquisitions == 2  # holder + the culled waiter
        assert lock.passivations == 1
        assert lock.readmissions == 1
        readmits = trace.records("lock.readmit")
        assert len(readmits) == 1
        assert readmits[0].data["direct"] is True
        assert not lock.held and not lock.culled and not lock.wait_started

    def test_killed_culled_waiter_never_readmits(self):
        kernel = make_kernel(n_processors=3, context_switch_cost=0)
        lock = SpinLock("l", admission=1)

        def contender(delay):
            yield sc.Compute(delay)
            yield from spin_cycle(lock, work=100)()

        kernel.spawn(spin_cycle(lock, work=units.ms(2))(), name="h")
        kernel.spawn(contender(10), name="a")  # the admitted spinner
        victim = kernel.spawn(contender(20), name="b")  # culled
        kernel.run_until_quiescent(done=lambda: len(lock.culled) == 1)
        assert victim.state is ProcessState.BLOCKED
        assert kernel.kill(victim.pid)
        assert not lock.culled  # detached immediately, not on next release
        assert victim.pid not in lock.wait_started
        kernel.run_until_quiescent()
        assert lock.acquisitions == 2  # holder + the admitted spinner
        assert lock.readmissions == 0
        assert not lock.held and not lock.wait_started

    def test_contention_telemetry_on_the_default_path(self):
        # No admission, no penalty: behaviour is the legacy lock, but the
        # wait histogram and hand-off latency still record.
        kernel = make_kernel(n_processors=3, context_switch_cost=0)
        lock = SpinLock("l")

        def contender(delay):
            yield sc.Compute(delay)
            yield from spin_cycle(lock, work=units.ms(1))()

        kernel.spawn(spin_cycle(lock, work=units.ms(1))(), name="h")
        kernel.spawn(contender(10), name="c1")
        kernel.spawn(contender(20), name="c2")
        kernel.run_until_quiescent()

        assert lock.acquisitions == 3
        assert lock.handoffs == 2
        assert lock.total_wait_time > 0
        # c2 waited through most of two back-to-back critical sections.
        assert lock.handoff_latency_max >= units.ms(1)
        # Holder saw an empty queue, c1 observed depth 0, c2 depth 1.
        assert lock.wait_hist == {0: 2, 1: 1}
        assert lock.passivations == 0 and lock.culled_peak == 0


class TestMutexRestriction:
    def test_culled_mutex_waiters_readmit_lifo(self):
        # Admission 1: the first waiter queues, later ones passivate.
        # Readmission drains the culled set LIFO (the Malthusian
        # cache-warmth rule), so arrival order a,b,c acquires as a,c,b.
        kernel = make_kernel(n_processors=4, context_switch_cost=0)
        lock = Mutex("m", admission=1)
        order = []

        def contender(tag, delay):
            yield sc.Compute(delay)
            yield from mutex_cycle(lock, work=units.ms(1), order=order, tag=tag)()

        kernel.spawn(
            mutex_cycle(lock, work=units.ms(1), order=order, tag="h")(), name="h"
        )
        for i, tag in enumerate(("a", "b", "c")):
            kernel.spawn(contender(tag, 10 * (i + 1)), name=tag)
        kernel.run_until_quiescent()

        assert order == ["h", "a", "c", "b"]
        assert lock.passivations == 2
        assert lock.readmissions == 2
        assert lock.culled_peak == 2
        assert not lock.waiters and not lock.culled and not lock.held
        assert not lock.wait_started

    def test_killed_mutex_holder_leaves_waiters_parked(self):
        # Crash semantics: a kill never releases locks, so the queued
        # waiter and the culled waiter stay blocked forever.  Killing
        # them too must drain every wait list and wait-start anchor.
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        lock = Mutex("m", admission=1)

        def holder():
            yield sc.MutexAcquire(lock)
            yield sc.Compute(units.ms(50))
            yield sc.MutexRelease(lock)

        def waiter():
            yield sc.Compute(10)
            yield sc.MutexAcquire(lock)
            yield sc.MutexRelease(lock)

        h = kernel.spawn(holder(), name="h")
        w1 = kernel.spawn(waiter(), name="w1")
        w2 = kernel.spawn(waiter(), name="w2")  # culled (admission=1)
        kernel.run_until_quiescent(
            done=lambda: len(lock.waiters) == 1 and len(lock.culled) == 1
        )
        assert kernel.kill(h.pid)
        assert lock.held  # nobody ever released it
        assert w1.state is ProcessState.BLOCKED
        assert w2.state is ProcessState.BLOCKED
        assert kernel.kill(w1.pid) and kernel.kill(w2.pid)
        assert not lock.waiters and not lock.culled
        assert not lock.wait_started

    def test_killed_admitted_waiter_turns_readmission_into_direct_grant(self):
        trace = TraceLog(categories={"lock.readmit"})
        kernel = make_kernel(n_processors=2, context_switch_cost=0, trace=trace)
        lock = Mutex("m", admission=1)

        def contender(delay):
            yield sc.Compute(delay)
            yield from mutex_cycle(lock, work=100)()

        kernel.spawn(mutex_cycle(lock, work=units.ms(2))(), name="h")
        admitted = kernel.spawn(contender(10), name="a")
        kernel.spawn(contender(20), name="b")  # culled
        kernel.run_until_quiescent(
            done=lambda: len(lock.waiters) == 1 and len(lock.culled) == 1
        )
        assert kernel.kill(admitted.pid)
        assert not lock.waiters
        kernel.run_until_quiescent()

        assert lock.acquisitions == 2  # holder + the culled waiter
        assert lock.readmissions == 1
        readmits = trace.records("lock.readmit")
        assert len(readmits) == 1
        assert readmits[0].data["direct"] is True
        assert not lock.held and not lock.culled and not lock.wait_started

    def test_mutex_telemetry_records_wait_latency(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        lock = Mutex("m")

        def contender():
            yield sc.Compute(10)
            yield from mutex_cycle(lock, work=100)()

        kernel.spawn(mutex_cycle(lock, work=units.ms(1))(), name="h")
        kernel.spawn(contender(), name="c")
        kernel.run_until_quiescent()

        assert lock.acquisitions == 2
        assert lock.contended_acquisitions == 1
        assert lock.handoffs == 1
        assert lock.total_wait_time >= units.ms(1) - 100
        # Holder's uncontended acquire and the contender's depth-0 wait.
        assert lock.wait_hist == {0: 2}


class TestLockStats:
    def test_from_lock_detects_kind_and_snapshots(self):
        spin = SpinLock("s", admission=2)
        spin.note_wait_started(7, now=5)
        spin.note_acquired(7, now=30, contended=True)
        stats = LockStats.from_lock(spin)
        assert stats.kind == "spin"
        assert stats.name == "s"
        assert stats.admission == 2
        assert stats.acquisitions == 1
        assert stats.handoffs == 1
        assert stats.handoff_latency_mean == pytest.approx(25.0)
        assert stats.waiters_peak == 0  # depth 0: nobody was ahead of pid 7

        mutex = Mutex("m")
        assert LockStats.from_lock(mutex).kind == "mutex"

    def test_merged_combines_counters_and_histograms(self):
        a = LockStats(
            name="l", kind="spin", acquisitions=2, contended_acquisitions=1,
            holder_preempted_encounters=0, total_spin_time=50,
            total_hold_time=100, total_wait_time=30, handoffs=1,
            handoff_latency_max=30, waiters_hist={0: 1, 2: 1},
            passivations=1, readmissions=1, culled_peak=1, admission=1,
        )
        b = LockStats(
            name="l", kind="spin", acquisitions=3, contended_acquisitions=2,
            holder_preempted_encounters=1, total_spin_time=70,
            total_hold_time=200, total_wait_time=90, handoffs=2,
            handoff_latency_max=60, waiters_hist={2: 2, 4: 1},
            passivations=2, readmissions=2, culled_peak=3, admission=1,
        )
        merged = a.merged(b)
        assert merged.acquisitions == 5
        assert merged.contended_acquisitions == 3
        assert merged.waiters_hist == {0: 1, 2: 3, 4: 1}
        assert merged.handoff_latency_max == 60
        assert merged.culled_peak == 3
        assert merged.waiters_peak == 4
        assert merged.handoff_latency_mean == pytest.approx(120 / 3)


class TestSpinBarrierHotplug:
    def test_cpu_offline_mid_rendezvous_still_trips(self):
        # Two parties, two CPUs; one CPU goes away after the first
        # arrival, so the poller and the straggler time-slice the
        # surviving processor.  The barrier must still trip, and again
        # after the CPU returns.
        kernel = make_kernel(
            n_processors=2, quantum=units.ms(2), context_switch_cost=0
        )
        barrier = SpinBarrier(parties=2, name="sb")

        def party(delay):
            yield sc.Compute(delay)
            yield from spin_barrier_wait(barrier)
            yield sc.Compute(100)
            yield from spin_barrier_wait(barrier)

        kernel.spawn(party(10), name="fast")
        kernel.spawn(party(units.ms(4)), name="slow")
        kernel.engine.schedule_at(
            units.ms(1), lambda: kernel.cpu_offline(1), "test-offline"
        )
        kernel.engine.schedule_at(
            units.ms(8), lambda: kernel.cpu_online(1), "test-online"
        )
        kernel.run_until_quiescent()
        assert barrier.trips == 2
        assert barrier.arrived == 0
        # The early arrival genuinely burned poll time while sharing the
        # one remaining CPU with the straggler.
        assert barrier.poll_time > 0


class TestCondvarVsSuspension:
    def test_broadcast_races_a_safe_point_suspension(self):
        # One worker parks at a process-control safe point (WaitSignal is
        # exactly how Section 5 suspensions park); at the same time the
        # controller broadcasts a condvar the worker has NOT reached yet.
        # Condvars have no memory: the resumed worker must park on the
        # condvar and stay there until the *next* broadcast, and every
        # wait list must drain cleanly.
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        mutex = Mutex("m")
        cond = ConditionVariable(mutex, name="cv")
        progress = []

        def suspended_then_waits():
            yield sc.WaitSignal()  # the suspension safe point
            progress.append("resumed")
            yield sc.MutexAcquire(mutex)
            yield sc.CondWait(cond)
            progress.append("woken")
            yield sc.MutexRelease(mutex)

        def controller(target_pid):
            yield sc.Compute(10)
            # The race: broadcast into an empty waiter list, resume the
            # worker immediately after.
            yield sc.MutexAcquire(mutex)
            yield sc.CondBroadcast(cond)
            yield sc.MutexRelease(mutex)
            yield sc.SendSignal(target_pid)
            yield sc.Compute(units.ms(1))
            yield sc.MutexAcquire(mutex)
            yield sc.CondBroadcast(cond)
            yield sc.MutexRelease(mutex)

        worker = kernel.spawn(suspended_then_waits(), name="w")
        kernel.spawn(controller(worker.pid), name="ctl")
        kernel.run_until_quiescent(done=lambda: worker.suspended_by_control)
        assert worker.state is ProcessState.BLOCKED
        kernel.run_until_quiescent()
        assert progress == ["resumed", "woken"]
        assert cond.broadcasts == 2
        assert not cond.waiters
        assert not mutex.held and not mutex.waiters
        assert worker.state is ProcessState.TERMINATED


class TestScenarioAdmission:
    """``Scenario.lock_admission`` is the one place a run's admission is
    set: ``None`` is the unrestricted arm, a limit restricts every lock."""

    def test_none_is_the_unrestricted_arm(self):
        scenario = lock_saturation_scenario(
            threads=10, n_tasks=24, n_processors=16
        )
        assert scenario.lock_admission is None
        result = run_scenario(scenario)
        assert sum(s.passivations for s in result.locks.values()) == 0

    def test_corpus_cases_carry_their_admission(self):
        cases = {case.name: case.to_scenario() for case in build_catalog()}
        assert cases["locks-collapse-unrestricted"].lock_admission is None
        assert cases["locks-scenario-admission"].lock_admission == 2
