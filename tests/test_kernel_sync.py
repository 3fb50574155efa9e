"""Kernel synchronization: spinlocks (including the paper's preempted-holder
pathology), mutexes, semaphores, barriers, condition variables."""

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState
from repro.sim import TraceLog, units
from repro.sim.engine import SimulationError
from repro.sync import Barrier, ConditionVariable, Mutex, Semaphore, SpinLock

from tests.conftest import make_kernel


class TestSpinLock:
    def test_uncontended_acquire_release(self):
        kernel = make_kernel(n_processors=1)
        lock = SpinLock("l")

        def program():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(100)
            yield sc.SpinRelease(lock)

        kernel.spawn(program(), name="p")
        kernel.run_until_quiescent()
        assert lock.acquisitions == 1
        assert lock.contended_acquisitions == 0
        assert not lock.held
        assert lock.total_hold_time >= 100

    def test_release_rejects_a_dead_spinner(self):
        kernel = make_kernel(n_processors=1)
        lock = SpinLock("l")

        def short():
            yield sc.Compute(1)

        def holder():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(100)
            lock.spinners.append(corpse)  # what a kill-path bug would leave
            yield sc.SpinRelease(lock)

        corpse = kernel.spawn(short(), name="c")
        kernel.spawn(holder(), name="h")
        with pytest.raises(
            SimulationError, match="spinner list contained a process that is not running"
        ):
            kernel.run_until_quiescent()
        assert corpse.state is ProcessState.TERMINATED

    def test_contended_spinner_burns_cpu(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        lock = SpinLock("l")

        def holder():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(units.ms(2))
            yield sc.SpinRelease(lock)

        def contender():
            yield sc.Compute(10)  # let the holder take the lock first
            yield sc.SpinAcquire(lock)
            yield sc.SpinRelease(lock)

        kernel.spawn(holder(), name="h")
        spinner = kernel.spawn(contender(), name="s")
        kernel.run_until_quiescent()
        kernel.finalize_accounting()
        assert lock.contended_acquisitions == 1
        # The contender spun for roughly the holder's critical section.
        assert spinner.stats.spin_time >= units.ms(1)
        spin_total = sum(p.spin_time for p in kernel.machine.processors)
        assert spin_total >= units.ms(1)

    def test_spin_handoff_is_fifo_among_running_spinners(self):
        kernel = make_kernel(n_processors=3, context_switch_cost=0)
        lock = SpinLock("l")
        acquired_order = []

        def holder():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(units.ms(1))
            yield sc.SpinRelease(lock)

        def contender(tag, delay):
            yield sc.Compute(delay)
            yield sc.SpinAcquire(lock)
            acquired_order.append(tag)
            yield sc.SpinRelease(lock)

        kernel.spawn(holder(), name="h")
        kernel.spawn(contender("first", 10), name="c1")
        kernel.spawn(contender("second", 20), name="c2")
        kernel.run_until_quiescent()
        assert acquired_order == ["first", "second"]

    def test_preempted_holder_makes_spinners_wait(self):
        """The paper's core pathology: more processes than processors, the
        lock holder gets preempted, and spinners burn quanta until the FIFO
        queue cycles the holder back in."""
        trace = TraceLog(categories=["spin.holder_preempted"])
        kernel = make_kernel(
            n_processors=1, quantum=units.ms(1), context_switch_cost=0, trace=trace
        )
        lock = SpinLock("l")

        def holder():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(units.ms(3))  # will be preempted mid-section
            yield sc.SpinRelease(lock)

        def contender():
            yield sc.Compute(units.ms(1) - 10)  # runs second, nearly a quantum
            yield sc.SpinAcquire(lock)
            yield sc.SpinRelease(lock)

        h = kernel.spawn(holder(), name="h")
        s = kernel.spawn(contender(), name="s")
        kernel.run_until_quiescent()
        assert h.stats.preemptions_in_critical_section >= 1
        assert s.stats.spin_time > 0
        assert len(trace.records("spin.holder_preempted")) >= 1

    def test_preempted_spinner_reattempts_after_redispatch(self):
        kernel = make_kernel(n_processors=1, quantum=units.ms(1), context_switch_cost=0)
        lock = SpinLock("l")
        done = []

        def holder():
            yield sc.SpinAcquire(lock)
            yield sc.Compute(units.ms(2))
            yield sc.SpinRelease(lock)
            done.append("holder")

        def contender():
            yield sc.SpinAcquire(lock)
            yield sc.SpinRelease(lock)
            done.append("contender")

        kernel.spawn(holder(), name="h")
        kernel.spawn(contender(), name="s")
        kernel.run_until_quiescent()
        assert sorted(done) == ["contender", "holder"]
        assert not lock.held

    def test_release_without_hold_is_an_error(self):
        kernel = make_kernel(n_processors=1)
        lock = SpinLock("l")

        def program():
            yield sc.SpinRelease(lock)

        kernel.spawn(program(), name="p")
        with pytest.raises(Exception):
            kernel.run_until_quiescent()


class TestMutex:
    def test_contended_mutex_blocks_instead_of_spinning(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        mutex = Mutex("m")

        def holder():
            yield sc.MutexAcquire(mutex)
            yield sc.Compute(units.ms(2))
            yield sc.MutexRelease(mutex)

        def contender():
            yield sc.Compute(10)
            yield sc.MutexAcquire(mutex)
            yield sc.MutexRelease(mutex)

        kernel.spawn(holder(), name="h")
        waiter = kernel.spawn(contender(), name="w")
        kernel.run_until_quiescent()
        assert waiter.stats.spin_time == 0
        assert waiter.stats.block_time >= units.ms(1)
        assert mutex.contended_acquisitions == 1
        assert not mutex.held

    def test_mutex_fifo_handoff(self):
        kernel = make_kernel(n_processors=4, context_switch_cost=0)
        mutex = Mutex("m")
        order = []

        def worker(tag, delay):
            yield sc.Compute(delay)
            yield sc.MutexAcquire(mutex)
            order.append(tag)
            yield sc.Compute(100)
            yield sc.MutexRelease(mutex)

        kernel.spawn(worker("a", 0), name="a")
        kernel.spawn(worker("b", 10), name="b")
        kernel.spawn(worker("c", 20), name="c")
        kernel.run_until_quiescent()
        assert order == ["a", "b", "c"]


class TestSemaphore:
    def test_producer_consumer(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        items = Semaphore("items", initial=0)
        consumed = []

        def producer():
            for i in range(3):
                yield sc.Compute(100)
                yield sc.SemPost(items)

        def consumer():
            for i in range(3):
                yield sc.SemWait(items)
                consumed.append(i)

        kernel.spawn(producer(), name="prod")
        kernel.spawn(consumer(), name="cons")
        kernel.run_until_quiescent()
        assert consumed == [0, 1, 2]
        assert items.count == 0

    def test_initial_count_consumed_without_blocking(self):
        kernel = make_kernel(n_processors=1, context_switch_cost=0)
        sem = Semaphore("s", initial=2)

        def consumer():
            yield sc.SemWait(sem)
            yield sc.SemWait(sem)

        process = kernel.spawn(consumer(), name="c")
        kernel.run_until_quiescent()
        assert process.state is ProcessState.TERMINATED
        assert process.stats.block_time == 0

    def test_negative_initial_rejected(self):
        with pytest.raises(ValueError):
            Semaphore("s", initial=-1)


class TestBarrier:
    def test_barrier_releases_all_parties_together(self):
        kernel = make_kernel(n_processors=4, context_switch_cost=0)
        barrier = Barrier(parties=3, name="b")
        after = []

        def worker(tag, work):
            yield sc.Compute(work)
            yield sc.BarrierWait(barrier)
            after.append((tag, kernel.now))

        kernel.spawn(worker("fast", 100), name="f")
        kernel.spawn(worker("mid", 500), name="m")
        kernel.spawn(worker("slow", 1000), name="s")
        kernel.run_until_quiescent()
        assert barrier.trips == 1
        times = [t for _, t in after]
        # Everyone proceeds only once the slowest arrives.
        assert min(times) >= 1000

    def test_barrier_is_reusable(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        barrier = Barrier(parties=2, name="b")
        generations = []

        def worker():
            generation = yield sc.BarrierWait(barrier)
            generations.append(generation)
            generation = yield sc.BarrierWait(barrier)
            generations.append(generation)

        kernel.spawn(worker(), name="a")
        kernel.spawn(worker(), name="b")
        kernel.run_until_quiescent()
        assert barrier.trips == 2
        assert sorted(generations) == [1, 1, 2, 2]

    def test_single_party_barrier_never_blocks(self):
        kernel = make_kernel(n_processors=1)
        barrier = Barrier(parties=1)

        def worker():
            yield sc.BarrierWait(barrier)

        process = kernel.spawn(worker(), name="solo")
        kernel.run_until_quiescent()
        assert process.state is ProcessState.TERMINATED

    def test_invalid_parties_rejected(self):
        with pytest.raises(ValueError):
            Barrier(parties=0)


class TestConditionVariable:
    def test_wait_signal_roundtrip(self):
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        mutex = Mutex("m")
        cond = ConditionVariable(mutex, "c")
        events = []

        def waiter():
            yield sc.MutexAcquire(mutex)
            events.append("waiting")
            yield sc.CondWait(cond)
            events.append("woken")
            yield sc.MutexRelease(mutex)

        def signaller():
            yield sc.Compute(units.ms(1))
            yield sc.MutexAcquire(mutex)
            yield sc.CondSignal(cond)
            yield sc.MutexRelease(mutex)

        kernel.spawn(waiter(), name="w")
        kernel.spawn(signaller(), name="s")
        kernel.run_until_quiescent()
        assert events == ["waiting", "woken"]
        assert not mutex.held

    def test_broadcast_wakes_everyone(self):
        kernel = make_kernel(n_processors=4, context_switch_cost=0)
        mutex = Mutex("m")
        cond = ConditionVariable(mutex, "c")
        woken = []

        def waiter(tag):
            yield sc.MutexAcquire(mutex)
            yield sc.CondWait(cond)
            woken.append(tag)
            yield sc.MutexRelease(mutex)

        def broadcaster():
            yield sc.Compute(units.ms(1))
            yield sc.MutexAcquire(mutex)
            yield sc.CondBroadcast(cond)
            yield sc.MutexRelease(mutex)

        for tag in ("a", "b", "c"):
            kernel.spawn(waiter(tag), name=tag)
        kernel.spawn(broadcaster(), name="bc")
        kernel.run_until_quiescent()
        assert sorted(woken) == ["a", "b", "c"]
        assert not mutex.held

    def test_cond_wait_without_mutex_rejected(self):
        kernel = make_kernel(n_processors=1)
        mutex = Mutex("m")
        cond = ConditionVariable(mutex, "c")

        def bad():
            yield sc.CondWait(cond)  # never acquired the mutex

        kernel.spawn(bad(), name="bad")
        with pytest.raises(Exception):
            kernel.run_until_quiescent()

    def test_cond_wait_release_readmits_a_culled_waiter(self):
        # H holds the mutex, W1 queues and W2 is culled (admission 1).
        # H's CondWait hands the mutex to W1 and readmits W2; W1's
        # CondWait then hands it to W2, whose broadcast lets both finish.
        # Without readmission on a condition wait's release, W2 stays
        # culled on a free mutex and the run deadlocks.
        kernel = make_kernel(n_processors=3, context_switch_cost=0)
        mutex = Mutex("m", admission=1)
        cond = ConditionVariable(mutex, "c")

        def holder():
            yield sc.MutexAcquire(mutex)
            yield sc.Compute(100)
            yield sc.CondWait(cond)
            yield sc.MutexRelease(mutex)

        def waiter():
            yield sc.Compute(10)
            yield sc.MutexAcquire(mutex)
            yield sc.CondWait(cond)
            yield sc.MutexRelease(mutex)

        def broadcaster():
            yield sc.Compute(20)
            yield sc.MutexAcquire(mutex)
            yield sc.CondBroadcast(cond)
            yield sc.MutexRelease(mutex)

        procs = [
            kernel.spawn(holder(), name="h"),
            kernel.spawn(waiter(), name="w1"),
            kernel.spawn(broadcaster(), name="w2"),
        ]
        kernel.run_until_quiescent()
        assert all(p.state is ProcessState.TERMINATED for p in procs)
        assert mutex.passivations >= 1
        assert mutex.readmissions == mutex.passivations
        assert not mutex.held and not mutex.waiters and not mutex.culled

    @staticmethod
    def _handoff_telemetry(release):
        """One waiter queues at t=10; the holder hands the mutex over at
        t=105 through *release* (a MutexRelease or a CondWait)."""
        kernel = make_kernel(n_processors=2, context_switch_cost=0)
        mutex = Mutex("m")
        cond = ConditionVariable(mutex, "c")

        def holder():
            yield sc.MutexAcquire(mutex)
            yield sc.Compute(100)
            if release == "cond":
                yield sc.CondWait(cond)
            yield sc.MutexRelease(mutex)

        def waiter():
            yield sc.Compute(10)
            yield sc.MutexAcquire(mutex)
            yield sc.CondSignal(cond)
            yield sc.MutexRelease(mutex)

        kernel.spawn(holder(), name="h")
        kernel.spawn(waiter(), name="w")
        kernel.run_until_quiescent()
        return mutex.handoffs, mutex.total_wait_time

    def test_cond_wait_handoff_records_wait_latency(self):
        # The hand-off inside a CondWait is the mutex's own release, so it
        # records the waiter's queueing time exactly like a MutexRelease.
        assert self._handoff_telemetry("release") == (1, 95)
        assert self._handoff_telemetry("cond") == (1, 95)
