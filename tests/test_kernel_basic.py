"""Kernel basics: spawn/compute/exit, preemption, FIFO queueing, accounting."""

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.process import ProcessState
from repro.sim import TraceLog, units
from repro.sim.engine import SimulationError

from tests.conftest import make_kernel


def compute_program(amount, chunks=1):
    def program():
        for _ in range(chunks):
            yield sc.Compute(amount)

    return program()


def test_single_process_runs_to_completion():
    kernel = make_kernel(n_processors=1)
    process = kernel.spawn(compute_program(5000), name="p")
    kernel.run_until_quiescent()
    assert process.state is ProcessState.TERMINATED
    assert process.stats.cpu_time == 5000
    assert process.exit_time is not None


def test_compute_time_includes_context_switch_overhead():
    kernel = make_kernel(n_processors=1, context_switch_cost=100)
    process = kernel.spawn(compute_program(5000), name="p")
    kernel.run_until_quiescent()
    # dispatch overhead (100) + compute (5000)
    assert process.exit_time == 5100


def test_two_processes_run_in_parallel_on_two_cpus():
    kernel = make_kernel(n_processors=2, context_switch_cost=0)
    a = kernel.spawn(compute_program(1000), name="a")
    b = kernel.spawn(compute_program(1000), name="b")
    kernel.run_until_quiescent()
    assert a.exit_time == 1000
    assert b.exit_time == 1000


def test_quantum_preemption_round_robins():
    # One CPU, two CPU-bound processes: they must alternate per quantum.
    kernel = make_kernel(n_processors=1, quantum=units.ms(1), context_switch_cost=0)
    a = kernel.spawn(compute_program(units.ms(3)), name="a")
    b = kernel.spawn(compute_program(units.ms(3)), name="b")
    kernel.run_until_quiescent()
    assert a.stats.preemptions >= 2
    assert b.stats.preemptions >= 2
    # Total elapsed ~ 6ms (both jobs share the CPU).
    assert kernel.now == pytest.approx(units.ms(6), abs=units.ms(1))


def test_no_preemption_when_alone():
    kernel = make_kernel(n_processors=1, quantum=units.ms(1))
    a = kernel.spawn(compute_program(units.ms(10)), name="a")
    kernel.run_until_quiescent()
    assert a.stats.preemptions == 0  # quantum extends when queue empty


def test_ready_wait_time_grows_with_competition():
    kernel = make_kernel(n_processors=1, quantum=units.ms(1), context_switch_cost=0)
    procs = [
        kernel.spawn(compute_program(units.ms(2)), name=f"p{i}") for i in range(4)
    ]
    kernel.run_until_quiescent()
    # Later processes waited on the FIFO queue before first dispatch.
    assert procs[3].stats.ready_wait_time >= units.ms(3)


def test_fifo_order_of_first_dispatch():
    trace = TraceLog(categories=["kernel.dispatch"])
    kernel = make_kernel(n_processors=1, trace=trace, context_switch_cost=0)
    pids = [kernel.spawn(compute_program(100), name=f"p{i}").pid for i in range(3)]
    kernel.run_until_quiescent()
    dispatched = [r.data["pid"] for r in trace.records("kernel.dispatch")]
    assert dispatched == pids


def test_fork_creates_child_with_inherited_app():
    kernel = make_kernel(n_processors=2)
    seen = {}

    def parent():
        child_pid = yield sc.Fork(compute_program(100), name="kid")
        seen["child_pid"] = child_pid
        yield sc.Compute(100)

    parent_proc = kernel.spawn(parent(), name="parent", app_id="app1",
                               controllable=True)
    kernel.run_until_quiescent()
    child = kernel.processes[seen["child_pid"]]
    assert child.ppid == parent_proc.pid
    assert child.app_id == "app1"
    assert child.controllable is True
    assert child.state is ProcessState.TERMINATED


def test_exit_syscall_terminates_early():
    kernel = make_kernel(n_processors=1)

    def program():
        yield sc.Compute(100)
        yield sc.Exit()
        yield sc.Compute(10**9)  # must never run

    process = kernel.spawn(program(), name="p")
    kernel.run_until_quiescent()
    assert process.state is ProcessState.TERMINATED
    assert process.stats.cpu_time == 100


def test_yield_rotates_to_other_process():
    trace = TraceLog(categories=["kernel.dispatch"])
    kernel = make_kernel(n_processors=1, trace=trace, context_switch_cost=0)

    def yielder():
        yield sc.Compute(100)
        yield sc.Yield()
        yield sc.Compute(100)

    a = kernel.spawn(yielder(), name="a")
    b = kernel.spawn(compute_program(100), name="b")
    kernel.run_until_quiescent()
    dispatched = [r.data["pid"] for r in trace.records("kernel.dispatch")]
    assert dispatched == [a.pid, b.pid, a.pid]


def test_sleep_blocks_and_wakes():
    kernel = make_kernel(n_processors=1, context_switch_cost=0)
    marks = {}

    def sleeper():
        yield sc.Compute(100)
        yield sc.Sleep(units.ms(5))
        marks["woke_at"] = kernel.now
        yield sc.Compute(100)

    process = kernel.spawn(sleeper(), name="s")
    kernel.run_until_quiescent()
    assert marks["woke_at"] >= 100 + units.ms(5)
    assert process.stats.block_time >= units.ms(5)


def test_sleeping_process_frees_the_cpu():
    kernel = make_kernel(n_processors=1, context_switch_cost=0)

    def sleeper():
        yield sc.Sleep(units.ms(10))

    worker_done = {}

    def worker():
        yield sc.Compute(units.ms(1))
        worker_done["at"] = kernel.now

    kernel.spawn(sleeper(), name="s")
    kernel.spawn(worker(), name="w")
    kernel.run_until_quiescent()
    # Worker must have used the CPU while the sleeper slept.
    assert worker_done["at"] <= units.ms(2)


def test_runnable_census():
    kernel = make_kernel(n_processors=1)
    kernel.spawn(compute_program(10**6), name="a", app_id="x")
    kernel.spawn(compute_program(10**6), name="b", app_id="x")
    kernel.spawn(compute_program(10**6), name="c", app_id="y")
    assert kernel.runnable_count() == 3
    assert kernel.runnable_by_app() == {"x": 2, "y": 1}


def test_program_exception_is_wrapped():
    kernel = make_kernel(n_processors=1)

    def bad():
        yield sc.Compute(10)
        raise RuntimeError("boom")

    kernel.spawn(bad(), name="bad")
    with pytest.raises(SimulationError, match="boom"):
        kernel.run_until_quiescent()


def test_deadlock_is_detected():
    kernel = make_kernel(n_processors=1)

    def waiter():
        yield sc.WaitSignal()  # nobody will ever signal

    kernel.spawn(waiter(), name="stuck")
    with pytest.raises(SimulationError, match="deadlock"):
        kernel.run_until_quiescent()


def test_exit_listener_fires():
    kernel = make_kernel(n_processors=1)
    exited = []
    kernel.exit_listeners.append(lambda p: exited.append(p.name))
    kernel.spawn(compute_program(10), name="gone")
    kernel.run_until_quiescent()
    assert exited == ["gone"]


def test_accounting_buckets_sum_to_elapsed_time():
    kernel = make_kernel(n_processors=2, context_switch_cost=100)
    kernel.spawn(compute_program(units.ms(5)), name="a")
    kernel.spawn(compute_program(units.ms(2)), name="b")
    kernel.run_until_quiescent()
    kernel.finalize_accounting()
    for processor in kernel.machine.processors:
        assert processor.total_accounted() == kernel.now


def test_daemon_does_not_keep_simulation_alive():
    kernel = make_kernel(n_processors=1, context_switch_cost=0)

    def daemon():
        while True:
            yield sc.Sleep(units.ms(1))

    kernel.spawn(daemon(), name="d", daemon=True)
    kernel.spawn(compute_program(units.ms(3)), name="w")
    kernel.run_until_quiescent()  # must stop once the worker exits
    assert kernel.alive_nondaemon_count() == 0


class TestSharedSyscallRecords:
    """Syscall records are immutable values: the kernel keeps a burst's
    remainder on the process, so one record may be re-yielded, by one
    process or by several, and each yield is charged in full."""

    @staticmethod
    def _kernel(**config):
        """A kernel on the default machine costs (not the unit-test ones)."""
        from repro.kernel import Kernel
        from repro.machine import Machine, MachineConfig

        return Kernel(machine=Machine(MachineConfig(**config)))

    def test_one_record_yielded_three_times_is_charged_three_times(self):
        kernel = self._kernel(n_processors=1)
        burst = sc.Compute(1000)

        def program():
            for _ in range(3):
                yield burst

        process = kernel.spawn(program(), name="p")
        kernel.run_until_quiescent()
        assert process.stats.cpu_time == 3000
        assert process.exit_time == 7250
        assert burst.amount == 1000

    @pytest.mark.parametrize("n_processors", [1, 2])
    def test_one_record_shared_by_two_processes_charges_each(self, n_processors):
        kernel = self._kernel(n_processors=n_processors, quantum=units.ms(50))
        burst = sc.Compute(units.ms(120))

        def program():
            yield burst

        processes = [kernel.spawn(program(), name=f"p{i}") for i in range(2)]
        kernel.run_until_quiescent()
        assert [p.stats.cpu_time for p in processes] == [120_000, 120_000]
        # Under a 50 ms quantum the bursts were preempted mid-way on one
        # processor: the remainders lived on the processes.
        if n_processors == 1:
            assert all(p.stats.preemptions >= 1 for p in processes)
