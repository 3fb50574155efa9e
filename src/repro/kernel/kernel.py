"""The kernel: mechanism for dispatch, preemption, syscalls, and accounting.

The kernel drives simulated programs (Python generators yielding syscall
objects from :mod:`repro.kernel.syscalls`) over the processors of a
:class:`repro.machine.Machine`, under a pluggable
:class:`repro.kernel.scheduler.SchedulerPolicy`.

Mechanisms reproduced from the paper's platform:

* per-processor time quanta with preemption to the policy's queue;
* context-switch and dispatch costs, plus cache-reload penalties computed
  from the machine's warmth model (Section 2, points 3-4);
* spinlocks that burn processor time while spinning, including the
  pathological case of spinning on a lock whose holder is preempted
  (Section 2, point 1);
* signals for process suspension/resumption (Section 5);
* a load-summary syscall for the centralized server (Section 5):
  ``GetLoadSummary`` models the paper's query for the runnable processes
  at its per-process cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.kernel.config import KernelConfig
from repro.kernel.ipc import Channel
from repro.kernel.process import (
    Process,
    ProcessState,
    RUNNABLE_STATES,
)
from repro.kernel import syscalls as sc
from repro.kernel.scheduler.base import SchedulerPolicy
from repro.kernel.scheduler.fifo import FifoScheduler
from repro.machine import Machine
from repro.metrics.timeseries import StepSeries
from repro.sim import Engine, TraceLog, units
from repro.sim.engine import EventHandle, SimulationError
from repro.sync.lock import CULL, GRANT

# Costs of kernel services, in microseconds.  Hardware-level costs
# (quantum, context switch, cache) live in MachineConfig.
#: Process creation.
FORK_COST = 500
#: Sending a signal (a suspend/resume round uses two).
SIGNAL_COST = 50
#: Arming a timer; no sleep is shorter.
SLEEP_COST = 20
#: A voluntary reschedule.
YIELD_COST = 10
#: A process-table read (the table or the load summary): a fixed part
#: plus a part per row.  The per-row part is what motivates the paper's
#: centralized, rather than per-application, server.
TABLE_READ_BASE_COST = 100
TABLE_READ_PER_PROCESS_COST = 3
#: One socket send or receive.
CHANNEL_OP_COST = 40
#: How long a quantum-expired process may keep running because its
#: no-preempt flag is set before the scheduler preempts it anyway (the
#: fairness bound of the Zahorjan scheme).
NOPREEMPT_GRACE = units.ms(5)

#: Syscalls that may park their caller, mapped to the wait list's owner.
_WAIT_LISTS = {
    sc.SpinAcquire: attrgetter("lock"),
    sc.MutexAcquire: attrgetter("mutex"),
    sc.SemWait: attrgetter("sem"),
    sc.BarrierWait: attrgetter("barrier"),
    sc.CondWait: attrgetter("cond"),
    sc.ChannelReceive: attrgetter("channel"),
    sc.ChannelSend: attrgetter("channel"),
}


@dataclass
class _CpuState:
    """Kernel-private per-processor bookkeeping."""

    #: Accounting bucket the elapsed time belongs to: idle/overhead/busy/spin.
    kind: str = "idle"
    #: What the current segment is: None, "overhead", "compute", "micro", "spin".
    segment_kind: Optional[str] = None
    segment_started: int = 0
    segment_event: Optional[EventHandle] = None
    quantum_event: Optional[EventHandle] = None
    stint_started: int = 0


class Kernel:
    """A simulated UMAX-like kernel."""

    def __init__(
        self,
        machine: Optional[Machine] = None,
        engine: Optional[Engine] = None,
        policy: Optional[SchedulerPolicy] = None,
        config: Optional[KernelConfig] = None,
        trace: Optional[TraceLog] = None,
    ) -> None:
        self.machine = machine or Machine()
        self.engine = engine or Engine()
        self.config = config or KernelConfig()
        # Note: explicit None check -- an empty TraceLog is falsy (len == 0).
        self.trace = trace if trace is not None else TraceLog(enabled=False)
        self.policy = policy or FifoScheduler()
        self.policy.attach(self)

        self.processes: Dict[int, Process] = {}
        self._next_pid = 1
        self._alive_nondaemon = 0
        self.engine.done_hint = True  # no processes yet; see run_until_done
        self._cpu: List[_CpuState] = [
            _CpuState() for _ in range(self.machine.n_processors)
        ]
        #: Processors currently offline (fault injection / hot-unplug).
        self._offline: set = set()
        #: Cached tuple of online cpu ids: the dispatch pass iterates this
        #: every event, so membership tests against ``_offline`` would be
        #: pure overhead on the (usual) healthy machine.
        self._dispatch_cpus = tuple(range(self.machine.n_processors))
        #: Online processors with no current process.  The dispatch pass
        #: visits these (ascending, matching the full scan's order) instead
        #: of every online cpu, so a pass on a mostly-busy 1024-CPU machine
        #: costs O(idle), not O(processors).  Maintained at the only two
        #: sites that change ``Processor.current`` (_dispatch/_undispatch)
        #: plus hot-plug.
        self._idle_cpus = set(range(self.machine.n_processors))
        #: Under a shared run queue, a lazy min-heap beside ``_idle_cpus``
        #: (an entry whose cpu is no longer idle is dropped when it
        #: surfaces), so the pass finds the lowest idle cpu in O(log n)
        #: instead of sorting the set.  ``None`` for per-cpu policies.
        self._idle_heap: Optional[List[int]] = (
            list(range(self.machine.n_processors))
            if self.policy.shared_queue
            else None
        )
        self._dispatch_scheduled = False
        # Hot-path caches: the processor list never changes after
        # construction, and the per-cpu completion callbacks close over
        # nothing but the cpu index (and the segment kind they end), so
        # minting a fresh closure per scheduled segment/quantum event would
        # be pure allocation churn.  functools.partial beats an equivalent
        # lambda here: calling it enters the bound method directly instead
        # of an extra frame.
        self._processors = self.machine.processors
        self._cache = self.machine.cache
        # Pre-bound engine.schedule: the engine is fixed for the kernel's
        # lifetime, and hot paths schedule hundreds of thousands of events.
        self._schedule = self.engine.schedule
        n = self.machine.n_processors
        self._cb_begin_service = [partial(self._begin_service, c) for c in range(n)]
        self._cb_micro_done = [partial(self._service, c, "micro") for c in range(n)]
        self._cb_compute_done = [
            partial(self._service, c, "compute") for c in range(n)
        ]
        self._cb_quantum_expired = [
            partial(self._quantum_expired, c) for c in range(n)
        ]
        # Trace-filter verdicts for the highest-frequency categories.
        # Filters are fixed at TraceLog construction, so deciding once here
        # spares building (and discarding) a kwargs dict per event.
        wants = self.trace.wants
        self._want_dispatch_trace = wants("kernel.dispatch")
        self._want_preempt_trace = wants("kernel.preempt")
        self._want_block_trace = wants("kernel.block")
        self._want_wake_trace = wants("kernel.wake")
        self._want_spawn_trace = wants("kernel.spawn")
        self._want_exit_trace = wants("kernel.exit")
        self._want_yield_trace = wants("kernel.yield")
        self._want_signal_trace = wants("kernel.signal")
        self._want_spin_trace = wants("spin.wait")
        # Sparse census: the runnable counts, the per-application alive
        # totals, and the uncontrolled-runnable count are maintained
        # incrementally at every state transition, so consumers (Figure
        # 5's series, the control server's load summaries) pay for what
        # changed instead of scanning the whole process table.
        self._runnable_total = 0
        self._runnable_per_app: Dict[Optional[str], int] = {}
        self._uncontrolled_runnable = 0
        #: Figure 5's step series, written by the census at each change:
        #: the runnable total, and the runnable count of the application
        #: that changed.  ``None`` when ``config.runnable_trace`` is off;
        #: :meth:`detach_runnable_series` hands them over.
        self._series_total: Optional[StepSeries] = (
            StepSeries() if self.config.runnable_trace else None
        )
        self._series_by_app: Dict[Optional[str], StepSeries] = {}
        self._alive_total = 0
        #: Every process (alive or dead) per application id, in spawn
        #: order; backs :meth:`processes_of_app` without a table scan.
        self._procs_by_app: Dict[str, List[Process]] = {}
        #: Alive *controllable* process count per application id.
        self._app_alive: Dict[str, int] = {}
        #: Append-only change journal over ``_app_alive``: one
        #: ``(app_id, new_total)`` entry per change.  Control servers keep
        #: a cursor into it and replay only the tail on each scan
        #: (:class:`repro.kernel.syscalls.GetLoadSummary`).
        self._census_journal: List[tuple] = []
        # Policy methods called once or more per dispatch/quantum event.
        self._policy_enqueue = self.policy.enqueue
        self._policy_dequeue = self.policy.dequeue
        self._policy_has_waiting = self.policy.has_waiting
        self._policy_quantum_for = self.policy.quantum_for
        #: Callbacks invoked with the Process whenever one terminates.
        self.exit_listeners: List[Callable[[Process], None]] = []

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulation time in microseconds.

        Kernel-internal hot paths read ``self.engine.now`` directly (a plain
        attribute) instead of paying this property's descriptor hop.
        """
        return self.engine.now

    def spawn(
        self,
        program: Any,
        name: str = "process",
        app_id: Optional[str] = None,
        controllable: bool = False,
        daemon: bool = False,
        ppid: int = 0,
        cache_footprint: float = 1.0,
    ) -> Process:
        """Create a process running *program* and make it runnable."""
        if cache_footprint < 0:
            raise ValueError("cache_footprint must be >= 0")
        pid = self._next_pid
        self._next_pid += 1
        process = Process(
            pid=pid,
            program=program,
            name=name,
            app_id=app_id,
            controllable=controllable,
            daemon=daemon,
            ppid=ppid,
        )
        process.cache_footprint = cache_footprint
        process.spawn_time = self.engine.now
        process.state = ProcessState.READY
        process.ready_since = self.engine.now
        self.processes[pid] = process
        if app_id is not None:
            bucket = self._procs_by_app.get(app_id)
            if bucket is None:
                self._procs_by_app[app_id] = [process]
            else:
                bucket.append(process)
        if not daemon:
            self._alive_nondaemon += 1
            self.engine.done_hint = False
        self._alive_total += 1
        if controllable and app_id is not None:
            t = self._app_alive.get(app_id, 0) + 1
            self._app_alive[app_id] = t
            self._census_journal.append((app_id, t))
        self._census_gain(process)
        self.policy.on_process_spawn(process)
        self.policy.enqueue(process, "new")
        if self._want_spawn_trace:
            self.trace.emit(
                self.engine.now, "kernel.spawn", pid=pid, name=name, app_id=app_id
            )
        self._request_dispatch()
        return process

    def runnable_count(self) -> int:
        """Total runnable (READY + RUNNING) processes (O(1): maintained
        incrementally at every state transition)."""
        return self._runnable_total

    def runnable_by_app(self) -> Dict[Optional[str], int]:
        """Runnable process count per application id (O(apps), not
        O(processes): a copy of the incrementally-maintained census)."""
        return dict(self._runnable_per_app)

    def detach_runnable_series(self) -> Tuple[StepSeries, Dict[str, StepSeries]]:
        """Hand over Figure 5's series ``(total, per_app)``; the kernel
        stops writing them.  An application's series (``"<none>"`` for
        processes without one) has a point where its own count changed;
        both are empty when ``config.runnable_trace`` is off."""
        total = self._series_total
        per_app = {
            ("<none>" if app is None else app): series
            for app, series in self._series_by_app.items()
        }
        self._series_total = None
        self._series_by_app = {}
        return (StepSeries() if total is None else total), per_app

    def alive_nondaemon_count(self) -> int:
        """Processes that keep an experiment alive (non-daemon, not exited).

        Maintained as a counter (updated at spawn/exit): completion
        predicates consult this once per event, so an O(processes) scan
        here would dominate long oversubscribed runs.
        """
        return self._alive_nondaemon

    def processes_of_app(self, app_id: str) -> List[Process]:
        """All (alive or dead) processes tagged with *app_id*.

        Served from a spawn-ordered per-application index (spawn order ==
        pid order == the order the old full-table scan produced); the scan
        was O(processes) per call, which per-application reporting over
        10k applications turns quadratic.
        """
        return list(self._procs_by_app.get(app_id, ()))

    def force_preempt(self, cpu: int) -> None:
        """Preempt whatever runs on *cpu* now (used by gang scheduling)."""
        if self._processors[cpu].current is not None:
            self._preempt(cpu, reason="policy")

    # ------------------------------------------------------------------
    # CPU hot-plug (fault injection)
    # ------------------------------------------------------------------

    def cpu_is_online(self, cpu: int) -> bool:
        """True if *cpu* is currently accepting work."""
        return cpu not in self._offline

    def online_cpus(self) -> List[int]:
        """Ids of the processors currently online, ascending."""
        return list(self._dispatch_cpus)

    def online_processor_count(self) -> int:
        """Number of processors currently online."""
        return len(self._dispatch_cpus)

    def cpu_offline(self, cpu: int) -> bool:
        """Take *cpu* out of service, migrating its current process.

        The victim (if any) is preempted back to the policy's queue first,
        so it re-runs elsewhere with ordinary preemption semantics.  The
        last online processor cannot be removed -- the machine must keep
        making progress -- in which case this returns ``False`` and the
        topology is unchanged.  Returns ``True`` when the cpu went offline.
        """
        if not 0 <= cpu < self.machine.n_processors:
            raise ValueError(f"no such cpu {cpu}")
        if cpu in self._offline:
            return False
        if len(self._dispatch_cpus) <= 1:
            self.trace.emit(self.engine.now, "kernel.cpu_offline_refused", cpu=cpu)
            return False
        if self._processors[cpu].current is not None:
            self._preempt(cpu, reason="offline")
        self._offline.add(cpu)
        self._idle_cpus.discard(cpu)
        self._dispatch_cpus = tuple(
            c for c in range(self.machine.n_processors) if c not in self._offline
        )
        self.trace.emit(self.engine.now, "kernel.cpu_offline", cpu=cpu)
        self.policy.on_cpu_offline(cpu)
        return True

    def cpu_online(self, cpu: int) -> bool:
        """Return *cpu* to service.  Returns ``False`` if it was not offline."""
        if not 0 <= cpu < self.machine.n_processors:
            raise ValueError(f"no such cpu {cpu}")
        if cpu not in self._offline:
            return False
        self._offline.discard(cpu)
        self._idle_cpus.add(cpu)
        if self._idle_heap is not None:
            heappush(self._idle_heap, cpu)
        self._dispatch_cpus = tuple(
            c for c in range(self.machine.n_processors) if c not in self._offline
        )
        self.trace.emit(self.engine.now, "kernel.cpu_online", cpu=cpu)
        self.policy.on_cpu_online(cpu)
        self._request_dispatch()
        return True

    def kill(self, pid: int) -> bool:
        """Forcibly terminate *pid* wherever it is (fault injection).

        Works on RUNNING, READY, and BLOCKED processes; the victim is
        detached from whatever wait list it was parked on.  Like a real
        kill, any spinlock the victim holds is NOT released -- callers
        model crashes of processes at safe points (e.g. the control
        server).  Returns ``False`` if the pid is unknown or already dead.
        """
        process = self.processes.get(pid)
        if process is None or not process.alive:
            return False
        self.trace.emit(
            self.engine.now, "kernel.kill", pid=pid, state=process.state.name
        )
        if process.state is ProcessState.RUNNING:
            if process.cpu is None:
                raise SimulationError(f"running process {pid} has no cpu")
            self._exit_current(process.cpu)
        else:
            self._terminate_off_cpu(process)
        return True

    def request_dispatch(self) -> None:
        """Ask the kernel to fill idle processors (used by policies)."""
        self._request_dispatch()

    def run_until_quiescent(
        self,
        done: Optional[Callable[[], bool]] = None,
        max_events: int = 50_000_000,
        max_time: Optional[int] = None,
        done_exit_gated: bool = False,
    ) -> None:
        """Step the engine until *done* returns True (default: all non-daemon
        processes have terminated), the calendar empties, or a guard trips.

        Pass ``done_exit_gated=True`` if the supplied *done* can only be
        true once every non-daemon process has exited (true of the normal
        experiment predicates): the event loop then skips the predicate
        call while the kernel's live-process counter is nonzero, which is
        observably identical but markedly cheaper on long runs.

        Raises :class:`SimulationError` on the event guard; raises on time
        guard as well, since hitting either means a hang in an experiment.
        """
        if done is None:
            done = lambda: self.alive_nondaemon_count() == 0  # noqa: E731
            done_exit_gated = True
        self.engine.run_until_done(
            done,
            max_events=max_events,
            max_time=max_time,
            exit_gated=done_exit_gated,
        )

    # ------------------------------------------------------------------
    # Accounting helpers
    # ------------------------------------------------------------------

    def _mark(self, cpu: int, new_kind: str) -> None:
        """Close the current accounting interval on *cpu*, open *new_kind*."""
        state = self._cpu[cpu]
        processor = self._processors[cpu]
        now = self.engine.now
        # Zero-length intervals are common (undispatch immediately followed
        # by dispatch at the same microsecond); account() would only
        # restamp its bookkeeping, so skip the call.
        if now != processor._last_accounted:
            processor.account(now, state.kind)
        state.kind = new_kind

    def finalize_accounting(self) -> None:
        """Settle all per-processor accounting up to the current time.

        Call once at the end of a run before reading utilization summaries.
        """
        for cpu in range(self.machine.n_processors):
            self._mark(cpu, self._cpu[cpu].kind)

    def _census_gain(self, process: Process) -> None:
        """A process became runnable (READY/RUNNING): bump the counters."""
        total = self._runnable_total = self._runnable_total + 1
        app = process.app_id
        per = self._runnable_per_app
        n = per[app] = per.get(app, 0) + 1
        if not process.controllable:
            self._uncontrolled_runnable += 1
        if self._series_total is not None:
            self._note_census(app, n, total)

    def _census_lose(self, process: Process) -> None:
        """A process stopped being runnable: drop the counters."""
        total = self._runnable_total = self._runnable_total - 1
        app = process.app_id
        per = self._runnable_per_app
        n = per[app] - 1
        if n:
            per[app] = n
        else:
            del per[app]
        if not process.controllable:
            self._uncontrolled_runnable -= 1
        if self._series_total is not None:
            self._note_census(app, n, total)

    def _note_census(self, app: Optional[str], n: int, total: int) -> None:
        """Append a census change to Figure 5's series: O(1), the total
        and the one application whose count moved."""
        now = self.engine.now
        self._series_total.append(now, total)
        series = self._series_by_app.get(app)
        if series is None:
            series = self._series_by_app[app] = StepSeries()
        series.append(now, n)

    def _census_exit(self, process: Process) -> None:
        """A process terminated: settle the alive totals and the journal."""
        self._alive_total -= 1
        app = process.app_id
        if process.controllable and app is not None:
            t = self._app_alive[app] - 1
            if t:
                self._app_alive[app] = t
            else:
                del self._app_alive[app]
            self._census_journal.append((app, t))

    def census_journal_entries(self, start: int, stop: int) -> List[tuple]:
        """The ``(app_id, new_total)`` journal slice ``[start:stop)``."""
        return self._census_journal[start:stop]

    def census_totals_before(self, app_ids: List[str], stop: int) -> Dict[str, int]:
        """Each of *app_ids*' total as of journal entry *stop*: its last
        entry in ``[0:stop)``, and no key if it has none.  Walks backward
        from *stop* until every id is found, so it is meant for rare
        questions (a shard taking over applications), not every scan."""
        wanted = set(app_ids)
        totals: Dict[str, int] = {}
        journal = self._census_journal
        i = stop
        while wanted and i > 0:
            i -= 1
            app_id, total = journal[i]
            if app_id in wanted:
                wanted.discard(app_id)
                totals[app_id] = total
        return totals

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------

    def _request_dispatch(self) -> None:
        if not self._dispatch_scheduled:
            self._dispatch_scheduled = True
            self.engine.schedule(0, self._dispatch_pass, label="dispatch-pass")

    def _dispatch_pass(self) -> None:
        self._dispatch_scheduled = False
        idle = self._idle_cpus
        if not idle:
            return
        heap = self._idle_heap
        if heap is not None:
            # A shared queue: the lowest idle cpu first, and one empty pull
            # answers for every remaining idle processor.
            while idle:
                cpu = heap[0]
                if cpu not in idle:
                    heappop(heap)
                    continue
                process = self._policy_dequeue(cpu)
                if process is None:
                    return
                heappop(heap)
                self._dispatch(cpu, process)
            return
        # Ascending id order, exactly like the full scan the set replaces.
        cpus = (
            self._dispatch_cpus
            if len(idle) == len(self._dispatch_cpus)
            else sorted(idle)
        )
        for cpu in cpus:
            if self._processors[cpu].current is None:
                process = self._policy_dequeue(cpu)
                if process is not None:
                    self._dispatch(cpu, process)

    def _dispatch(self, cpu: int, process: Process) -> None:
        processor = self._processors[cpu]
        if processor.current is not None:
            raise SimulationError(f"dispatch onto busy cpu {cpu}")
        if process.state is not ProcessState.READY:
            raise SimulationError(
                f"dispatch of process {process.pid} in state {process.state.name}"
            )
        state = self._cpu[cpu]
        mconfig = self.machine.config
        reload_penalty = int(
            self._cache.reload_penalty(cpu, process.pid)
            * process.cache_footprint
        )
        overhead = (
            mconfig.context_switch_cost + mconfig.dispatch_latency + reload_penalty
        )

        engine = self.engine
        now = engine.now
        if process.ready_since is not None:
            process.stats.ready_wait_time += now - process.ready_since
            process.ready_since = None
        process.state = ProcessState.RUNNING
        process.cpu = cpu
        process.stats.dispatches += 1
        processor.current = process
        self._idle_cpus.discard(cpu)
        processor.dispatches += 1

        self._mark(cpu, "overhead")
        state.stint_started = now
        state.segment_kind = "overhead"
        state.segment_started = now
        quantum = self._policy_quantum_for(process, cpu)
        state.quantum_event = self._schedule(
            overhead + quantum, self._cb_quantum_expired[cpu], "quantum"
        )
        state.segment_event = self._schedule(
            overhead, self._cb_begin_service[cpu], "begin-service"
        )
        if self._want_dispatch_trace:
            self.trace.emit(
                now,
                "kernel.dispatch",
                pid=process.pid,
                cpu=cpu,
                overhead=overhead,
                reload=reload_penalty,
            )

    def _begin_service(self, cpu: int) -> None:
        state = self._cpu[cpu]
        state.segment_event = None
        state.segment_kind = None
        self._mark(cpu, "busy")
        self._service(cpu)

    def _undispatch(self, cpu: int) -> Process:
        """Take the current process off *cpu*, settling all accounting."""
        processor = self._processors[cpu]
        state = self._cpu[cpu]
        process = processor.current
        if process is None:
            raise SimulationError(f"undispatch of idle cpu {cpu}")

        now = self.engine.now
        if state.segment_kind == "compute":
            ran = now - state.segment_started
            if not isinstance(process.pending_syscall, sc.Compute):
                raise SimulationError("compute segment without Compute syscall")
            if process.compute_left < ran:
                raise SimulationError("compute segment accounting mismatch")
            process.compute_left -= ran
            process.stats.cpu_time += ran
        elif state.segment_kind == "spin":
            # Preempted or killed mid-spin: out of the spin set, with the
            # acquire still pending.
            self._settle_spin(cpu, process).stop_spinning(process)

        if state.segment_event is not None:
            state.segment_event.cancel()
            state.segment_event = None
        if state.quantum_event is not None:
            state.quantum_event.cancel()
            state.quantum_event = None
        state.segment_kind = None

        self._cache.note_execution(
            cpu, process.pid, now - state.stint_started
        )
        processor.current = None
        if cpu not in self._offline:
            self._idle_cpus.add(cpu)
            if self._idle_heap is not None:
                heappush(self._idle_heap, cpu)
        process.cpu = None
        process.last_cpu = cpu
        self._mark(cpu, "idle")
        return process

    def _settle_spin(self, cpu: int, process: Process) -> Any:
        """Account a spinning interval ending now; returns the lock."""
        state = self._cpu[cpu]
        elapsed = self.engine.now - state.segment_started
        lock = process.spinning_on
        if lock is None:
            raise SimulationError("spin segment without a lock")
        process.stats.spin_time += elapsed
        lock.total_spin_time += elapsed
        process.spinning_on = None
        return lock

    # ------------------------------------------------------------------
    # Preemption
    # ------------------------------------------------------------------

    def _quantum_expired(self, cpu: int) -> None:
        state = self._cpu[cpu]
        state.quantum_event = None
        process = self._processors[cpu].current
        if process is None:
            return
        if process.no_preempt and not process.deferred_preempt:
            # Zahorjan scheme: honour the flag once, for a bounded grace.
            process.deferred_preempt = True
            state.quantum_event = self._schedule(
                NOPREEMPT_GRACE,
                self._cb_quantum_expired[cpu],
                "quantum-grace",
            )
            self.trace.emit(
                self.engine.now, "kernel.preempt_deferred", pid=process.pid, cpu=cpu
            )
            return
        if not self._policy_has_waiting(cpu):
            # Nobody is waiting: extend the current process instead of a
            # pointless same-process context switch.
            quantum = self._policy_quantum_for(process, cpu)
            state.quantum_event = self._schedule(
                quantum, self._cb_quantum_expired[cpu], "quantum"
            )
            return
        self._preempt(cpu, reason="quantum")

    def _preempt(self, cpu: int, reason: str) -> None:
        process = self._undispatch(cpu)
        process.deferred_preempt = False
        process.stats.preemptions += 1
        in_cs = process.locks_held > 0
        if in_cs:
            process.stats.preemptions_in_critical_section += 1
        process.state = ProcessState.READY
        process.ready_since = self.engine.now
        self._policy_enqueue(process, "preempted")
        if self._want_preempt_trace:
            self.trace.emit(
                self.engine.now,
                "kernel.preempt",
                pid=process.pid,
                cpu=cpu,
                reason=reason,
                in_critical_section=in_cs,
            )
        self._request_dispatch()

    # ------------------------------------------------------------------
    # Blocking and waking
    # ------------------------------------------------------------------

    def _block_current(self, cpu: int, reason: str) -> Process:
        process = self._undispatch(cpu)
        process.state = ProcessState.BLOCKED
        process.block_reason = reason
        process.blocked_since = self.engine.now
        self._census_lose(process)
        if self._want_block_trace:
            self.trace.emit(
                self.engine.now, "kernel.block", pid=process.pid, reason=reason
            )
        self._request_dispatch()
        return process

    def _wake(self, process: Process) -> None:
        if process.state is not ProcessState.BLOCKED:
            raise SimulationError(
                f"wake of process {process.pid} in state {process.state.name}"
            )
        if process.blocked_since is not None:
            process.stats.block_time += self.engine.now - process.blocked_since
            process.blocked_since = None
        process.block_reason = None
        process.state = ProcessState.READY
        process.ready_since = self.engine.now
        self._census_gain(process)
        self._policy_enqueue(process, "unblocked")
        if self._want_wake_trace:
            self.trace.emit(self.engine.now, "kernel.wake", pid=process.pid)
        self._request_dispatch()

    def _complete_wait(self, process: Process, result: Any) -> None:
        """Complete a blocked waiter's pending syscall and wake it."""
        process.pending_syscall = None
        process.syscall_result = result
        self._wake(process)

    def _exit_current(self, cpu: int) -> None:
        process = self._undispatch(cpu)
        self._census_lose(process)
        self._retire(process)

    def _terminate_off_cpu(self, process: Process) -> None:
        """Terminate a READY or BLOCKED process (the :meth:`kill` path).

        Mirrors :meth:`_exit_current` minus the undispatch; the shared tail
        in :meth:`_retire` detaches the victim from whatever wait list it is
        parked on so nobody later tries to wake a corpse.
        """
        if process.state is ProcessState.READY:
            # The policy drops its queue entry in on_process_exit.
            self._census_lose(process)
        elif process.state is not ProcessState.BLOCKED:
            raise SimulationError(
                f"off-cpu termination of process {process.pid} "
                f"in state {process.state.name}"
            )
        self._retire(process)

    def _retire(self, process: Process) -> None:
        """The exit tail of both entry points, for a process already off
        its processor and out of the runnable census."""
        self._detach_from_wait_list(process)
        process.pending_syscall = None
        process.state = ProcessState.TERMINATED
        process.exit_time = self.engine.now
        process.ready_since = None
        process.blocked_since = None
        if not process.daemon:
            self._alive_nondaemon -= 1
            if self._alive_nondaemon == 0:
                self.engine.done_hint = True
        self._census_exit(process)
        self.machine.cache.evict_process(process.pid)
        self.policy.on_process_exit(process)
        if self._want_exit_trace:
            self.trace.emit(
                self.engine.now, "kernel.exit", pid=process.pid, name=process.name
            )
        # Release joiners blocked in WaitPid on this process.
        joiners, process.join_waiters = process.join_waiters, []
        for joiner in joiners:
            self._complete_wait(joiner, True)
        for listener in list(self.exit_listeners):
            listener(process)
        self._request_dispatch()

    def _detach_from_wait_list(self, process: Process) -> None:
        """Remove a dying *process* from the structure it is waiting on.

        The pending syscall identifies the wait list, and its owner detaches
        the process.  A sleeping process has no pending syscall; its wake
        event checks the state first, so the corpse is simply ignored.  A
        process parked in WaitSignal is found via ``waiting_signal``.
        """
        if process.waiting_signal:
            process.waiting_signal = False
            return
        syscall = process.pending_syscall
        primitive_of = _WAIT_LISTS.get(type(syscall))
        if primitive_of is not None:
            primitive_of(syscall).detach(process)
        elif isinstance(syscall, sc.WaitPid):
            target = self.processes.get(syscall.pid)
            if target is not None and process in target.join_waiters:
                target.join_waiters.remove(process)

    # ------------------------------------------------------------------
    # Syscall service loop
    # ------------------------------------------------------------------

    def _finish_syscall(self, cpu: int, process: Process, result: Any, cost: int) -> bool:
        """Complete the pending syscall; charge *cost* as CPU time.

        Returns True if the service loop may continue immediately, False if
        a cost segment was scheduled (the loop must return).
        """
        process.pending_syscall = None
        process.syscall_result = result
        if cost <= 0:
            return True
        process.stats.cpu_time += cost
        state = self._cpu[cpu]
        state.segment_kind = "micro"
        state.segment_started = self.engine.now
        state.segment_event = self._schedule(
            cost, self._cb_micro_done[cpu], "micro"
        )
        return False

    def _service(self, cpu: int, done: Optional[str] = None) -> None:
        """Drive the current process until it blocks, computes, or exits.

        *done* names the segment whose completion event enters here
        (``"compute"`` or ``"micro"``, bound into the per-cpu callbacks);
        it is ``None`` when the caller has already closed the segment.
        """
        processor = self._processors[cpu]
        if done is not None:
            state = self._cpu[cpu]
            state.segment_event = None
            state.segment_kind = None
            if done == "compute":
                process = processor.current
                process.stats.cpu_time += process.compute_left
                process.compute_left = 0
                process.pending_syscall = None
        handlers = self._HANDLERS
        compute_type = sc.Compute
        while True:
            process = processor.current
            if process is None:
                return
            syscall = process.pending_syscall
            if syscall is None:
                # Inlined :meth:`_advance`: resume the program generator.
                try:
                    result = process.syscall_result
                    process.syscall_result = None
                    syscall = process.program.send(result)
                except StopIteration:
                    # Only an exhausted program is dropped: a suspended one
                    # (Exit syscall, kill) would run its finally blocks.
                    process.program = None
                    self._exit_current(cpu)
                    return
                except Exception as exc:
                    raise SimulationError(
                        f"program of process {process.pid} ({process.name!r}) "
                        f"raised {type(exc).__name__}: {exc}"
                    ) from exc
                process.pending_syscall = syscall
                syscall_type = type(syscall)
                if syscall_type is compute_type:
                    process.compute_left = syscall.amount
            else:
                syscall_type = type(syscall)

            if syscall_type is compute_type:
                # Compute dominates every workload's syscall mix, so it is
                # served here and has no handler in the table.  The burst
                # (or a preempted burst's remainder) runs from the process's
                # own ``compute_left``.
                left = process.compute_left
                if left <= 0:
                    process.pending_syscall = None
                    continue
                state = self._cpu[cpu]
                state.segment_kind = "compute"
                state.segment_started = self.engine.now
                state.segment_event = self._schedule(
                    left, self._cb_compute_done[cpu], "compute"
                )
                return

            handler = handlers.get(syscall_type)
            if handler is None:
                raise SimulationError(
                    f"process {process.pid} yielded unknown syscall "
                    f"{type(syscall).__name__}"
                )
            if not handler(self, cpu, process, syscall):
                return

    # Each handler returns True to continue the service loop immediately,
    # False if the process left the loop (blocked, spinning, exited, or a
    # cost segment was scheduled).

    # The sync handlers ask the primitive to decide (see repro.sync) and
    # apply its answer: block, wake, spin, and charge.

    def _sys_spin_acquire(
        self, cpu: int, process: Process, syscall: sc.SpinAcquire
    ) -> bool:
        lock = syscall.lock
        now = self.engine.now
        outcome = lock.acquire(process, now)
        if outcome is GRANT:
            process.locks_held += 1
            return self._finish_syscall(cpu, process, True, lock.acquire_cost)
        holder = self.processes.get(lock.holder_pid)
        holder_running = holder is not None and holder.state is ProcessState.RUNNING
        if not holder_running:
            lock.holder_preempted_encounters += 1
            self.trace.emit(
                now,
                "spin.holder_preempted",
                lock=lock.name,
                pid=process.pid,
                holder=lock.holder_pid,
            )
        if outcome is CULL:
            # Blocks with the acquire pending; a readmitting wake retries it.
            self._trace_cull(lock, process)
            self._block_current(cpu, f"spinlock:{lock.name}")
            return False
        process.spinning_on = lock
        state = self._cpu[cpu]
        state.segment_kind = "spin"
        state.segment_started = now
        self._mark(cpu, "spin")
        if self._want_spin_trace:
            self.trace.emit(
                now, "spin.wait", lock=lock.name, pid=process.pid, cpu=cpu
            )
        return False

    def _sys_spin_release(
        self, cpu: int, process: Process, syscall: sc.SpinRelease
    ) -> bool:
        lock = syscall.lock
        now = self.engine.now
        # Priced only when a spinner will be granted, and before it leaves
        # the spin set: the storm is driven by the spinners still chewing on
        # the line after it stops spinning.
        handoff_charge = lock.handoff_charge() if lock.active else 0
        grantee = lock.release(process.pid, now)
        process.locks_held -= 1
        if process.locks_held < 0:
            raise SimulationError(
                f"process {process.pid} released more spinlocks than held"
            )
        if grantee is not None:
            # The longest spinner stops spinning and pays the hand-off.
            gcpu = grantee.cpu
            if gcpu is None or grantee.state is not ProcessState.RUNNING:
                raise SimulationError(
                    "spinner list contained a process that is not running"
                )
            self._settle_spin(gcpu, grantee)
            grantee.locks_held += 1
            grantee.pending_syscall = None
            grantee.syscall_result = True
            self._mark(gcpu, "busy")
            gstate = self._cpu[gcpu]
            gstate.segment_kind = "micro"
            gstate.segment_started = now
            gstate.segment_event = self.engine.schedule(
                handoff_charge, self._cb_micro_done[gcpu], "spin-handoff"
            )
        if lock.culled:
            self._readmit(lock)
        return self._finish_syscall(cpu, process, None, lock.release_cost)

    def _trace_cull(self, lock: Any, process: Process) -> None:
        self.trace.emit(
            self.engine.now,
            "lock.cull",
            lock=lock.name,
            pid=process.pid,
            culled=lock.n_culled,
        )

    def _readmit(self, lock: Any) -> None:
        """Apply the lock's readmission after a release (the release paths
        call it only while some waiter is culled).  A waiter granted the
        lock directly completes its acquire; a spinlock waiter readmitted to
        the spin set wakes to retry it; a mutex waiter sleeps on."""
        waiter = lock.readmit(self.engine.now)
        if waiter is None:
            return
        direct = lock.holder_pid == waiter.pid
        self.trace.emit(
            self.engine.now,
            "lock.readmit",
            lock=lock.name,
            pid=waiter.pid,
            direct=direct,
        )
        if direct:
            if lock.kind == "spin":
                waiter.locks_held += 1
            self._complete_wait(waiter, True)
        elif lock.kind == "spin":
            self._wake(waiter)

    def _sys_mutex_acquire(
        self, cpu: int, process: Process, syscall: sc.MutexAcquire
    ) -> bool:
        mutex = syscall.mutex
        outcome = mutex.acquire(process, self.engine.now)
        if outcome is GRANT:
            return self._finish_syscall(cpu, process, True, mutex.acquire_cost)
        if outcome is CULL:
            self._trace_cull(mutex, process)
        self._block_current(cpu, f"mutex:{mutex.name}")
        return False

    def _sys_mutex_release(
        self, cpu: int, process: Process, syscall: sc.MutexRelease
    ) -> bool:
        mutex = syscall.mutex
        self._hand_over(mutex, mutex.release(process.pid, self.engine.now))
        return self._finish_syscall(cpu, process, None, mutex.release_cost)

    def _hand_over(self, mutex: Any, grantee: Optional[Process]) -> None:
        """Apply a mutex release: wake the waiter it granted, then readmit."""
        if grantee is not None:
            self._complete_wait(grantee, True)
        if mutex.culled:
            self._readmit(mutex)

    def _sys_sem_wait(self, cpu: int, process: Process, syscall: sc.SemWait) -> bool:
        sem = syscall.sem
        if sem.wait(process):
            return self._finish_syscall(cpu, process, None, sem.wait_cost)
        self._block_current(cpu, f"sem:{sem.name}")
        return False

    def _sys_sem_post(self, cpu: int, process: Process, syscall: sc.SemPost) -> bool:
        sem = syscall.sem
        waiter = sem.post()
        if waiter is not None:
            self._complete_wait(waiter, None)
        return self._finish_syscall(cpu, process, None, sem.post_cost)

    def _sys_barrier_wait(
        self, cpu: int, process: Process, syscall: sc.BarrierWait
    ) -> bool:
        barrier = syscall.barrier
        released = barrier.arrive(process)
        if released is None:
            self._block_current(cpu, f"barrier:{barrier.name}")
            return False
        generation = barrier.generation
        for waiter in released:
            self._complete_wait(waiter, generation)
        return self._finish_syscall(cpu, process, generation, barrier.wait_cost)

    def _sys_cond_wait(self, cpu: int, process: Process, syscall: sc.CondWait) -> bool:
        cond = syscall.cond
        cond.wait(process)
        self._hand_over(cond.mutex, cond.mutex.release(process.pid, self.engine.now))
        self._block_current(cpu, f"cond:{cond.name}")
        return False

    def _requeue(self, mutex: Any, waiter: Process) -> None:
        """Apply a Mesa wake: the signalled waiter re-acquires the mutex."""
        outcome = mutex.requeue(waiter, self.engine.now)
        if outcome is GRANT:
            self._complete_wait(waiter, True)
            return
        waiter.pending_syscall = None
        waiter.block_reason = f"mutex:{mutex.name}"
        if outcome is CULL:
            self._trace_cull(mutex, waiter)

    def _sys_cond_signal(
        self, cpu: int, process: Process, syscall: sc.CondSignal
    ) -> bool:
        cond = syscall.cond
        waiter = cond.signal()
        if waiter is not None:
            self._requeue(cond.mutex, waiter)
        return self._finish_syscall(cpu, process, None, cond.wait_cost)

    def _sys_cond_broadcast(
        self, cpu: int, process: Process, syscall: sc.CondBroadcast
    ) -> bool:
        cond = syscall.cond
        for waiter in cond.broadcast():
            self._requeue(cond.mutex, waiter)
        return self._finish_syscall(cpu, process, None, cond.wait_cost)

    def _sys_sleep(self, cpu: int, process: Process, syscall: sc.Sleep) -> bool:
        duration = syscall.duration
        process.pending_syscall = None
        process.syscall_result = None
        self._block_current(cpu, "sleep")
        self.engine.schedule(
            max(duration, SLEEP_COST),
            partial(self._sleep_wake, process),
            "sleep-wake",
        )
        return False

    def _sleep_wake(self, process: Process) -> None:
        # The sleeper may have been killed while parked (fault injection);
        # a sleeping process can only leave BLOCKED through this event or
        # through kill, so a non-BLOCKED state here means a corpse.
        if process.state is ProcessState.BLOCKED:
            self._wake(process)

    def _sys_wait_signal(
        self, cpu: int, process: Process, syscall: sc.WaitSignal
    ) -> bool:
        if process.pending_signals:
            payload = process.pending_signals.pop(0)
            return self._finish_syscall(cpu, process, payload, SIGNAL_COST)
        process.waiting_signal = True
        process.stats.suspensions += 1
        process.pending_syscall = None
        self._block_current(cpu, "signal")
        return False

    def _sys_send_signal(
        self, cpu: int, process: Process, syscall: sc.SendSignal
    ) -> bool:
        target = self.processes.get(syscall.pid)
        process.stats.signals_sent += 1
        if target is None or not target.alive:
            return self._finish_syscall(cpu, process, False, SIGNAL_COST)
        if target.waiting_signal:
            target.waiting_signal = False
            self._complete_wait(target, syscall.payload)
        else:
            target.pending_signals.append(syscall.payload)
        if self._want_signal_trace:
            self.trace.emit(
                self.engine.now, "kernel.signal", src=process.pid, dst=syscall.pid
            )
        return self._finish_syscall(cpu, process, True, SIGNAL_COST)

    def _sys_fork(self, cpu: int, process: Process, syscall: sc.Fork) -> bool:
        child = self.spawn(
            syscall.program,
            name=syscall.name,
            app_id=process.app_id,
            controllable=process.controllable,
            daemon=syscall.daemon,
            ppid=process.pid,
            cache_footprint=process.cache_footprint,
        )
        return self._finish_syscall(cpu, process, child.pid, FORK_COST)

    def _sys_exit(self, cpu: int, process: Process, syscall: sc.Exit) -> bool:
        self._exit_current(cpu)
        return False

    def _sys_wait_pid(self, cpu: int, process: Process, syscall: sc.WaitPid) -> bool:
        target = self.processes.get(syscall.pid)
        if target is None:
            return self._finish_syscall(cpu, process, False, YIELD_COST)
        if not target.alive:
            return self._finish_syscall(cpu, process, True, YIELD_COST)
        if target.pid == process.pid:
            raise SimulationError(f"process {process.pid} waiting on itself")
        target.join_waiters.append(process)
        self._block_current(cpu, f"waitpid:{target.pid}")
        return False

    def _sys_yield(self, cpu: int, process: Process, syscall: sc.Yield) -> bool:
        process.pending_syscall = None
        process.syscall_result = None
        yielded = self._undispatch(cpu)
        yielded.state = ProcessState.READY
        yielded.ready_since = self.engine.now
        self.policy.enqueue(yielded, "yield")
        if self._want_yield_trace:
            self.trace.emit(self.engine.now, "kernel.yield", pid=yielded.pid, cpu=cpu)
        self._request_dispatch()
        return False

    def _finish_table_read(
        self, cpu: int, process: Process, result: Any, rows: int
    ) -> bool:
        """Complete a syscall that reads *rows* process-table rows (the
        table or the load summary), charged per row."""
        cost = TABLE_READ_BASE_COST + TABLE_READ_PER_PROCESS_COST * rows
        return self._finish_syscall(cpu, process, result, cost)

    def _sys_get_process_table(
        self, cpu: int, process: Process, syscall: sc.GetProcessTable
    ) -> bool:
        table = [p.info() for p in self.processes.values() if p.alive]
        return self._finish_table_read(cpu, process, table, len(table))

    def _sys_get_load_summary(
        self, cpu: int, process: Process, syscall: sc.GetLoadSummary
    ) -> bool:
        """The sparse-census sibling of :meth:`_sys_get_process_table`.

        Snapshots the incrementally-maintained counters at syscall-entry
        time (exactly when the table scan would have been taken) and
        charges the same per-alive-process cost, so swapping a server from
        the table call to this one leaves the simulated timeline
        bit-identical while making the host-side scan O(changes).
        """
        uncontrolled = self._uncontrolled_runnable
        for pid in syscall.exclude_pids:
            p = self.processes.get(pid)
            if (
                p is not None
                and not p.controllable
                and p.state in RUNNABLE_STATES
            ):
                uncontrolled -= 1
        alive = self._alive_total
        summary = sc.LoadSummary(
            journal_len=len(self._census_journal),
            uncontrolled_runnable=uncontrolled,
            alive=alive,
            runnable_by_app={
                app: count
                for app, count in self._runnable_per_app.items()
                if app is not None
            },
        )
        return self._finish_table_read(cpu, process, summary, alive)

    def _sys_set_no_preempt(
        self, cpu: int, process: Process, syscall: sc.SetNoPreempt
    ) -> bool:
        process.no_preempt = syscall.flag
        process.pending_syscall = None
        process.syscall_result = None
        if not syscall.flag and process.deferred_preempt:
            process.deferred_preempt = False
            if self.policy.has_waiting(cpu):
                self._preempt(cpu, reason="deferred")
                return False
        return True

    def _sys_channel_send(
        self, cpu: int, process: Process, syscall: sc.ChannelSend
    ) -> bool:
        channel: Channel = syscall.channel
        if channel.full:
            channel.send_waiters.append((process, syscall.message))
            self._block_current(cpu, f"chan-send:{channel.name}")
            return False
        # Fault injection: a filter may drop ([]) or duplicate ([m, m])
        # the message.  None (the default) is the healthy fast path.
        if channel.fault_filter is None:
            deliveries = (syscall.message,)
        else:
            deliveries = channel.fault_filter(syscall.message)
        for message in deliveries:
            channel.messages.append(message)
            channel.sends += 1
            if channel.recv_waiters:
                receiver = channel.recv_waiters.pop(0)
                channel.receives += 1
                self._complete_wait(receiver, channel.messages.popleft())
        return self._finish_syscall(cpu, process, None, CHANNEL_OP_COST)

    def _sys_channel_receive(
        self, cpu: int, process: Process, syscall: sc.ChannelReceive
    ) -> bool:
        channel: Channel = syscall.channel
        if channel.messages:
            message = channel.messages.popleft()
            channel.receives += 1
            if channel.send_waiters:
                sender, pending = channel.send_waiters.pop(0)
                channel.messages.append(pending)
                channel.sends += 1
                self._complete_wait(sender, None)
            return self._finish_syscall(
                cpu, process, message, CHANNEL_OP_COST
            )
        channel.recv_waiters.append(process)
        self._block_current(cpu, f"chan-recv:{channel.name}")
        return False

    _HANDLERS = {
        sc.SpinAcquire: _sys_spin_acquire,
        sc.SpinRelease: _sys_spin_release,
        sc.MutexAcquire: _sys_mutex_acquire,
        sc.MutexRelease: _sys_mutex_release,
        sc.SemWait: _sys_sem_wait,
        sc.SemPost: _sys_sem_post,
        sc.BarrierWait: _sys_barrier_wait,
        sc.CondWait: _sys_cond_wait,
        sc.CondSignal: _sys_cond_signal,
        sc.CondBroadcast: _sys_cond_broadcast,
        sc.Sleep: _sys_sleep,
        sc.WaitSignal: _sys_wait_signal,
        sc.SendSignal: _sys_send_signal,
        sc.Fork: _sys_fork,
        sc.Exit: _sys_exit,
        sc.WaitPid: _sys_wait_pid,
        sc.Yield: _sys_yield,
        sc.GetProcessTable: _sys_get_process_table,
        sc.GetLoadSummary: _sys_get_load_summary,
        sc.SetNoPreempt: _sys_set_no_preempt,
        sc.ChannelSend: _sys_channel_send,
        sc.ChannelReceive: _sys_channel_receive,
    }
