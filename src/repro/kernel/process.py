"""Process control blocks.

A :class:`Process` is the kernel's record of one preemptively-scheduled
process (the paper's sense of "process": the kernel-visible schedulable
entity, as opposed to the user-level *tasks* multiplexed on top by the
threads package).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Any, Generator, List, Optional


class ProcessState(Enum):
    """Lifecycle states of a simulated process."""

    #: Created but not yet enqueued (transient, inside ``spawn`` only).
    NEW = auto()
    #: On the run queue, waiting for a processor.
    READY = auto()
    #: Dispatched on a processor (possibly spinning on a lock).
    RUNNING = auto()
    #: Off-processor, waiting on a primitive, timer, signal, or channel.
    BLOCKED = auto()
    #: Finished; kept in the process table for post-mortem statistics.
    TERMINATED = auto()


#: States that count as "runnable" for the paper's purposes (Figure 5 plots
#: runnable processes, which includes those currently running).
RUNNABLE_STATES = frozenset({ProcessState.READY, ProcessState.RUNNING})


@dataclass(slots=True)
class ProcessStats:
    """Per-process accounting, filled in by the kernel.

    All times are integer microseconds.

    Attributes:
        cpu_time: useful compute executed.
        spin_time: time burnt busy-waiting on spinlocks.
        ready_wait_time: time spent on the run queue (the paper's requeue
            latency: grows with the number of runnable processes).
        block_time: time spent blocked.
        dispatches: times placed on a processor.
        preemptions: involuntary de-schedules at quantum expiry.
        preemptions_in_critical_section: preemptions that occurred while the
            process held at least one spinlock -- the paper's degradation
            source #1, reported in the ablation tables.
        suspensions: times the process suspended itself via ``WaitSignal``
            (i.e. process-control suspensions when used by the threads
            package).
        signals_sent: ``SendSignal`` calls issued.
    """

    cpu_time: int = 0
    spin_time: int = 0
    ready_wait_time: int = 0
    block_time: int = 0
    dispatches: int = 0
    preemptions: int = 0
    preemptions_in_critical_section: int = 0
    suspensions: int = 0
    signals_sent: int = 0


@dataclass(frozen=True)
class RunnableProcessInfo:
    """One row of the ``GetProcessTable`` snapshot.

    This mirrors what the UMAX system call of Section 5 exposes (the
    server's ``GetLoadSummary`` models that call as counters): enough to
    count runnable processes and attribute them to applications via
    parent pids.
    """

    pid: int
    ppid: int
    app_id: Optional[str]
    controllable: bool
    state: ProcessState
    name: str

    @property
    def runnable(self) -> bool:
        """True when the row was READY or RUNNING at snapshot time."""
        return self.state in RUNNABLE_STATES


class Process:
    """One kernel process.

    Attributes of interest to policy code and upper layers:

    * ``pid`` / ``ppid`` / ``name`` -- identity.
    * ``app_id`` -- application this process belongs to (``None`` for system
      daemons and stand-alone processes).
    * ``controllable`` -- whether the owning application participates in
      process control; the server subtracts uncontrollable processes from
      the processor pool (Section 5).
    * ``daemon`` -- daemon processes (e.g. the central server) do not keep
      an experiment alive: runners stop once all non-daemon work finishes.
    * ``state`` / ``cpu`` / ``last_cpu`` -- scheduling state.
    * ``spinning_on`` -- the spinlock this process is currently burning its
      processor on, or ``None``.
    * ``locks_held`` -- number of spinlocks currently held (lets the kernel
      flag preemptions inside critical sections).
    * ``no_preempt`` / ``deferred_preempt`` -- Zahorjan-scheme flags.
    * ``program`` -- the generator the kernel drives; dropped (``None``)
      once it returns, so a terminated process keeps only its record.
    """

    # One record per process ever spawned stays in the process table, so
    # the layout is fixed: no per-instance ``__dict__``.
    __slots__ = (
        "pid",
        "ppid",
        "program",
        "name",
        "app_id",
        "controllable",
        "daemon",
        "cache_footprint",
        "state",
        "cpu",
        "last_cpu",
        "pending_syscall",
        "syscall_result",
        "compute_left",
        "spinning_on",
        "locks_held",
        "waiting_signal",
        "pending_signals",
        "block_reason",
        "no_preempt",
        "deferred_preempt",
        "join_waiters",
        "ready_since",
        "blocked_since",
        "spawn_time",
        "exit_time",
        "priority",
        "stats",
    )

    def __init__(
        self,
        pid: int,
        program: Optional[Generator[Any, Any, None]],
        name: str = "process",
        app_id: Optional[str] = None,
        controllable: bool = False,
        daemon: bool = False,
        ppid: int = 0,
    ) -> None:
        self.pid = pid
        self.ppid = ppid
        self.program = program
        self.name = name
        self.app_id = app_id
        self.controllable = controllable
        self.daemon = daemon
        #: Scale factor on cache-reload penalties: how much reusable working
        #: set this process keeps in a processor cache (a streaming matrix
        #: multiply refetches little; an FFT rereads its butterflies).
        self.cache_footprint = 1.0

        self.state = ProcessState.NEW
        self.cpu: Optional[int] = None
        self.last_cpu: Optional[int] = None

        # Syscall-servicing state (kernel-managed).
        self.pending_syscall: Optional[Any] = None
        self.syscall_result: Any = None
        #: Microseconds of the pending ``Compute`` burst still to run: set
        #: when the burst starts, cut at each preemption.  The record
        #: itself is never written, so it may be shared and re-yielded.
        self.compute_left = 0

        # Synchronization state.
        self.spinning_on: Optional[Any] = None
        self.locks_held = 0
        self.waiting_signal = False
        self.pending_signals: List[Any] = []
        self.block_reason: Optional[str] = None

        # Zahorjan no-preempt scheme.
        self.no_preempt = False
        self.deferred_preempt = False

        #: Processes blocked in ``WaitPid`` on this process (kernel-managed).
        self.join_waiters: List["Process"] = []

        # Scheduling bookkeeping.
        self.ready_since: Optional[int] = None
        self.blocked_since: Optional[int] = None
        self.spawn_time: Optional[int] = None
        self.exit_time: Optional[int] = None
        self.priority = 0.0  # used by the priority-decay (UMAX-like) policy

        self.stats = ProcessStats()

    @property
    def alive(self) -> bool:
        """True until the process terminates."""
        return self.state is not ProcessState.TERMINATED

    @property
    def runnable(self) -> bool:
        """True when READY or RUNNING (the paper's 'runnable')."""
        return self.state in RUNNABLE_STATES

    @property
    def suspended_by_control(self) -> bool:
        """True while the process is parked in ``WaitSignal``.

        This is exactly the state a process-control suspension puts a worker
        in, and what Figure 5 subtracts from each application's total.
        """
        return self.state is ProcessState.BLOCKED and self.waiting_signal

    def info(self) -> RunnableProcessInfo:
        """The ``GetProcessTable`` row for this process."""
        return RunnableProcessInfo(
            pid=self.pid,
            ppid=self.ppid,
            app_id=self.app_id,
            controllable=self.controllable,
            state=self.state,
            name=self.name,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Process {self.pid} {self.name!r} app={self.app_id} "
            f"{self.state.name}>"
        )
