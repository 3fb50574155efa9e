"""The modified threads package: worker processes + transparent process
control.

This is the paper's Section 5 artifact.  An application hands the package a
stream of tasks (via ``initial_tasks`` / ``on_task_done``); the package runs
``n_processes`` worker processes that loop:

1. **safe suspension point** -- poll the server if the poll interval has
   elapsed; suspend self / resume a peer to track the target;
2. dequeue a task (semaphore + spinlock-guarded queue);
3. run the task, forwarding its syscalls, handling dynamic
   :class:`~repro.threads.task.SpawnTask` requests;
4. on completion, ask the application for follow-on tasks (this is how
   phased algorithms express their barriers in the task-queue model).

"The process monitoring, suspension, and resumption is done when the
application returns control to the threads package when a thread is
suspended or has finished execution" -- i.e. exactly between tasks, which
is when suspension is provably safe (Section 4.1).

Process control is *transparent*: applications never see it.  It is turned
on or off purely by :class:`ThreadsPackageConfig`.

The package speaks the control plane itself -- registration, the poll
cadence with its stale-target TTL and backoff, the demand / QoS /
compliance piggyback, and the suspend/resume protocol -- and answers the
runtime contract of docs/RUNTIMES.md (:meth:`ThreadsPackage.report_demand`,
:attr:`ThreadsPackage.floor`, target adoption and the safe points).  The
runtimes with sparser safe points
(:class:`~repro.threads.forkjoin.ForkJoinPackage`,
:class:`~repro.threads.pipeline.PipelinePackage`) subclass
:class:`DeferredAdoptionPackage`, which keeps the *adopted* width
(``control.target``, which the sanitizer's share-overrun check audits)
separate from the *published* one: it moves ``control.target`` only when
the workers actually conform, so slow adoption is visible to the
allocation policy as telemetry rather than tripping the invariant checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, Optional

from repro.kernel import Kernel
from repro.kernel import syscalls as sc
from repro.kernel.ipc import Channel, ControlBoard
from repro.metrics.latency import RequestLog
from repro.sim import units
from repro.sync import Semaphore
from repro.threads.compliance import ComplianceTracker
from repro.threads.control import FINISH, RESUME, ControlState
from repro.threads.task import ComputeTask, SpawnTask, Task
from repro.threads.taskqueue import POISON, TaskQueue

#: Control modes.
CONTROL_OFF = None
CONTROL_CENTRALIZED = "centralized"
CONTROL_DECENTRALIZED = "decentralized"

#: The package's own costs, in microseconds: a poll round-trip (socket
#: IPC), a queue operation under the queue lock (the package's critical
#: section), per-task bookkeeping outside it, and the idle-poll backoff.
POLL_COST = 300
QUEUE_OP_COST = 25
TASK_OVERHEAD = 30
SPIN_POLL_GAP = 500
SPIN_POLL_MAX_GAP = units.ms(8)

# Those fixed costs as syscall records, built once and re-yielded by every
# worker of every package (the kernel never writes a syscall record).
_POLL = sc.Compute(POLL_COST)
_QUEUE_OP = sc.Compute(QUEUE_OP_COST)
_TASK_START = sc.Compute(TASK_OVERHEAD)


@dataclass(slots=True)
class ThreadsPackageConfig:
    """Configuration of the threads package (per application).

    Attributes:
        control: ``None`` (unmodified package), ``"centralized"`` (poll the
            server's control board), or ``"decentralized"`` (each
            application scans the process table itself -- the design the
            paper tried and rejected in Section 4.2).
        board: the server's :class:`ControlBoard` (centralized mode).
        server_channel: registration channel to the server, if any.
        poll_interval: how often workers check the server's answer
            (Section 5: "every 6 seconds in the current implementation").
        use_no_preempt_flags: bracket queue-lock critical sections with
            ``SetNoPreempt`` (for experiments with the Zahorjan scheduler).
        idle_spin: when the task queue is empty, workers busy-wait polling
            it (with exponential backoff) instead of blocking -- the
            behaviour of 1989-era threads packages, and the producer/
            consumer waste of Section 2 point 2.  ``False`` switches to a
            blocking semaphore (a modern package; ablation).
        stale_target_ttl: graceful degradation against a silent control
            server (centralized mode).  When set, a poll whose board entry
            is missing or older than this many microseconds counts as
            *failed*: the package backs off its polling exponentially, and
            once no fresh target has been seen for the TTL it releases the
            stale target entirely, restoring full parallelism.  ``None``
            (the default) trusts the board forever -- the paper's
            healthy-world behaviour, and what hand-driven tests expect.
        poll_backoff_max: cap on the backed-off poll gap; defaults to
            8x ``poll_interval`` when degradation is enabled.
        lock_admission: Malthusian concurrency restriction for the
            package's queue lock: at most this many workers may spin on
            it at once, the rest are passivated at the lock and readmitted
            as releases occur (see docs/LOCKS.md).  ``None`` (default)
            leaves spinning unrestricted -- the 1989 behaviour.  This is
            lock-level waiter control, deliberately independent of the
            server's processor control (``control=``): either, both, or
            neither can be on.
    """

    control: Optional[str] = CONTROL_OFF
    board: Optional[ControlBoard] = None
    server_channel: Optional[Channel] = None
    poll_interval: int = field(default_factory=lambda: units.seconds(6))
    use_no_preempt_flags: bool = False
    idle_spin: bool = True
    stale_target_ttl: Optional[int] = None
    poll_backoff_max: Optional[int] = None
    lock_admission: Optional[int] = None

    def __post_init__(self) -> None:
        if self.lock_admission is not None and self.lock_admission < 1:
            raise ValueError("lock_admission must be >= 1 (or None)")
        if self.control not in (
            CONTROL_OFF,
            CONTROL_CENTRALIZED,
            CONTROL_DECENTRALIZED,
        ):
            raise ValueError(f"unknown control mode {self.control!r}")
        if self.control == CONTROL_CENTRALIZED and self.board is None:
            raise ValueError("centralized control requires a ControlBoard")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        if self.stale_target_ttl is not None and self.stale_target_ttl <= 0:
            raise ValueError("stale_target_ttl must be positive")
        if (
            self.stale_target_ttl is not None
            and self.stale_target_ttl < self.poll_interval
        ):
            # A TTL shorter than the poll interval would declare the board
            # stale on every single poll: the package would back off and
            # expire a perfectly healthy server's target.
            raise ValueError(
                f"stale_target_ttl ({self.stale_target_ttl}) must be >= "
                f"poll_interval ({self.poll_interval}); a shorter TTL "
                "expires a healthy target on every poll"
            )
        if self.poll_backoff_max is None:
            self.poll_backoff_max = 8 * self.poll_interval
        elif self.poll_backoff_max < self.poll_interval:
            raise ValueError("poll_backoff_max must be >= poll_interval")


class ThreadsPackage:
    """Run one application's tasks on a pool of worker processes.

    This class is the *task-queue* runtime, the paper's model: every point
    between tasks is a safe suspension point, and a target read off the
    board is adopted the instant it is read.  Subclasses override the
    worker program to model runtimes with different safe points
    (:class:`~repro.threads.forkjoin.ForkJoinPackage`,
    :class:`~repro.threads.pipeline.PipelinePackage`).
    """

    #: Runtime name: the key scenario specs select the class by, and the
    #: name on the compliance reports this package writes to the board.
    runtime = "taskqueue"
    #: Structural floor: the width this runtime cannot shrink below.
    floor = 1

    def __init__(
        self,
        kernel: Kernel,
        app: Any,
        n_processes: int,
        config: Optional[ThreadsPackageConfig] = None,
    ) -> None:
        if n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        self.kernel = kernel
        self.app = app
        self.app_id: str = app.app_id
        self.n_processes = n_processes
        self.config = config or ThreadsPackageConfig()

        self.queue = self._build_queues()
        self.control = ControlState(n_processes)
        #: Compliance telemetry, written to the board on every poll.
        self.tracker = ComplianceTracker()
        self.work_sem = Semaphore(f"{self.app_id}.work", initial=0)
        if not self.config.idle_spin:
            # A blocking package's semaphore requests, built once (a
            # busy-wait package never touches the semaphore).
            self._sem_wait = sc.SemWait(self.work_sem)
            self._sem_post = sc.SemPost(self.work_sem)

        self.worker_pids: List[int] = []
        self.started_at: Optional[int] = None
        self.finished_at: Optional[int] = None
        self.finished = False
        self._outstanding = 0
        self.tasks_completed = 0
        #: CPU time burnt polling an empty queue (the busy-wait package's
        #: producer/consumer waste; approximate, in microseconds).
        self.idle_poll_time = 0
        #: Service tenancy: applications exposing a ``service_profile``
        #: (see :class:`repro.apps.service.ServiceApp`) get per-request
        #: latency accounting and piggybacked QoS reports; for everything
        #: else these stay ``None`` and cost nothing.
        self.service_profile = getattr(app, "service_profile", None)
        self.request_log: Optional[RequestLog] = (
            RequestLog(
                slo_us=self.service_profile.slo_us,
                tier=self.service_profile.tier,
            )
            if self.service_profile is not None
            else None
        )
        self._slowdown_ewma: Optional[float] = None

    def _task_queue(self, name: str) -> TaskQueue:
        """A task queue whose lock carries the configured admission."""
        queue = TaskQueue(f"{self.app_id}.{name}")
        queue.lock.admission = self.config.lock_admission
        return queue

    def _build_queues(self) -> TaskQueue:
        """Build this runtime's task queues; returns the one that the root
        worker's initial tasks go to (:attr:`queue`)."""
        return self._task_queue("queue")

    # ------------------------------------------------------------------
    # Launching
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker processes (call at the application's arrival).

        The root worker (index 0) registers with the server and enqueues
        the application's initial tasks before entering the common loop.
        """
        if self.worker_pids:
            raise RuntimeError(f"application {self.app_id!r} already started")
        self.started_at = self.kernel.now
        controllable = self.config.control is not None
        for index in range(self.n_processes):
            process = self.kernel.spawn(
                self._worker_program(index),
                name=f"{self.app_id}.w{index}",
                app_id=self.app_id,
                controllable=controllable,
                ppid=self.worker_pids[0] if self.worker_pids else 0,
                cache_footprint=getattr(self.app, "cache_footprint", 1.0),
            )
            self.worker_pids.append(process.pid)

    @property
    def wall_time(self) -> Optional[int]:
        """Completion time minus start time, once finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    # ------------------------------------------------------------------
    # Worker program
    # ------------------------------------------------------------------

    def _worker_program(self, index: int):
        config = self.config
        if index == 0:
            initial = yield from self._root_tasks()
            yield from self._enqueue_tasks(initial)
        backoff = SPIN_POLL_GAP
        # With control off, _control_point would yield nothing forever;
        # skip even constructing the generator in the per-task loop.
        controlled = config.control is not None
        # The peek below models a raw shared-memory read, so reading the
        # deque directly (not via len(queue)) is both faithful and free.
        queue_items = self.queue._items
        control_point = self._control_point
        while True:
            if controlled:
                yield from control_point(index)
            if config.idle_spin:
                # Busy-wait package: peek (free shared-memory read), take
                # the lock only when there might be work, back off while
                # the queue stays empty.
                item = None
                if queue_items:
                    item = yield from self._locked_pop()
                if item is None:
                    self.idle_poll_time += backoff
                    yield sc.Compute(backoff)
                    backoff = min(backoff * 2, SPIN_POLL_MAX_GAP)
                    continue
                backoff = SPIN_POLL_GAP
            else:
                yield self._sem_wait
                item = yield from self._locked_pop()
                if item is None:
                    raise RuntimeError(
                        f"{self.app_id}: semaphore/queue mismatch (empty pop)"
                    )
            if item is POISON:
                return
            yield from self._run_body(item)
            yield from self._task_done(item)

    def _root_tasks(self):
        """The root worker's start: the application's initial tasks,
        registered with the server (if any) before any of them is queued."""
        initial = list(self.app.initial_tasks())
        if not initial:
            raise ValueError(
                f"application {self.app_id!r} produced no initial tasks"
            )
        config = self.config
        if config.server_channel is not None and config.control is not None:
            yield from self._register(len(initial))
        return initial

    # -- queue protocol (spinlock-guarded critical sections) ---------------

    def _locked_push(self, items: Iterable[object], queue: Optional[TaskQueue] = None):
        config = self.config
        if queue is None:
            queue = self.queue
        if config.use_no_preempt_flags:
            yield sc.SetNoPreempt(True)
        yield queue.acquire
        for item in items:
            if getattr(item, "urgent", False):
                queue.push_front(item)
            else:
                queue.push(item)
        yield _QUEUE_OP
        yield queue.release
        if config.use_no_preempt_flags:
            yield sc.SetNoPreempt(False)

    def _locked_pop(self, queue: Optional[TaskQueue] = None):
        """Pop the head task under the queue lock (None on an empty queue:
        a lost race for the busy-wait workers)."""
        config = self.config
        if queue is None:
            queue = self.queue
        if config.use_no_preempt_flags:
            yield sc.SetNoPreempt(True)
        yield queue.acquire
        yield _QUEUE_OP
        item = queue.pop()
        yield queue.release
        if config.use_no_preempt_flags:
            yield sc.SetNoPreempt(False)
        return item

    def queue_lock_stats(self) -> "tuple[int, int]":
        """(contended acquisitions, holder-preempted encounters) summed over
        this package's queue locks -- one lock here; stage runtimes
        aggregate several."""
        lock = self.queue.lock
        return lock.contended_acquisitions, lock.holder_preempted_encounters

    def _enqueue_tasks(self, tasks: List[Task]):
        self._outstanding += len(tasks)
        yield from self._locked_push(tasks)
        if not self.config.idle_spin:
            for _ in tasks:
                yield self._sem_post

    # -- task execution ------------------------------------------------------

    def _run_body(self, task: Task, spawn_queue: Optional[TaskQueue] = None):
        """Run *task*'s body, forwarding its syscalls to the kernel.

        A :class:`SpawnTask` request is enqueued as new outstanding work,
        or -- given *spawn_queue* -- pushed there uncounted (a pipeline
        stage's own queue).
        """
        yield _TASK_START
        body = task.body()
        if task.__class__ is ComputeTask:
            # A compute task cannot spawn, so the kernel drives its body.
            yield from body
        else:
            result: Any = None
            while True:
                try:
                    op = body.send(result)
                except StopIteration:
                    break
                if isinstance(op, SpawnTask):
                    if spawn_queue is None:
                        yield from self._enqueue_tasks([op.task])
                    else:
                        yield from self._locked_push([op.task], queue=spawn_queue)
                    result = None
                else:
                    result = yield op
        self.tasks_completed += 1

    def _task_done(self, task: Task):
        """Queue *task*'s follow-on tasks; the worker that completes the
        last task finishes the application."""
        if task.meta:
            self._note_service_completion(task)
        follow = list(self.app.on_task_done(task))
        if follow:
            yield from self._enqueue_tasks(follow)
        self._outstanding -= 1
        if self._outstanding == 0:
            yield from self._finish()

    #: EWMA coefficient of the slowdown estimate reported to the server:
    #: heavy enough to follow a load swing within a few requests, damped
    #: enough that one outlier request does not whipsaw the allocation.
    _SLOWDOWN_ALPHA = 0.3

    def _note_service_completion(self, task: Task) -> None:
        """Stamp a finished request (reduce task) into the latency log.

        Latency is measured from the request's *intended* arrival instant
        (carried in ``task.meta``), so dispatcher starvation shows up as
        real latency -- the open-arrival property.  Trace emissions here
        are log appends, not engine events, so they cannot perturb the
        schedule or the golden digests.
        """
        meta = task.meta
        rid = meta.get("service_request")
        if rid is None or self.request_log is None:
            return
        now = self.kernel.now
        latency = self.request_log.append(rid, meta["service_arrival"], now)
        slo = meta.get("service_slo", self.request_log.slo_us)
        self.kernel.trace.emit(
            now,
            "service.request",
            app_id=self.app_id,
            rid=rid,
            latency=latency,
            slo=slo,
        )
        if latency > slo:
            self.kernel.trace.emit(
                now,
                "service.slo_violation",
                app_id=self.app_id,
                rid=rid,
                latency=latency,
                slo=slo,
            )
        slowdown = latency / self.service_profile.nominal_latency_us
        if self._slowdown_ewma is None:
            self._slowdown_ewma = slowdown
        else:
            self._slowdown_ewma = (
                self._SLOWDOWN_ALPHA * slowdown
                + (1.0 - self._SLOWDOWN_ALPHA) * self._slowdown_ewma
            )

    def _mark_finished(self) -> None:
        """Record completion and release what a finished tenant no longer
        needs: the application draws no more random numbers, so its cached
        streams go."""
        self.finished = True
        self.finished_at = self.kernel.now
        self.kernel.trace.emit(
            self.finished_at,
            "app.finished",
            app_id=self.app_id,
            wall_time=self.wall_time,
        )
        streams = getattr(self.app, "streams", None)
        if streams is not None:
            streams.clear()

    def _finish(self):
        """Run by whichever worker completes the last task."""
        self._mark_finished()
        # Every suspended worker must wake to consume its poison task.
        yield from self._wake_suspended()
        yield from self._locked_push([POISON] * self.n_processes)
        if not self.config.idle_spin:
            for _ in range(self.n_processes):
                yield self._sem_post

    def _wake_suspended(self):
        """Close the control block and wake every parked worker with
        ``FINISH``, one per signal: a worker past its ``finished`` check
        may still unpark a peer while this drain yields."""
        control = self.control
        control.close()
        while (pid := control.wake_next()) is not None:
            yield sc.SendSignal(pid, FINISH)

    # ------------------------------------------------------------------
    # Process control: the control plane and the safe suspension point
    # ------------------------------------------------------------------

    def report_demand(self) -> int:
        """The backlog figure piggybacked on polls (demand policies)."""
        return self._outstanding

    def _register(self, initial_backlog: int):
        """Register with the server (root worker, before the first task).

        The initial backlog rides on the registration message so
        demand-aware policies see a demand figure before the application's
        first poll.
        """
        config = self.config
        yield sc.ChannelSend(
            config.server_channel,
            ("register", self.app_id, self.worker_pids[0], initial_backlog),
        )
        if self.service_profile is not None and config.board is not None:
            # Announce the tier at registration (neutral slowdown: no
            # request has completed yet) so the SLO policy can classify
            # this tenant from its very first round.
            config.board.report_qos(
                self.app_id, 0.0, self.service_profile.tier, self.kernel.now
            )

    def _note_published(self, target: int, now: int) -> None:
        """Sample overshoot / start the adoption clock for a read target."""
        board = self.config.board
        published_at = board.posted_at(self.app_id) if board is not None else None
        self.tracker.note_published(
            target, self.control.runnable_workers, now, published_at
        )

    def _adopt_target(self, target: int, now: int, fresh: bool) -> None:
        """Incorporate a target read off the board: adopted at once.

        *fresh* distinguishes the TTL-checked centralized path (which must
        also reset the poll-backoff state) from the plain adoption tail
        shared with decentralized mode.
        """
        self._note_published(target, now)
        control = self.control
        if fresh:
            control.note_fresh(target, now)
        else:
            control.target = target
            control.polls += 1

    def _note_target_released(self) -> None:
        """The stale-target TTL released control: nothing is pending."""
        self.tracker.note_released()

    def _poll(self):
        """Ask the server (or the process table) for our current target."""
        kernel = self.kernel
        config = self.config
        control = self.control
        app_id = self.app_id
        if config.control == "centralized":
            yield _POLL
            board = config.board
            # Piggyback our backlog on the poll: a free shared-memory
            # write that demand-aware policies consume.
            board.report_demand(app_id, self.report_demand(), kernel.now)
            # Service tenants additionally piggyback their latency
            # slowdown and tier tag for the SLO-aware policy; ordinary
            # applications never write the QoS word.
            if self._slowdown_ewma is not None:
                board.report_qos(
                    app_id,
                    self._slowdown_ewma,
                    self.service_profile.tier,
                    kernel.now,
                )
            # Compliance telemetry rides the same poll (another free
            # write); the snapshot reflects this tenant's state as of its
            # most recent safe point.
            board.report_compliance(
                app_id, self.tracker.report(self.runtime, self.floor, kernel.now)
            )
            target = board.read(app_id)
            ttl = config.stale_target_ttl
            if ttl is not None:
                now = kernel.now
                # A recorded crash epoch marks the word stale immediately
                # (the server is known dead, however recently it wrote);
                # otherwise staleness is the plain write-age test.
                crash_epoch = getattr(board, "crashed_at", None)
                stale = crash_epoch is not None or (
                    board.updated_at is not None
                    and now - board.updated_at > ttl
                )
                if target is not None and not stale:
                    self._adopt_target(target, now, fresh=True)
                    kernel.trace.emit(now, "pc.poll", app_id=app_id, target=target)
                elif control.target is not None or control.last_fresh is not None:
                    # The server went silent after having spoken to us:
                    # back off the polling and, past the TTL, release the
                    # stale target (unpark then restores the full
                    # worker pool).  A server that has not yet published
                    # anything for us is not a failure -- that is the
                    # ordinary state right after arrival.
                    expired = control.note_failure(
                        now,
                        config.poll_interval,
                        config.poll_backoff_max,
                        ttl,
                        crash_epoch=crash_epoch,
                    )
                    kernel.trace.emit(
                        now,
                        "pc.poll_failed",
                        app_id=app_id,
                        stale=stale,
                        failures=control.consecutive_failures,
                    )
                    if expired:
                        self._note_target_released()
                        kernel.trace.emit(now, "pc.target_expired", app_id=app_id)
                return
        else:
            # Decentralized: scan the process table and partition locally.
            # This is the design Section 4.2 rejects as "too inefficient";
            # the ablation benchmarks quantify why.
            from repro.core.policy import partition_processors

            table = yield sc.GetProcessTable()
            yield _POLL
            uncontrolled = sum(
                1 for row in table if row.runnable and not row.controllable
            )
            app_totals: dict = {}
            for row in table:
                if row.controllable and row.app_id is not None:
                    app_totals[row.app_id] = app_totals.get(row.app_id, 0) + 1
            targets = partition_processors(
                kernel.online_processor_count(), uncontrolled, app_totals
            )
            target = targets.get(app_id)
        if target is not None:
            self._adopt_target(target, kernel.now, fresh=False)
            kernel.trace.emit(kernel.now, "pc.poll", app_id=app_id, target=target)

    def _poll_if_due(self):
        """Run :meth:`_poll` when the (backoff-adjusted) interval elapsed."""
        control = self.control
        now = self.kernel.now
        gap = control.poll_gap
        if gap is None:
            gap = self.config.poll_interval
        if control.last_poll is None or now - control.last_poll >= gap:
            control.last_poll = now
            yield from self._poll()

    def _resume(self, pid: int):
        """Wake *pid*, the longest-parked worker, which the control block
        just unparked (FIFO, "kept on a queue")."""
        kernel = self.kernel
        kernel.trace.emit(kernel.now, "pc.resume", app_id=self.app_id, pid=pid)
        yield sc.SendSignal(pid, RESUME)

    def _sleep_parked(self, pid: int):
        """Block *pid*, which the control block just parked, until a peer
        resumes it or the finish wakes it."""
        kernel = self.kernel
        kernel.trace.emit(kernel.now, "pc.suspend", app_id=self.app_id, pid=pid)
        payload = yield sc.WaitSignal()
        kernel.trace.emit(
            kernel.now, "pc.wake", app_id=self.app_id, pid=pid, payload=payload
        )

    def _control_point(self, index: int):
        """The safe suspension point between tasks: poll if due, resume a
        peer while under target, suspend self while over it."""
        if self.config.control is None or self.finished:
            return
        control = self.control
        kernel = self.kernel
        yield from self._poll_if_due()
        peer = control.unpark()
        if peer is not None:
            yield from self._resume(peer)
        pid = self.worker_pids[index]
        while control.park(pid, control.target):
            # Counting ourselves out is what makes the pool conform.
            self.tracker.note_conformed(control.runnable_workers, kernel.now)
            yield from self._sleep_parked(pid)


class DeferredAdoptionPackage(ThreadsPackage):
    """Shared base for runtimes whose safe points are sparse.

    A published shrink is recorded as :attr:`pending_target` and honoured
    at the next safe point; the adopted width (``control.target``, what the
    sanitizer audits) moves only when the workers actually conform.
    Growth -- or a target the runtime already satisfies -- is honoured
    immediately, since waking workers is always safe.
    """

    def __init__(
        self,
        kernel: Kernel,
        app: Any,
        n_processes: int,
        config: Optional[ThreadsPackageConfig] = None,
    ) -> None:
        super().__init__(kernel, app, n_processes, config=config)
        #: The published target awaiting the next safe point, if any.
        self.pending_target: Optional[int] = None

    def _effective_target(self, target: int) -> int:
        """The width this runtime would actually run at for *target*."""
        return max(target, self.floor)

    def _adopt_target(self, target: int, now: int, fresh: bool) -> None:
        self._note_published(target, now)
        control = self.control
        if fresh:
            control.note_fresh_deferred(now)
        else:
            control.polls += 1
        effective = self._effective_target(target)
        if effective >= control.runnable_workers:
            # Growth or already conforming: adopt on the spot.
            control.target = effective
            self.pending_target = None
            self.tracker.note_conformed(control.runnable_workers, now)
        else:
            self.pending_target = target

    def _note_target_released(self) -> None:
        self.pending_target = None
        super()._note_target_released()
