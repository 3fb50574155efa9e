"""Runtime adapters: the control-plane side of a threads package.

Historically the control-plane interaction -- registration, the poll
cadence with its stale-target TTL and backoff, the QoS piggyback, and the
suspend/resume protocol -- was fused into :class:`ThreadsPackage`, which
hard-wired the *task-queue* answer to the central question: *when can a
worker safely give a processor back?*  Real oversubscribed machines mix
runtimes whose answers differ.  A :class:`RuntimeAdapter` owns exactly
that interaction for one package:

* :meth:`~RuntimeAdapter.report_demand` -- the backlog figure piggybacked
  on every poll for the demand-aware policies;
* :meth:`~RuntimeAdapter.adopt_target` -- how a target read off the board
  becomes the runtime's adopted width (immediately, at the next phase
  barrier, clamped at a structural floor, ...);
* :meth:`~RuntimeAdapter.safe_points` -- the observed safe-suspension-point
  cadence;
* :meth:`~RuntimeAdapter.compliance_snapshot` -- the per-tenant compliance
  telemetry (adoption lag, residual overshoot, safe-point interval)
  written back to the :class:`~repro.kernel.ipc.ControlBoard` on each
  poll, which the ``compliance`` allocation policy consumes.

Three adapters ship:

* :class:`TaskQueueAdapter` -- the paper's model, extracted verbatim:
  every point between tasks is safe, targets are adopted the instant they
  are read, workers suspend within one control point.  Bit-identical to
  the pre-refactor fused code at default configuration.
* :class:`ForkJoinAdapter` -- phases separated by barriers; the barrier is
  the *only* safe point, so a shrink published mid-phase is held pending
  and honoured when the phase closes (adoption lags by up to a phase).
* :class:`PipelineAdapter` -- dedicated stage threads that can park only
  when their stage drains, with a declared floor of one worker per stage;
  a target below the floor is adopted *at* the floor and the residual
  overshoot is reported as structural.

The adapters deliberately keep the *adopted* width
(:attr:`ControlState.target`, which the sanitizer's share-overrun check
audits) separate from the *published* one: a deferred adapter moves
``control.target`` only when its workers actually conform, so slow
adoption is visible to the allocation policy as telemetry rather than
tripping the invariant checker.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.kernel import syscalls as sc
from repro.threads.compliance import ComplianceReport, ComplianceTracker
from repro.threads.control import RESUME, ControlState

#: Names of the runtimes a scenario can place a tenant on, in the order
#: they are documented (docs/RUNTIMES.md).
RUNTIME_NAMES = ("taskqueue", "forkjoin", "pipeline")


class RuntimeAdapter:
    """Base class: owns one package's control-plane interaction.

    The adapter holds the shared :class:`ControlState` and the
    :class:`ComplianceTracker`; the package exposes ``adapter.control`` as
    its own ``control`` attribute so every existing consumer (runner,
    sanitizer, tests) keeps reading the same object.
    """

    #: Runtime name, also used by scenario specs to pick the package class.
    runtime: str = "abstract"

    def __init__(self, package: Any) -> None:
        self.package = package
        self.control = ControlState(package.n_processes)
        self.tracker = ComplianceTracker()

    # ------------------------------------------------------------------
    # Protocol surface
    # ------------------------------------------------------------------

    @property
    def floor(self) -> int:
        """Structural floor: the width this runtime cannot shrink below."""
        return 1

    def report_demand(self) -> int:
        """The backlog figure piggybacked on polls (demand policies)."""
        return self.package._outstanding

    def adopt_target(self, target: int, now: int, fresh: bool) -> None:
        """Incorporate a target read off the board.

        *fresh* distinguishes the TTL-checked centralized path (which must
        also reset the poll-backoff state) from the plain adoption tail
        shared with decentralized mode.
        """
        raise NotImplementedError

    def safe_points(self) -> Dict[str, Any]:
        """Observed safe-point cadence (count, mean/max gap in us)."""
        tracker = self.tracker
        return {
            "count": tracker.safe_points,
            "mean_gap_us": tracker.mean_safe_point_gap,
            "max_gap_us": tracker.max_safe_point_gap,
        }

    def compliance_snapshot(self) -> ComplianceReport:
        """The report written to the board's compliance channel."""
        return self.tracker.report(
            self.runtime, self.floor, self.package.kernel.now
        )

    # ------------------------------------------------------------------
    # Shared mechanics
    # ------------------------------------------------------------------

    def register(self, initial_backlog: int):
        """Register with the server (root worker, before the first task).

        The initial backlog rides on the registration message so
        demand-aware policies see a demand figure before the application's
        first poll.
        """
        package = self.package
        config = package.config
        yield sc.ChannelSend(
            config.server_channel,
            (
                "register",
                package.app_id,
                package.worker_pids[0],
                initial_backlog,
            ),
        )
        if package.service_profile is not None and config.board is not None:
            # Announce the tier at registration (neutral slowdown: no
            # request has completed yet) so the SLO policy can classify
            # this tenant from its very first round.
            config.board.report_qos(
                package.app_id,
                0.0,
                package.service_profile.tier,
                package.kernel.now,
            )

    def _note_published(self, target: int, now: int) -> None:
        """Sample overshoot / start the adoption clock for a read target."""
        board = self.package.config.board
        published_at = (
            board.posted_at(self.package.app_id) if board is not None else None
        )
        self.tracker.note_published(
            target, self.control.runnable_workers, now, published_at
        )

    def note_target_released(self) -> None:
        """The stale-target TTL released control: nothing is pending."""
        self.tracker.note_released()

    def poll(self):
        """Ask the server (or the process table) for our current target.

        Verbatim extraction of the fused package's ``_poll``; the only
        additions are host-side compliance bookkeeping (free writes, no
        engine events) and routing adoption through :meth:`adopt_target`.
        """
        package = self.package
        kernel = package.kernel
        config = package.config
        control = self.control
        if config.control == "centralized":
            yield sc.Compute(config.poll_cost)
            board = config.board
            # Piggyback our backlog on the poll: a free shared-memory
            # write that demand-aware policies consume.
            board.report_demand(package.app_id, self.report_demand(), kernel.now)
            # Service tenants additionally piggyback their latency
            # slowdown and tier tag for the SLO-aware policy; ordinary
            # applications never write the QoS word.
            if package._slowdown_ewma is not None:
                board.report_qos(
                    package.app_id,
                    package._slowdown_ewma,
                    package.service_profile.tier,
                    kernel.now,
                )
            # Compliance telemetry rides the same poll (another free
            # write); the snapshot reflects this tenant's state as of its
            # most recent safe point.
            board.report_compliance(package.app_id, self.compliance_snapshot())
            target = board.read(package.app_id)
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
                    self.adopt_target(target, now, fresh=True)
                    kernel.trace.emit(
                        now, "pc.poll", app_id=package.app_id, target=target
                    )
                elif control.target is not None or control.last_fresh is not None:
                    # The server went silent after having spoken to us:
                    # back off the polling and, past the TTL, release the
                    # stale target (should_resume then restores the full
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
                        app_id=package.app_id,
                        stale=stale,
                        failures=control.consecutive_failures,
                    )
                    if expired:
                        self.note_target_released()
                        kernel.trace.emit(
                            now, "pc.target_expired", app_id=package.app_id
                        )
                return
        else:
            # Decentralized: scan the process table and partition locally.
            # This is the design Section 4.2 rejects as "too inefficient";
            # the ablation benchmarks quantify why.
            from repro.core.policy import partition_processors

            table = yield sc.GetProcessTable()
            yield sc.Compute(config.poll_cost)
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
            target = targets.get(package.app_id)
        if target is not None:
            self.adopt_target(target, kernel.now, fresh=False)
            kernel.trace.emit(
                kernel.now, "pc.poll", app_id=package.app_id, target=target
            )


class TaskQueueAdapter(RuntimeAdapter):
    """The paper's model: every inter-task point is safe, adoption is
    immediate.  Bit-identical to the pre-refactor fused package."""

    runtime = "taskqueue"

    def adopt_target(self, target: int, now: int, fresh: bool) -> None:
        control = self.control
        self._note_published(target, now)
        if fresh:
            control.note_fresh(target, now)
        else:
            control.target = target
            control.polls += 1

    def control_point(self, index: int):
        """The safe suspension point between tasks.

        Verbatim extraction of the fused package's ``_control_point``; the
        compliance-tracker calls are host-side additions with no yields.
        """
        package = self.package
        config = package.config
        control = self.control
        if config.control is None or package.finished:
            return
        kernel = package.kernel
        now = kernel.now
        self.tracker.note_safe_point(now)
        gap = control.poll_gap
        if gap is None:
            gap = config.poll_interval
        if control.last_poll is None or now - control.last_poll >= gap:
            control.last_poll = now
            yield from self.poll()
        if control.should_resume():
            pid = control.suspended.pop(0)
            control.runnable_workers += 1
            control.resumes += 1
            kernel.trace.emit(
                kernel.now, "pc.resume", app_id=package.app_id, pid=pid
            )
            yield sc.SendSignal(pid, RESUME)
        while not package.finished and control.should_suspend():
            my_pid = package.worker_pids[index]
            control.runnable_workers -= 1
            control.suspended.append(my_pid)
            control.suspensions += 1
            self.tracker.note_conformed(control.runnable_workers, kernel.now)
            kernel.trace.emit(
                kernel.now, "pc.suspend", app_id=package.app_id, pid=my_pid
            )
            payload = yield sc.WaitSignal()
            kernel.trace.emit(
                kernel.now,
                "pc.wake",
                app_id=package.app_id,
                pid=my_pid,
                payload=payload,
            )
            # The waker already re-counted us among the runnable workers.


class DeferredAdoptionAdapter(RuntimeAdapter):
    """Shared base for runtimes whose safe points are sparse.

    A published shrink is recorded as *pending* and honoured at the next
    safe point; the adopted width (``control.target``, what the sanitizer
    audits) moves only when the workers actually conform.  Growth -- or a
    target the runtime already satisfies -- is honoured immediately, since
    waking workers is always safe.
    """

    def __init__(self, package: Any) -> None:
        super().__init__(package)
        #: The published target awaiting the next safe point, if any.
        self.pending_target: Optional[int] = None

    def effective_target(self, target: int) -> int:
        """The width this runtime would actually run at for *target*."""
        return max(target, self.floor)

    def adopt_target(self, target: int, now: int, fresh: bool) -> None:
        control = self.control
        self._note_published(target, now)
        if fresh:
            control.note_fresh_deferred(now)
        else:
            control.polls += 1
        effective = self.effective_target(target)
        if effective >= control.runnable_workers:
            # Growth or already conforming: adopt on the spot.
            control.target = effective
            self.pending_target = None
            self.tracker.note_conformed(control.runnable_workers, now)
        else:
            self.pending_target = target

    def note_target_released(self) -> None:
        self.pending_target = None
        super().note_target_released()

    def poll_if_due(self):
        """Run :meth:`poll` when the (backoff-adjusted) interval elapsed."""
        package = self.package
        control = self.control
        now = package.kernel.now
        gap = control.poll_gap
        if gap is None:
            gap = package.config.poll_interval
        if control.last_poll is None or now - control.last_poll >= gap:
            control.last_poll = now
            yield from self.poll()


class ForkJoinAdapter(DeferredAdoptionAdapter):
    """Fork-join phases: the barrier is the only safe point.

    Workers never suspend mid-phase; the phase-closing worker (the one
    whose task completion drains the phase) calls :meth:`barrier_point`
    with every peer parked at the barrier, polls the server if the
    interval elapsed, and adopts any pending shrink by releasing fewer
    workers into the next phase.  Target adoption therefore lags by up to
    one full phase -- the figure the compliance telemetry reports.
    """

    runtime = "forkjoin"

    def report_demand(self) -> int:
        """Demand of a fork-join team: the width the next phase staffs.

        The team polls only at barriers -- the one instant its queue is
        empty by construction -- so the task-queue backlog snapshot is
        always zero there and would cap the team at one processor.  The
        figure that means something for a phased runtime is the worker
        pool the coming phase will use: every live worker (active or
        parked at the barrier) runs again the moment the phase opens.
        """
        package = self.package
        live = package.active_workers + len(package.parked)
        return max(package._outstanding, live)

    def barrier_point(self):
        """The phase barrier (closer only; every peer is parked)."""
        package = self.package
        control = self.control
        if package.config.control is None:
            return
        self.tracker.note_safe_point(package.kernel.now)
        yield from self.poll_if_due()
        if self.pending_target is not None:
            # With the whole pool parked, a shrink is honoured by simply
            # releasing fewer workers: adopt it now.  The package records
            # conformance once it has set the next phase's width.
            control.target = self.effective_target(self.pending_target)
            self.pending_target = None


class PipelineAdapter(DeferredAdoptionAdapter):
    """Dedicated stage threads: a worker's safe point is a drained stage.

    The declared floor is one worker per stage -- the pipeline cannot run
    narrower without stalling a stage entirely -- so a target below the
    floor is adopted *at* the floor and the residual overshoot above the
    published target is reported to the server as structural.  Only the
    surplus workers (beyond one per stage) ever suspend, and only when
    their stage queue is empty.
    """

    runtime = "pipeline"

    @property
    def floor(self) -> int:
        return self.package.n_stages

    def stage_point(self, index: int):
        """Per-iteration control point of stage worker *index*.

        Polling (pure IPC) is safe anywhere; *suspension* happens only
        when this worker's stage has drained, and never takes a stage's
        last worker.
        """
        package = self.package
        config = package.config
        control = self.control
        if config.control is None or package.finished:
            return
        kernel = package.kernel
        yield from self.poll_if_due()
        stage = package.stage_of[index]
        if package.stage_queues[stage]._items:
            # Mid-stream: not a safe point for this worker.
            return
        now = kernel.now
        self.tracker.note_safe_point(now)
        if control.should_resume():
            pid = control.suspended.pop(0)
            control.runnable_workers += 1
            control.resumes += 1
            kernel.trace.emit(
                kernel.now, "pc.resume", app_id=package.app_id, pid=pid
            )
            yield sc.SendSignal(pid, RESUME)
        pending = self.pending_target
        if pending is None:
            return
        effective = self.effective_target(pending)
        if index < package.n_stages or control.runnable_workers <= effective:
            # Stage primaries hold the floor; they never park.
            return
        my_pid = package.worker_pids[index]
        control.runnable_workers -= 1
        control.suspended.append(my_pid)
        control.suspensions += 1
        if control.runnable_workers <= effective:
            # The pool now conforms: the floored target is adopted.
            control.target = effective
            self.pending_target = None
            self.tracker.note_conformed(control.runnable_workers, now)
        kernel.trace.emit(
            kernel.now, "pc.suspend", app_id=package.app_id, pid=my_pid
        )
        payload = yield sc.WaitSignal()
        kernel.trace.emit(
            kernel.now,
            "pc.wake",
            app_id=package.app_id,
            pid=my_pid,
            payload=payload,
        )
        # The waker already re-counted us among the runnable workers.
