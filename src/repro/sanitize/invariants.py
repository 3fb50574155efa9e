"""Online scheduling-invariant checker.

:class:`SchedSanitizer` wraps a live :class:`~repro.kernel.kernel.Kernel`
(and its policy) with checking shims installed as *instance* attributes, so
an unattached kernel pays nothing.  The shims maintain shadow state -- a
census of queued pids and a pid->cpu map of running processes -- and verify
at every transition that the simulation still satisfies the structural
invariants the experiments silently rely on:

* every process is in exactly one state, on at most one run queue, and on
  at most one processor;
* run-queue handoffs are sane: no double enqueue, no dequeue of a process
  that was never enqueued, no dispatch onto a busy processor;
* suspension (the process-control ``WaitSignal`` protocol) only happens at
  task-queue safe points -- never while holding a spinlock or spinning;
* lock-holder preemption is accounted as a *witnessed* event (the shim saw
  ``locks_held > 0`` at the preemption itself) and cross-checked at
  :meth:`~SchedSanitizer.finish` against the kernel's inferred statistics;
* the event calendar stays consistent: ``pending_count`` matches the live
  heap entries and no live event is scheduled in the past;
* once a control server is watched, no application sustains more runnable
  workers than its granted share beyond a compliance window (workers only
  obey at safe points, so momentary overruns are legal).

Three more shims recompute the incremental structures from scratch at
the same instant: the kernel's idle-cpu set before each dispatch pass
(``idle-set-drift``), its census in each ``GetLoadSummary`` reply
(``census-drift``), and each watched server's water-filling against the
batch rule (``scan-divergence``).

Cheap checks (monotonic time, shadow-state bookkeeping) run at every shim;
expensive ones (census cross-check via
:meth:`~repro.kernel.scheduler.base.SchedulerPolicy.queued_census`, full
state-machine and calendar scans) run every ``deep_period`` transitions and
only at *safe points* -- transition boundaries where no process is legally
in flight between a queue and a processor.

Modes: ``"strict"`` raises :class:`SanitizerError` at the first violation;
``"record"`` accumulates :class:`Violation` entries, emits
``sanitize.violation`` trace records (which the lint pass consumes
post-hoc) and warns with one :class:`SanitizerWarning` per violation while
the run continues, so a dirty run never prints like a clean one.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.core.policy import partition_processors
from repro.kernel import syscalls as sc
from repro.kernel.process import RUNNABLE_STATES, ProcessState
from repro.sim.engine import SimulationError

if TYPE_CHECKING:
    from repro.core.plane import ControlPlane


class SanitizerError(SimulationError):
    """A scheduling invariant was violated (strict mode)."""


class SanitizerWarning(UserWarning):
    """A scheduling invariant was violated (record mode): the run goes on,
    and the warning names the check, the simulated time and the message."""


@dataclass(frozen=True)
class Violation:
    """One invariant violation.

    Attributes:
        time: simulation time in microseconds.
        check: kebab-case name of the failed check, e.g. ``"double-enqueue"``.
        message: human-readable description.
        pid: the process involved, when one is identifiable.
    """

    time: int
    check: str
    message: str
    pid: Optional[int] = None


class SchedSanitizer:
    """Attachable invariant checker for one kernel instance.

    Usage::

        sanitizer = SchedSanitizer(kernel, mode="strict")
        sanitizer.attach()
        ... run the simulation ...
        sanitizer.finish()    # end-of-run cross-checks
        sanitizer.detach()    # optional: restore the unwrapped kernel
    """

    def __init__(
        self,
        kernel,
        mode: str = "strict",
        deep_period: int = 64,
    ) -> None:
        if mode not in ("strict", "record"):
            raise ValueError(f"mode must be 'strict' or 'record', got {mode!r}")
        if deep_period < 1:
            raise ValueError("deep_period must be >= 1")
        self.kernel = kernel
        self.mode = mode
        self.deep_period = deep_period
        self.violations: list = []
        self.counters: Dict[str, int] = {
            "checks": 0,
            "deep_checks": 0,
            "violations": 0,
            "lock_holder_preemptions_witnessed": 0,
        }
        self._attached = False
        # Shadow state, rebuilt from the sanitizer's own observations.
        self._queued: Dict[int, bool] = {}  # pid -> has a live queue entry
        self._running: Dict[int, int] = {}  # pid -> cpu
        self._last_time = 0
        self._ops = 0
        self._next_deep = deep_period
        self._baseline_cs_preemptions = 0
        #: (object, attribute, previous instance value) per installed shim.
        self._saved: List[Tuple[Any, str, object]] = []
        # Server-share watching (armed via watch_server / watch_package).
        self._plane: Optional["ControlPlane"] = None
        self._compliance_window: Optional[int] = None
        self._overrun_since: Dict[str, Tuple[int, int]] = {}
        #: app_id -> the watched package's control block (not the package,
        #: so a finished tenant's package can still be freed).
        self._controls: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True while no violation has been observed."""
        return not self.violations

    def attach(self) -> "SchedSanitizer":
        """Install the checking shims.  Idempotence is an error (attach
        twice and the second set of shims would wrap the first)."""
        if self._attached:
            raise RuntimeError("sanitizer is already attached")
        kernel = self.kernel
        policy = kernel.policy
        self._last_time = kernel.engine.now
        self._baseline_cs_preemptions = sum(
            p.stats.preemptions_in_critical_section
            for p in kernel.processes.values()
        )
        # Seed shadow state from whatever already exists (attaching before
        # the first spawn leaves both empty).
        census = policy.queued_census()
        if census:
            for pid in census:
                self._queued[pid] = True
        for process in kernel.processes.values():
            if process.state is ProcessState.RUNNING and process.cpu is not None:
                self._running[process.pid] = process.cpu

        enqueue = self._make_enqueue(policy.enqueue)
        dequeue = self._make_dequeue(policy.dequeue)
        self._install(policy, "enqueue", enqueue)
        self._install(policy, "dequeue", dequeue)
        # The kernel caches the bound methods at construction; repoint the
        # caches so the preempt/wake/dispatch paths go through the shims.
        self._install(kernel, "_policy_enqueue", enqueue)
        self._install(kernel, "_policy_dequeue", dequeue)
        self._wrap_kernel("_dispatch", self._make_dispatch)
        self._wrap_kernel("_undispatch", self._make_undispatch)
        self._wrap_kernel("_preempt", self._make_preempt)
        self._wrap_kernel("_block_current", self._make_block)
        self._wrap_kernel("_wake", self._make_wake)
        self._wrap_kernel("_exit_current", self._make_exit)
        self._wrap_kernel("_terminate_off_cpu", self._make_terminate)
        self._wrap_kernel("_dispatch_pass", self._make_dispatch_pass)
        # The kernel's service loop reads the handler table through the
        # instance, so an instance copy reroutes one syscall for this
        # kernel alone.
        handlers = dict(kernel._HANDLERS)
        handlers[sc.GetLoadSummary] = self._make_load_summary(
            handlers[sc.GetLoadSummary]
        )
        self._install(kernel, "_HANDLERS", handlers)
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove every shim, restoring the kernel's original fast paths."""
        if not self._attached:
            return
        for obj, name, original in self._saved:
            if original is _MISSING:
                obj.__dict__.pop(name, None)
            else:
                setattr(obj, name, original)
        self._saved.clear()
        self._attached = False

    def watch_server(
        self, plane: "ControlPlane", poll_interval: int, compliance_factor: int = 4
    ) -> None:
        """Arm the runnable-share check against *plane*'s published
        targets, and the scan check on each of its shard servers.

        Workers only obey targets at task-queue safe points, and resumes
        briefly overshoot, so an overrun only counts as a violation when it
        persists longer than ``compliance_factor * poll_interval``.
        """
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self._plane = plane
        self._compliance_window = compliance_factor * poll_interval
        for shard in plane.servers:
            self._install(
                shard, "_allocate", self._make_allocate(shard, shard._allocate)
            )

    def watch_package(self, package) -> None:
        """Tell the share check about one application's package (the
        runner calls this as each tenant's package is built, at arrival).

        Graceful degradation lets a package *release* a stale target
        (``control.target is None`` after the TTL) and restore full
        parallelism while the board still shows the dead server's last
        word; that is legal, so such applications are exempted from the
        share-overrun check until they re-adopt a fresh target.
        """
        self._controls[package.app_id] = package.control

    def finish(self) -> "SchedSanitizer":
        """End-of-run checks: a final deep pass plus the witnessed
        lock-holder-preemption count against the kernel's statistics."""
        self.deep_check()
        inferred = (
            sum(
                p.stats.preemptions_in_critical_section
                for p in self.kernel.processes.values()
            )
            - self._baseline_cs_preemptions
        )
        witnessed = self.counters["lock_holder_preemptions_witnessed"]
        if witnessed != inferred:
            self._report(
                "witness-mismatch",
                f"witnessed {witnessed} lock-holder preemptions but the "
                f"kernel accounted {inferred}: a preemption bypassed the "
                f"sanitizer",
            )
        return self

    # ------------------------------------------------------------------
    # Violation plumbing
    # ------------------------------------------------------------------

    def _report(self, check: str, message: str, pid: Optional[int] = None) -> None:
        now = self.kernel.engine.now
        self.violations.append(Violation(now, check, message, pid))
        self.counters["violations"] += 1
        key = f"violations.{check}"
        self.counters[key] = self.counters.get(key, 0) + 1
        self.kernel.trace.emit(
            now, "sanitize.violation", check=check, message=message, pid=pid
        )
        text = f"[sanitize:{check}] t={now}us: {message}"
        if self.mode == "strict":
            raise SanitizerError(text)
        warnings.warn(text, SanitizerWarning, stacklevel=2)

    def _pre(self) -> None:
        """Per-shim cheap checks: monotonic time, operation counting."""
        now = self.kernel.engine.now
        if now < self._last_time:
            self._report(
                "monotonic-time",
                f"clock moved backwards: {self._last_time}us -> {now}us",
            )
        self._last_time = now
        self.counters["checks"] += 1
        self._ops += 1

    def _maybe_deep(self) -> None:
        if self._ops >= self._next_deep:
            self._next_deep = self._ops + self.deep_period
            self.deep_check()

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------

    def _install(self, obj: Any, name: str, value: object) -> None:
        """Set an instance attribute, remembering what detach() restores."""
        self._saved.append((obj, name, obj.__dict__.get(name, _MISSING)))
        setattr(obj, name, value)

    def _wrap_kernel(self, name: str, factory) -> None:
        self._install(self.kernel, name, factory(getattr(self.kernel, name)))

    def _make_enqueue(self, original):
        def enqueue(process, reason):
            self._pre()
            pid = process.pid
            if pid in self._queued:
                self._report(
                    "double-enqueue",
                    f"process {pid} enqueued ({reason!r}) while it already "
                    f"has a live queue entry",
                    pid,
                )
            if process.state is not ProcessState.READY:
                self._report(
                    "enqueue-non-ready",
                    f"process {pid} enqueued in state {process.state.name}",
                    pid,
                )
            original(process, reason)
            self._queued[pid] = True
            self._maybe_deep()

        return enqueue

    def _make_dequeue(self, original):
        def dequeue(cpu):
            self._pre()
            process = original(cpu)
            if process is not None:
                pid = process.pid
                if self._queued.pop(pid, None) is None:
                    self._report(
                        "phantom-dequeue",
                        f"dequeue on cpu {cpu} returned process {pid}, which "
                        f"has no live queue entry",
                        pid,
                    )
                if process.state is not ProcessState.READY:
                    self._report(
                        "dequeue-non-ready",
                        f"dequeue returned process {pid} in state "
                        f"{process.state.name}",
                        pid,
                    )
            # No deep check here: the caller is about to dispatch, so the
            # returned process is legally READY-but-unqueued right now.
            return process

        return dequeue

    def _make_dispatch(self, original):
        def _dispatch(cpu, process):
            self._pre()
            pid = process.pid
            if self.kernel.machine.processors[cpu].current is not None:
                self._report(
                    "dispatch-busy-cpu", f"dispatch of {pid} onto busy cpu {cpu}", pid
                )
            if not self.kernel.cpu_is_online(cpu):
                self._report(
                    "dispatch-offline-cpu",
                    f"dispatch of {pid} onto offline cpu {cpu}",
                    pid,
                )
            elsewhere = self._running.get(pid)
            if elsewhere is not None:
                self._report(
                    "dispatch-while-running",
                    f"process {pid} dispatched on cpu {cpu} while already "
                    f"running on cpu {elsewhere}",
                    pid,
                )
            if process.state is not ProcessState.READY:
                self._report(
                    "dispatch-non-ready",
                    f"dispatch of process {pid} in state {process.state.name}",
                    pid,
                )
            if pid in self._queued:
                self._report(
                    "dispatch-queued",
                    f"process {pid} dispatched while still holding a live "
                    f"queue entry",
                    pid,
                )
            original(cpu, process)
            self._running[pid] = cpu
            self._maybe_deep()

        return _dispatch

    def _make_undispatch(self, original):
        def _undispatch(cpu):
            self._pre()
            current = self.kernel.machine.processors[cpu].current
            if current is None:
                self._report("undispatch-idle-cpu", f"undispatch of idle cpu {cpu}")
            process = original(cpu)
            tracked = self._running.pop(process.pid, None)
            if tracked != cpu:
                self._report(
                    "state-machine",
                    f"process {process.pid} undispatched from cpu {cpu} but "
                    f"the sanitizer tracked it on {tracked}",
                    process.pid,
                )
            # No deep check: the caller now owns a RUNNING-detached process
            # and will re-queue, block, or terminate it.
            return process

        return _undispatch

    def _make_preempt(self, original):
        def _preempt(cpu, reason):
            self._pre()
            process = self.kernel.machine.processors[cpu].current
            locks_held = process.locks_held if process is not None else 0
            original(cpu, reason=reason)
            if process is not None and locks_held > 0:
                # Witnessed, not inferred: the shim saw the lock count at
                # the moment of preemption itself.
                self.counters["lock_holder_preemptions_witnessed"] += 1
                self.kernel.trace.emit(
                    self.kernel.engine.now,
                    "sanitize.lock_holder_preempted",
                    pid=process.pid,
                    cpu=cpu,
                    locks_held=locks_held,
                    reason=reason,
                )
            self._maybe_deep()

        return _preempt

    def _make_block(self, original):
        def _block_current(cpu, reason):
            self._pre()
            process = self.kernel.machine.processors[cpu].current
            if process is not None and reason == "signal":
                # WaitSignal is the process-control suspension mechanism;
                # per Section 5 it may only happen at task-queue safe
                # points, where no spinlock is held and nothing spins.
                if process.locks_held > 0:
                    self._report(
                        "unsafe-suspension",
                        f"process {process.pid} suspended while holding "
                        f"{process.locks_held} spinlock(s)",
                        process.pid,
                    )
                if process.spinning_on is not None:
                    self._report(
                        "unsafe-suspension",
                        f"process {process.pid} suspended while spinning on "
                        f"{process.spinning_on.name!r}",
                        process.pid,
                    )
            result = original(cpu, reason)
            self._maybe_deep()
            return result

        return _block_current

    def _make_wake(self, original):
        def _wake(process):
            self._pre()
            pid = process.pid
            if process.state is not ProcessState.BLOCKED:
                self._report(
                    "wake-non-blocked",
                    f"wake of process {pid} in state {process.state.name}",
                    pid,
                )
            if pid in self._running:
                self._report(
                    "state-machine",
                    f"wake of process {pid} while tracked as running on "
                    f"cpu {self._running[pid]}",
                    pid,
                )
            original(process)
            self._maybe_deep()

        return _wake

    def _make_exit(self, original):
        def _exit_current(cpu):
            self._pre()
            process = self.kernel.machine.processors[cpu].current
            original(cpu)
            if process is not None:
                # The policy dropped its entries in on_process_exit; a
                # terminated process must not linger in the shadow census.
                self._queued.pop(process.pid, None)
            self._maybe_deep()

        return _exit_current

    def _make_terminate(self, original):
        def _terminate_off_cpu(process):
            self._pre()
            pid = process.pid
            if pid in self._running:
                self._report(
                    "state-machine",
                    f"off-cpu termination of process {pid} while tracked as "
                    f"running on cpu {self._running[pid]}",
                    pid,
                )
            original(process)
            # Same cleanup as the exit shim: the policy dropped any queue
            # entry the killed process still had.
            self._queued.pop(pid, None)
            self._maybe_deep()

        return _terminate_off_cpu

    # ------------------------------------------------------------------
    # Incremental-structure oracles
    # ------------------------------------------------------------------

    def _make_dispatch_pass(self, original):
        kernel = self.kernel

        def _dispatch_pass():
            # The pass walks only the tracked idle set (when it is
            # non-empty), so that set must be exactly the idle online cpus.
            idle = kernel._idle_cpus
            if idle:
                processors = kernel.machine.processors
                actual = {
                    cpu
                    for cpu in kernel._dispatch_cpus
                    if processors[cpu].current is None
                }
                if idle != actual:
                    self._report(
                        "idle-set-drift",
                        f"idle-cpu set drifted: tracked {sorted(idle)} "
                        f"actual {sorted(actual)}",
                    )
            original()

        return _dispatch_pass

    def _make_load_summary(self, handler):
        def _sys_get_load_summary(kernel, cpu, process, syscall):
            proceed = handler(kernel, cpu, process, syscall)
            # The reply is in place and no event has fired since it was
            # taken, so a table walk now sees the same instant.
            summary = process.syscall_result
            alive = 0
            uncontrolled = 0
            totals: Dict[str, int] = {}
            for p in kernel.processes.values():
                if not p.alive:
                    continue
                alive += 1
                if p.controllable:
                    if p.app_id is not None:
                        totals[p.app_id] = totals.get(p.app_id, 0) + 1
                elif p.state in RUNNABLE_STATES and p.pid not in syscall.exclude_pids:
                    uncontrolled += 1
            replayed = {a: t for a, t in kernel._app_alive.items() if t > 0}
            if (alive, uncontrolled, totals) != (
                summary.alive,
                summary.uncontrolled_runnable,
                replayed,
            ):
                self._report(
                    "census-drift",
                    "sparse census diverged from the process table: alive "
                    f"{summary.alive} vs {alive}, uncontrolled "
                    f"{summary.uncontrolled_runnable} vs {uncontrolled}, "
                    f"per-app {replayed} vs {totals}",
                )
            return proceed

        return _sys_get_load_summary

    def _make_allocate(self, server, original):
        def _allocate(capacity, uncontrolled, runnable, now):
            targets = original(capacity, uncontrolled, runnable, now)
            # The routed slice of the replayed census, kept apart from the
            # filler, is what the filler's caps must mirror.
            assignment = server.plane.assignment
            index = server.shard_index
            view = {
                app_id: total
                for app_id, total in server._alive_view.items()
                if assignment.get(app_id) == index
            }
            if server.policy.equipartition:
                batch = partition_processors(capacity, uncontrolled, view)
                if batch != targets:
                    self._report(
                        "scan-divergence",
                        f"{server.name}: incremental water-filling diverged "
                        f"from the batch rule: incremental={targets} "
                        f"batch={batch} caps={view} capacity={capacity} "
                        f"uncontrolled={uncontrolled}",
                    )
            caps = server._filler.caps()
            if caps != view:
                self._report(
                    "scan-divergence",
                    f"{server.name}: sorted-cap structure diverged from the "
                    f"replayed census view: filler={caps} view={view}",
                )
            return targets

        return _allocate

    # ------------------------------------------------------------------
    # Deep (safe-point) checks
    # ------------------------------------------------------------------

    def deep_check(self) -> None:
        """Full-state invariants, run only at transition boundaries."""
        self.counters["deep_checks"] += 1
        self._check_census()
        self._check_state_machine()
        self._check_calendar()
        if self._plane is not None:
            self._check_server_share()

    def _check_census(self) -> None:
        census = self.kernel.policy.queued_census()
        if census is None:
            return
        for pid, entries in census.items():
            if entries != 1:
                self._report(
                    "census-mismatch",
                    f"process {pid} has {entries} live run-queue entries",
                    pid,
                )
            elif pid not in self._queued:
                self._report(
                    "census-mismatch",
                    f"process {pid} is on the run queue but was never "
                    f"enqueued (phantom entry)",
                    pid,
                )
        for pid in self._queued:
            if pid not in census:
                self._report(
                    "census-mismatch",
                    f"process {pid} was enqueued but has no live run-queue "
                    f"entry (lost entry)",
                    pid,
                )

    def _check_state_machine(self) -> None:
        kernel = self.kernel
        on_cpu: Dict[int, int] = {}
        for processor in kernel.machine.processors:
            current = processor.current
            if current is None:
                continue
            pid = current.pid
            if not kernel.cpu_is_online(processor.cpu_id):
                self._report(
                    "offline-cpu-busy",
                    f"offline cpu {processor.cpu_id} still runs process {pid}",
                    pid,
                )
            if pid in on_cpu:
                self._report(
                    "state-machine",
                    f"process {pid} is current on cpus {on_cpu[pid]} and "
                    f"{processor.cpu_id}",
                    pid,
                )
            on_cpu[pid] = processor.cpu_id
            if current.state is not ProcessState.RUNNING:
                self._report(
                    "state-machine",
                    f"process {pid} is current on cpu {processor.cpu_id} in "
                    f"state {current.state.name}",
                    pid,
                )
            if current.cpu != processor.cpu_id:
                self._report(
                    "state-machine",
                    f"process {pid} on cpu {processor.cpu_id} records "
                    f"cpu={current.cpu}",
                    pid,
                )
        if on_cpu != self._running:
            self._report(
                "state-machine",
                f"sanitizer running-map {self._running} disagrees with the "
                f"machine {on_cpu}",
            )
        for process in kernel.processes.values():
            pid = process.pid
            state = process.state
            if state is ProcessState.RUNNING:
                if pid not in on_cpu:
                    self._report(
                        "state-machine",
                        f"process {pid} is RUNNING but on no processor",
                        pid,
                    )
            elif state is ProcessState.READY:
                # Safe-point invariant: a READY process always has exactly
                # one live queue entry (shims never deep-check mid-handoff).
                if pid not in self._queued:
                    self._report(
                        "state-machine",
                        f"process {pid} is READY but on no run queue",
                        pid,
                    )
            else:
                if pid in self._queued:
                    self._report(
                        "state-machine",
                        f"process {pid} is {state.name} but still has a "
                        f"live queue entry",
                        pid,
                    )
                if pid in on_cpu:
                    self._report(
                        "state-machine",
                        f"process {pid} is {state.name} but current on cpu "
                        f"{on_cpu[pid]}",
                        pid,
                    )

    def _check_calendar(self) -> None:
        engine = self.kernel.engine
        now = engine.now
        live = 0
        for time, handle in engine.calendar_entries():
            if handle.callback is None:
                continue
            live += 1
            if time < now:
                self._report(
                    "calendar-past-event",
                    f"live event {handle.label!r} scheduled at {time}us but "
                    f"the clock is at {now}us",
                )
        if live != engine.pending_count:
            self._report(
                "calendar-count",
                f"pending_count says {engine.pending_count} live events but "
                f"the calendar holds {live}",
            )

    def _in_policy_transition(self, app_id: str, now: int) -> bool:
        """True while *app_id*'s responsible server digests a policy swap.

        The tolerance lasts one server interval (the swapped rule's first
        scan) plus the usual compliance window (the packages' re-poll
        slack) from the recorded ``policy_swapped_at``.  The app's own
        shard is consulted; an unrouted app falls back to every shard's
        stamp.
        """
        plane = self._plane
        index = plane.assignment.get(app_id)
        candidates = plane.servers if index is None else [plane.servers[index]]
        for candidate in candidates:
            swapped_at = candidate.policy_swapped_at
            if swapped_at is None:
                continue
            if now - swapped_at <= candidate.interval + self._compliance_window:
                return True
        return False

    def _check_server_share(self) -> None:
        # Ask the plane what the active policy has actually published: the
        # merge of every shard's board, with each application judged by
        # its own shard's word.
        targets_map = self._plane.published_targets()
        if not targets_map:
            return
        kernel = self.kernel
        now = kernel.engine.now
        runnable: Dict[str, int] = {}
        for process in kernel.processes.values():
            if process.controllable and process.runnable and process.app_id:
                runnable[process.app_id] = runnable.get(process.app_id, 0) + 1
        # A package is accountable to the target it has actually *adopted*
        # (``control.target``), not to whatever the board says this instant:
        # targets only bind once read at a poll, and during a control-plane
        # outage (dropped polls, crashed server) the package cannot see the
        # board's newer word at all.  Failure to refresh is policed by the
        # stale-target TTL, not by this check.  An adopted target of ``None``
        # means the control released it (TTL expiry) and the application
        # legitimately runs at full parallelism until the next fresh poll.
        # Applications without a watched package fall back to the board word.
        adopted = {
            app_id: control.target for app_id, control in self._controls.items()
        }
        for app_id, target in targets_map.items():
            if app_id in adopted:
                if adopted[app_id] is None:
                    self._overrun_since.pop(app_id, None)
                    continue
                target = adopted[app_id]
            granted = max(target, 1)
            count = runnable.get(app_id, 0)
            if count <= granted:
                self._overrun_since.pop(app_id, None)
                continue
            if self._in_policy_transition(app_id, now):
                # A hot policy swap (server.set_policy) was taken within
                # the last scan-plus-compliance window: the board may
                # still carry the *old* rule's word while packages have
                # adopted it, so a transient overrun against the new
                # rule's tighter grant is legitimate until the swapped
                # server has scanned and the packages have re-polled.
                self._overrun_since.pop(app_id, None)
                continue
            previous = self._overrun_since.get(app_id)
            if previous is None or previous[0] != target:
                # New overrun (or the grant changed): start the clock.
                self._overrun_since[app_id] = (target, now)
            elif now - previous[1] > self._compliance_window:
                self._report(
                    "share-overrun",
                    f"application {app_id!r} has {count} runnable workers, "
                    f"above its granted {granted}, sustained for "
                    f"{now - previous[1]}us",
                )
                self._overrun_since[app_id] = (target, now)


#: Sentinel distinguishing "no instance attribute existed" in detach().
_MISSING = object()
