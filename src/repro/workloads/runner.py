"""Execute a scenario and collect results.

``run_scenario`` is the single entry point every experiment and benchmark
uses: it wires engine + machine + kernel + scheduler + server + packages,
schedules arrivals, runs to completion, and reduces the trace into the
numbers the paper's figures report.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.allocation import (
    POLICY_ENV_VAR,
    WEIGHTS_ENV_VAR,
    AllocationPolicy,
    SpaceAwarePolicy,
    make_policy,
    parse_weights,
)
from repro.core.plane import SHARDS_ENV_VAR, ControlPlane
from repro.faults.plan import FAULTS_ENV_VAR, FaultPlan
from repro.kernel import Kernel, syscalls as sc
from repro.machine import Machine
from repro.metrics.latency import LatencyStats, tier_stats
from repro.metrics.timeseries import StepSeries, runnable_series_from_trace
from repro.resilience.watchdog import SUPERVISE_ENV_VAR, Watchdog
from repro.sanitize.invariants import SchedSanitizer, sanitize_mode_from_env
from repro.sim import Engine, TraceLog
from repro.sync.stats import LockStats
from repro.threads import make_package
from repro.threads.package import (
    LOCK_ADMISSION_ENV_VAR,
    ThreadsPackage,
    ThreadsPackageConfig,
)
from repro.workloads.scenario import Scenario
from repro.workloads.schedulers import make_scheduler

#: Trace categories the runner needs for its result reduction (the
#: ``sanitize.*`` ones are silent unless a sanitizer is attached).
RUNNER_TRACE_CATEGORIES = (
    "kernel.runnable",
    "app.finished",
    "server.update",
    "pc.poll",
    "pc.suspend",
    "pc.resume",
    "sanitize.violation",
    "sanitize.lock_holder_preempted",
    # Fault-tolerance categories (silent on healthy runs).
    "pc.poll_failed",
    "pc.target_expired",
    "server.crash",
    "server.restart",
    # Self-healing categories (silent unless supervision is armed).
    "pc.policy_swap",
    "plane.rebalance",
    "plane.failover",
    "watchdog.suspect",
    "watchdog.restart",
    "watchdog.recovered",
    "watchdog.failover",
    "watchdog.degraded",
    "watchdog.policy_swap",
    "kernel.cpu_offline",
    "kernel.cpu_online",
    "kernel.cpu_offline_refused",
    "kernel.kill",
    # Service-workload categories (silent unless a ServiceApp runs).
    "service.request",
    "service.slo_violation",
    # Lock-restriction categories (silent unless a lock sets admission).
    "lock.cull",
    "lock.readmit",
)


@dataclass(slots=True)
class AppResult:
    """Per-application outcome of one scenario run (times in us).

    Slotted: a run reduces one per tenant (10k on the ``scale`` tier),
    and an instance ``__dict__`` over these ~40 fields is ~1.3 KB each.
    """

    app_id: str
    n_processes: int
    arrival: int
    finished_at: int
    wall_time: int
    tasks_completed: int
    polls: int
    suspensions: int
    resumes: int
    queue_lock_contended: int
    queue_lock_holder_preempted: int
    queue_lock_spin_time: int
    #: CPU actually consumed by this application's workers (includes the
    #: busy-wait idle polling, which idle_poll_time approximates).
    cpu_time: int = 0
    idle_poll_time: int = 0
    spin_time: int = 0
    preemptions: int = 0
    #: Polls that found the control board stale or empty while the
    #: application held a target (nonzero only under fault injection).
    failed_polls: int = 0
    #: Times the stale-target TTL released a dead server's target.
    target_expiries: int = 0
    #: Service requests that completed (0 for non-service applications).
    requests_completed: int = 0
    #: Runtime the application ran on ("taskqueue"/"forkjoin"/"pipeline").
    runtime: str = "taskqueue"
    #: Compliance telemetry (see :mod:`repro.threads.compliance`):
    #: completed target adoptions, publish-to-conformance lag statistics,
    #: peak runnable overshoot above the published target, and the
    #: observed safe-suspension-point cadence.
    adoptions: int = 0
    adoption_lag_mean: Optional[float] = None
    adoption_lag_max: int = 0
    overshoot_peak: float = 0.0
    safe_points: int = 0
    safe_point_gap_mean: Optional[float] = None
    #: Contention telemetry summed over the application's own locks
    #: (``Application.locks()``; the package queue lock is reported via
    #: the ``queue_lock_*`` fields above).  Per-lock detail, including
    #: the waiters histogram, lives in ``ScenarioResult.locks``.
    lock_acquisitions: int = 0
    lock_contended: int = 0
    lock_holder_preempted: int = 0
    lock_wait_time: int = 0
    lock_handoff_max: int = 0
    lock_waiters_peak: int = 0
    lock_passivations: int = 0
    lock_readmissions: int = 0


@dataclass
class ScenarioResult:
    """Everything an experiment needs from one run."""

    scenario: Scenario
    sim_time: int
    apps: Dict[str, AppResult]
    utilization: Dict[str, int]
    runnable_total: StepSeries
    runnable_per_app: Dict[str, StepSeries]
    server_updates: int
    total_preemptions: int
    total_cs_preemptions: int
    total_spin_time: int
    total_context_switches: int
    #: Simulator events executed for this run (throughput denominator for
    #: the perf benchmarks: events/sec = events_fired / harness wall time).
    events_fired: int
    trace: TraceLog = field(repr=False)
    #: Invariant violations observed by the sanitizer (0 when it was off
    #: or the run was clean; see ``sanitizer_counters`` to distinguish).
    sanitizer_violations: int = 0
    #: The sanitizer's full counter map (checks run, per-check violation
    #: counts, witnessed lock-holder preemptions); ``None`` = sanitizer off.
    sanitizer_counters: Optional[Dict[str, int]] = None
    #: Number of injectors the fault plan installed (0 = healthy run).
    faults_injected: int = 0
    #: ``(time, event, data)`` tuples logged by the fault injectors.
    fault_events: List[Tuple[int, str, Dict[str, Any]]] = field(
        default_factory=list
    )
    #: The watchdog's action counters (``None`` = supervision was off).
    watchdog_counters: Optional[Dict[str, int]] = None
    #: ``(time, kind, details)`` tuples for every watchdog action.
    watchdog_events: List[Tuple[int, str, Dict[str, Any]]] = field(
        default_factory=list
    )
    #: Per-application request-latency summaries (service applications
    #: only; empty when no ServiceApp ran or none completed a request).
    service: Dict[str, LatencyStats] = field(default_factory=dict)
    #: The same summaries aggregated per tier (interactive / batch).
    service_tiers: Dict[str, LatencyStats] = field(default_factory=dict)
    #: Per-lock contention telemetry snapshots keyed by lock name:
    #: every application lock (``Application.locks()``) plus each
    #: package's task-queue lock.  Empty when no lock saw any acquire.
    locks: Dict[str, LockStats] = field(default_factory=dict)

    def wall_time(self, app_id: str) -> int:
        """Wall time of one application (convenience accessor)."""
        return self.apps[app_id].wall_time

    @property
    def makespan(self) -> int:
        """Completion time of the last application."""
        return max(result.finished_at for result in self.apps.values())


class EventMeter:
    """Accumulates event counts across the ``run_scenario`` calls it spans.

    Used by the perf harness (``benchmarks/perf.py``) to report events/sec
    for a whole experiment without re-deriving its scenario list.
    """

    __slots__ = ("events", "runs")

    def __init__(self) -> None:
        self.events = 0
        self.runs = 0


#: The currently active meter, if any (set via :func:`metered`).
active_meter: Optional[EventMeter] = None


@contextmanager
def metered() -> Iterator[EventMeter]:
    """Meter every ``run_scenario`` in the ``with`` body (same process only,
    so harnesses measuring throughput should force serial sweeps)."""
    global active_meter
    meter = EventMeter()
    previous, active_meter = active_meter, meter
    try:
        yield meter
    finally:
        active_meter = previous


def _resolve_policy(scenario: Scenario, kernel: Kernel) -> Optional[AllocationPolicy]:
    """The allocation policy a scenario's control plane should run.

    An explicit ``scenario.policy`` wins and ignores the environment.
    Otherwise the ``REPRO_POLICY`` name takes the ``REPRO_WEIGHTS`` table
    as its ``weights=`` (a table with no name means ``weighted``).  With
    neither set the result is ``None``: the servers' default
    equipartition.
    """
    if isinstance(scenario.policy, AllocationPolicy):
        # An experiment handed over a pre-built instance to pin knobs the
        # name registry's defaults would miss (e.g. a compliance policy
        # whose lag grace matches the experiment's poll cadence).
        return scenario.policy
    name = scenario.policy
    knobs: Dict[str, Any] = {}
    if name is None:
        name = os.environ.get(POLICY_ENV_VAR) or None
        weights_spec = os.environ.get(WEIGHTS_ENV_VAR) or None
        if weights_spec:
            knobs["weights"] = parse_weights(weights_spec)
            name = name or "weighted"
    if name is None:
        return None
    if name == "space":
        if knobs:
            raise ValueError(f'policy "space" takes no {WEIGHTS_ENV_VAR} table')
        if scenario.scheduler != "partition":
            raise ValueError(
                'policy "space" requires scheduler="partition" '
                f"(got {scenario.scheduler!r})"
            )
        return SpaceAwarePolicy(kernel.policy)
    return make_policy(name, **knobs)


def _standalone_program(duration: int, quantum_hint: int):
    """A CPU-bound stand-alone process (one long compute, chunked so its
    compute syscalls do not dwarf the trace granularity)."""
    chunk = max(quantum_hint, 1)
    remaining = duration

    def program():
        nonlocal remaining
        while remaining > 0:
            step = min(chunk, remaining)
            remaining -= step
            yield sc.Compute(step)

    return program()


def run_scenario(
    scenario: Scenario,
    trace: Optional[TraceLog] = None,
    max_events: int = 50_000_000,
    sanitize: Optional[object] = None,
    engine_loop: str = "fused",
    faults: Optional[str] = None,
) -> ScenarioResult:
    """Run *scenario* to completion and reduce its measurements.

    *sanitize* selects the invariant checker: ``None`` (default) consults
    the ``REPRO_SANITIZE`` environment knob, ``False`` forces it off,
    ``"strict"``/``True`` raises on the first violation, ``"record"``
    accumulates violations into the result.  *engine_loop* picks the event
    loop (``"fused"`` or ``"plain"``, see
    :meth:`~repro.kernel.kernel.Kernel.run_until_quiescent`).  *faults*
    is a fault-plan spec string (see :mod:`repro.faults.plan`); when
    ``None`` the runner falls back to ``scenario.faults`` and then the
    ``REPRO_FAULTS`` environment knob.  The plan is seeded from
    ``scenario.seed``, so the same scenario + spec replays bit-identically.
    """
    if not scenario.apps:
        raise ValueError("scenario has no applications")
    if sanitize is None:
        sanitize = sanitize_mode_from_env()
    elif sanitize is True:
        sanitize = "strict"
    elif sanitize is False:
        sanitize = None
    if faults is None:
        faults = scenario.faults
    if faults is None:
        faults = os.environ.get(FAULTS_ENV_VAR) or None
    fault_plan = FaultPlan.from_spec(faults, seed=scenario.seed) if faults else None
    engine = Engine()
    machine = Machine(scenario.machine)
    if trace is None:
        trace = TraceLog(categories=RUNNER_TRACE_CATEGORIES)
    kernel = Kernel(
        machine=machine,
        engine=engine,
        policy=make_scheduler(scenario.scheduler),
        config=scenario.kernel,
        trace=trace,
    )
    sanitizer: Optional[SchedSanitizer] = None
    if sanitize:
        # Attach before anything is spawned so the shadow state starts
        # empty; the server-share watch is armed once the server exists.
        sanitizer = SchedSanitizer(kernel, mode=sanitize).attach()

    app_controls = [spec.control_mode(scenario.control) for spec in scenario.apps]
    server: Optional[ControlPlane] = None
    if "centralized" in app_controls:
        policy = _resolve_policy(scenario, kernel)
        shards = scenario.shards
        if shards is None:
            shards = int(os.environ.get(SHARDS_ENV_VAR) or 1)
        server = ControlPlane(
            kernel,
            shards=shards,
            interval=scenario.server_interval,
            policy=policy,
        )
        server.start()
        if sanitizer is not None:
            sanitizer.watch_server(server, poll_interval=scenario.poll_interval)

    # Supervision: scenario field first, then the env knob; an explicit
    # False pins the watchdog off regardless of the environment (an
    # experiment's unsupervised arm must stay unsupervised in CI).
    supervise = scenario.supervise
    if supervise is None:
        supervise = bool(int(os.environ.get(SUPERVISE_ENV_VAR) or 0))
    watchdog: Optional[Watchdog] = None
    if supervise and server is not None:
        watchdog = Watchdog(
            kernel, server, config=scenario.watchdog, seed=scenario.seed
        )
        watchdog.start()

    # The stale-target TTL is sized so a healthy server (one post per
    # interval) can never look stale; only a dead or partitioned one can.
    stale_target_ttl = scenario.stale_target_ttl
    if stale_target_ttl is None:
        stale_target_ttl = max(
            4 * scenario.poll_interval, 4 * scenario.server_interval
        )

    # Lock-level waiter control: scenario field first, then the env knob.
    # An explicit 0 pins "unrestricted" even when REPRO_LOCK_ADMISSION is
    # set (the supervise=False idiom) so pinned corpus digests cannot be
    # perturbed by a CI-wide knob.
    lock_admission = scenario.lock_admission
    if lock_admission is None:
        lock_admission = int(os.environ.get(LOCK_ADMISSION_ENV_VAR) or 0) or None
    elif lock_admission == 0:
        lock_admission = None

    packages: List[ThreadsPackage] = []
    for index, spec in enumerate(scenario.apps):
        app = spec.factory()
        if lock_admission is not None:
            # Restrict every lock the application exposes; a lock that
            # configured its own admission keeps it (most specific wins).
            for lock in app.locks():
                if lock.admission is None:
                    lock.admission = lock_admission
        # Only centralized applications are routed to a shard; other
        # control modes never poll, so they must not consume shard slots.
        routed = server is not None and app_controls[index] == "centralized"
        package_config = ThreadsPackageConfig(
            control=app_controls[index],
            board=server.board_for(app.app_id) if routed else None,
            server_channel=server.channel_for(app.app_id) if routed else None,
            poll_interval=scenario.poll_interval,
            idle_spin=scenario.idle_spin,
            use_no_preempt_flags=scenario.use_no_preempt_flags,
            stale_target_ttl=stale_target_ttl,
            lock_admission=lock_admission,
        )
        package = make_package(
            spec.runtime, kernel, app, spec.n_processes, config=package_config
        )
        packages.append(package)
        engine.schedule(spec.arrival, package.start, f"arrive-{app.app_id}")
    if sanitizer is not None:
        # Applications that legitimately released a stale target (server
        # dead past the TTL) are exempt from the share-overrun check.
        sanitizer.watch_packages(packages)

    if fault_plan is not None:
        fault_plan.install(kernel, server=server, packages=packages)

    for spec in scenario.uncontrolled:
        engine.schedule(
            spec.arrival,
            # Stand-alone processes are daemons so a long-lived compiler or
            # network daemon does not keep the run alive after every
            # application has finished.
            lambda spec=spec: kernel.spawn(
                _standalone_program(spec.duration, scenario.machine.quantum),
                name=spec.name,
                controllable=False,
                daemon=True,
            ),
            f"arrive-{spec.name}",
        )

    # Checked once per event: gate the per-package scan behind the O(1)
    # live-process counter, which stays nonzero for most of the run (the
    # method is pre-bound so each check costs one call, not two).
    alive = kernel.alive_nondaemon_count
    kernel.run_until_quiescent(
        done=lambda: alive() == 0 and all(p.finished for p in packages),
        max_events=max_events,
        max_time=scenario.max_time,
        # The predicate cannot be true while any worker is alive, so let
        # the event loop skip it until the kernel's exit path says so.
        done_exit_gated=True,
        loop=engine_loop,
    )
    kernel.finalize_accounting()
    if sanitizer is not None:
        sanitizer.finish()

    apps: Dict[str, AppResult] = {}
    service: Dict[str, LatencyStats] = {}
    lock_snapshots: Dict[str, LockStats] = {}
    for package in packages:
        lock_contended, lock_holder_preempted, lock_spin_time = (
            package.queue_lock_stats()
        )
        app_lock_stats: List[LockStats] = []
        for lock in package.app.locks():
            snap = LockStats.from_lock(lock)
            app_lock_stats.append(snap)
            previous = lock_snapshots.get(snap.name)
            lock_snapshots[snap.name] = (
                snap if previous is None else previous.merged(snap)
            )
        queue = getattr(package, "queue", None)
        if queue is not None and queue.lock.acquisitions:
            qsnap = LockStats.from_lock(queue.lock)
            lock_snapshots[qsnap.name] = qsnap
        tracker = package.tracker
        workers = kernel.processes_of_app(package.app_id)
        requests_completed = 0
        if package.request_log is not None:
            requests_completed = len(package.request_log.records)
            stats = package.request_log.stats()
            if stats is not None:
                service[package.app_id] = stats
        apps[package.app_id] = AppResult(
            lock_acquisitions=sum(s.acquisitions for s in app_lock_stats),
            lock_contended=sum(
                s.contended_acquisitions for s in app_lock_stats
            ),
            lock_holder_preempted=sum(
                s.holder_preempted_encounters for s in app_lock_stats
            ),
            lock_wait_time=sum(s.total_wait_time for s in app_lock_stats),
            lock_handoff_max=max(
                (s.handoff_latency_max for s in app_lock_stats), default=0
            ),
            lock_waiters_peak=max(
                (s.waiters_peak for s in app_lock_stats), default=0
            ),
            lock_passivations=sum(s.passivations for s in app_lock_stats),
            lock_readmissions=sum(s.readmissions for s in app_lock_stats),
            requests_completed=requests_completed,
            runtime=package.runtime,
            adoptions=tracker.adoptions,
            adoption_lag_mean=tracker.mean_adoption_lag,
            adoption_lag_max=tracker.max_adoption_lag,
            overshoot_peak=tracker.overshoot_peak,
            safe_points=tracker.safe_points,
            safe_point_gap_mean=tracker.mean_safe_point_gap,
            cpu_time=sum(p.stats.cpu_time for p in workers),
            idle_poll_time=package.idle_poll_time,
            spin_time=sum(p.stats.spin_time for p in workers),
            preemptions=sum(p.stats.preemptions for p in workers),
            app_id=package.app_id,
            n_processes=package.n_processes,
            arrival=package.started_at,
            finished_at=package.finished_at,
            wall_time=package.wall_time,
            tasks_completed=package.tasks_completed,
            polls=package.control.polls,
            suspensions=package.control.suspensions,
            resumes=package.control.resumes,
            queue_lock_contended=lock_contended,
            queue_lock_holder_preempted=lock_holder_preempted,
            queue_lock_spin_time=lock_spin_time,
            failed_polls=package.control.failed_polls,
            target_expiries=package.control.target_expiries,
        )

    if active_meter is not None:
        active_meter.events += engine.events_fired
        active_meter.runs += 1

    runnable_total, runnable_per_app = runnable_series_from_trace(trace)
    total_preemptions = 0
    total_cs_preemptions = 0
    total_spin = 0
    total_switches = 0
    for process in kernel.processes.values():
        total_preemptions += process.stats.preemptions
        total_cs_preemptions += process.stats.preemptions_in_critical_section
        total_spin += process.stats.spin_time
        total_switches += process.stats.dispatches

    # The run's object graph is cyclic (the kernel's per-CPU callbacks, the
    # scheduler and the server all point back at it), so it waits for the
    # cycle collector's next full pass.  Only the result keeps the trace,
    # so its records go the moment the caller drops the result.
    kernel.trace = TraceLog(enabled=False)
    return ScenarioResult(
        scenario=scenario,
        sim_time=kernel.now,
        apps=apps,
        utilization=machine.utilization_summary(),
        runnable_total=runnable_total,
        runnable_per_app=runnable_per_app,
        server_updates=server.updates if server is not None else 0,
        total_preemptions=total_preemptions,
        total_cs_preemptions=total_cs_preemptions,
        total_spin_time=total_spin,
        total_context_switches=total_switches,
        events_fired=engine.events_fired,
        trace=trace,
        sanitizer_violations=len(sanitizer.violations) if sanitizer else 0,
        sanitizer_counters=dict(sanitizer.counters) if sanitizer else None,
        faults_injected=len(fault_plan.injectors) if fault_plan else 0,
        fault_events=list(fault_plan.events) if fault_plan else [],
        watchdog_counters=watchdog.summary() if watchdog else None,
        watchdog_events=list(watchdog.events) if watchdog else [],
        service=service,
        service_tiers=tier_stats(service) if service else {},
        locks=lock_snapshots,
    )
