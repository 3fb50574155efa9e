"""Execute a scenario and collect results.

``run_scenario`` is the single entry point every experiment and benchmark
uses: it wires engine + machine + kernel + scheduler + server, builds each
tenant's threads package (and, when its spec declares an id, its
application) at its arrival, reduces each tenant to its result when its
last worker exits, and runs to completion.  The result's numbers come
from the kernel's, the packages' and the locks' counters; the trace is
recorded only for a caller that passes one, and the runner never reads it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.core.allocation import AllocationPolicy, SpaceAwarePolicy, make_policy
from repro.core.plane import ControlPlane
from repro.faults.plan import FaultPlan
from repro.kernel import Channel, Kernel, syscalls as sc
from repro.machine import Machine
from repro.metrics.latency import LatencyStats, tier_stats
from repro.metrics.timeseries import StepSeries
from repro.resilience.watchdog import Watchdog
from repro.sanitize.invariants import SchedSanitizer
from repro.sim import Engine, TraceLog
from repro.sync.stats import LockStats
from repro.threads import make_package
from repro.threads.package import ThreadsPackage, ThreadsPackageConfig
from repro.workloads.scenario import AppSpec, Scenario
from repro.workloads.schedulers import make_scheduler

@dataclass(slots=True)
class AppResult:
    """Per-application outcome of one scenario run (times in us).

    Slotted: a run reduces one per tenant (10k on the ``scale`` tier),
    so it carries no instance ``__dict__``.  Per-lock detail lives in
    ``ScenarioResult.locks``.
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
    #: completed target adoptions, the worst publish-to-conformance lag,
    #: and the peak runnable overshoot above the published target.
    adoptions: int = 0
    adoption_lag_max: int = 0
    overshoot_peak: float = 0.0


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
    #: every application lock (``Application.locks()``), even one that
    #: was never acquired, plus each package's task-queue lock that saw
    #: at least one acquire (a never-acquired queue lock is left out).
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
    """The allocation policy a scenario's control plane should run:
    ``None`` (the servers' default equipartition) when the scenario names
    none, a pre-built instance as it is, or the policy a name selects."""
    policy = scenario.policy
    if policy is None or isinstance(policy, AllocationPolicy):
        # A pre-built instance pins knobs the name registry's defaults
        # would miss (e.g. a compliance policy whose lag grace matches the
        # experiment's poll cadence).
        return policy
    if policy == "space":
        # The scenario checked that the scheduler is the partition one.
        return SpaceAwarePolicy(kernel.policy)
    return make_policy(policy)


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


def _reduce(
    kernel: Kernel, package: ThreadsPackage
) -> Tuple[AppResult, List[LockStats], Optional[LockStats], Optional[LatencyStats]]:
    """A tenant whose last worker has exited, reduced to what the result
    keeps: its :class:`AppResult`, a snapshot of each application lock, its
    queue lock's snapshot (``None`` if never acquired) and its request
    latency summary (``None`` unless it completed a request)."""
    lock_contended, lock_holder_preempted = package.queue_lock_stats()
    app_lock_stats = [LockStats.from_lock(lock) for lock in package.app.locks()]
    queue_lock = package.queue.lock
    queue_snap = LockStats.from_lock(queue_lock) if queue_lock.acquisitions else None
    log = package.request_log
    latency = log.stats() if log is not None else None
    tracker = package.tracker
    control = package.control
    workers = kernel.processes_of_app(package.app_id)
    result = AppResult(
        requests_completed=len(log.records) if log is not None else 0,
        runtime=package.runtime,
        adoptions=tracker.adoptions,
        adoption_lag_max=tracker.max_adoption_lag,
        overshoot_peak=tracker.overshoot_peak,
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
        polls=control.polls,
        suspensions=control.suspensions,
        resumes=control.resumes,
        queue_lock_contended=lock_contended,
        queue_lock_holder_preempted=lock_holder_preempted,
        failed_polls=control.failed_polls,
        target_expiries=control.target_expiries,
    )
    return result, app_lock_stats, queue_snap, latency


def run_scenario(
    scenario: Scenario,
    trace: Optional[TraceLog] = None,
    max_events: int = 50_000_000,
    sanitize: Optional[str] = None,
) -> ScenarioResult:
    """Run *scenario* to completion and reduce its measurements.

    The scenario is the whole run description.  *trace* is recorded
    into and kept on the result; ``None`` (default) records nothing.
    *sanitize* selects the invariant checker: ``None`` (default) runs
    unchecked, ``"strict"`` raises on the first violation, ``"record"``
    accumulates violations into the result.  A ``scenario.faults`` plan
    is seeded from ``scenario.seed``, so the same scenario replays
    bit-identically.
    """
    fault_plan = (
        FaultPlan.from_spec(scenario.faults, seed=scenario.seed)
        if scenario.faults
        else None
    )
    engine = Engine()
    machine = Machine(scenario.machine)
    if trace is None:
        trace = TraceLog(enabled=False)
    kernel = Kernel(
        machine=machine,
        engine=engine,
        policy=make_scheduler(scenario.scheduler),
        config=scenario.kernel,
        trace=trace,
    )
    sanitizer: Optional[SchedSanitizer] = None
    if sanitize is not None:
        # Attach before anything is spawned so the shadow state starts
        # empty; the server-share watch is armed once the server exists.
        sanitizer = SchedSanitizer(kernel, mode=sanitize).attach()

    app_controls = [spec.control_mode(scenario.control) for spec in scenario.apps]
    server: Optional[ControlPlane] = None
    if "centralized" in app_controls:
        server = ControlPlane(
            kernel,
            shards=scenario.shards,
            interval=scenario.server_interval,
            policy=_resolve_policy(scenario, kernel),
        )
        server.start()
        if sanitizer is not None:
            sanitizer.watch_server(server, poll_interval=scenario.poll_interval)

    watchdog: Optional[Watchdog] = None
    if scenario.supervise and server is not None:
        watchdog = Watchdog(
            kernel, server, config=scenario.watchdog, seed=scenario.seed
        )
        watchdog.start()

    # The stale-target TTL is sized so a healthy server (one post per
    # interval) can never look stale; only a dead or partitioned one can.
    stale_target_ttl = max(4 * scenario.poll_interval, 4 * scenario.server_interval)

    lock_admission = scenario.lock_admission

    # Each tenant is routed here, in spec order: routing and registration
    # channels are fixed before the first event, so a shard rebalance
    # before a tenant arrives cannot move the channel it registers on.  A
    # spec that declares its app_id is routed from the id alone and its
    # application is built at its arrival; an id-less spec's factory runs
    # here to learn the id.  Each package is built at its tenant's arrival
    # and dropped once its last worker exits.
    n_apps = len(scenario.apps)
    first_index: Dict[str, int] = {}
    reduced: List[Any] = [None] * n_apps  # per spec index, see _reduce
    workers_left = [0] * n_apps
    owner: Dict[int, Tuple[int, ThreadsPackage]] = {}  # live worker pid
    unfinished = n_apps

    def arrive(
        index: int, spec: AppSpec, app: Any, channel: Optional[Channel]
    ) -> None:
        if app is None:
            app = spec.factory()
            if app.app_id != spec.app_id:
                raise ValueError(
                    f"scenario.apps[{index}] declares app_id {spec.app_id!r} "
                    f"but its factory built {app.app_id!r}"
                )
        if lock_admission is not None:
            # Restrict every lock the application exposes; a lock that
            # configured its own admission keeps it (most specific wins).
            for lock in app.locks():
                if lock.admission is None:
                    lock.admission = lock_admission
        config = ThreadsPackageConfig(
            control=app_controls[index],
            board=server.board_for(app.app_id) if channel is not None else None,
            server_channel=channel,
            poll_interval=scenario.poll_interval,
            idle_spin=scenario.idle_spin,
            use_no_preempt_flags=scenario.use_no_preempt_flags,
            stale_target_ttl=stale_target_ttl,
            lock_admission=lock_admission,
        )
        package = make_package(
            spec.runtime, kernel, app, spec.n_processes, config=config
        )
        if sanitizer is not None:
            # Applications that legitimately released a stale target (server
            # dead past the TTL) are exempt from the share-overrun check.
            sanitizer.watch_package(package)
        package.start()
        workers_left[index] = len(package.worker_pids)
        for pid in package.worker_pids:
            owner[pid] = (index, package)

    def worker_exited(process: Any) -> None:
        # Not at the finish: the poison push and the workers' last pops
        # still take the queue lock, so a tenant is reduced only once its
        # last worker is gone.  Its owner entries were the last references
        # to its package.
        nonlocal unfinished
        tenant = owner.pop(process.pid, None)
        if tenant is None:
            return
        index, package = tenant
        workers_left[index] -= 1
        if workers_left[index]:
            return
        reduced[index] = _reduce(kernel, package)
        if package.finished:
            unfinished -= 1

    kernel.exit_listeners.append(worker_exited)
    for index, spec in enumerate(scenario.apps):
        app = None if spec.app_id else spec.factory()
        app_id = spec.app_id or app.app_id
        first = first_index.setdefault(app_id, index)
        if first != index:
            raise ValueError(
                f"scenario.apps[{first}] and scenario.apps[{index}] share "
                f"app_id {app_id!r}"
            )
        # Only a centralized application is routed here, to fix the
        # channel it registers on.  The others still take a shard slot:
        # a scan routes every controllable tenant it finds unrouted in
        # the census, as the table scan does.
        routed = server is not None and app_controls[index] == "centralized"
        channel = server.channel_for(app_id) if routed else None
        engine.schedule(
            spec.arrival,
            partial(arrive, index, spec, app, channel),
            f"arrive-{app_id}",
        )
    del first_index  # one entry per tenant: not worth keeping for the run

    if fault_plan is not None:
        fault_plan.install(kernel, server=server)

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

    # Checked once per event: the live-process counter and the unfinished
    # count are both O(1) (the method is pre-bound so each check costs one
    # call, not two).
    alive = kernel.alive_nondaemon_count
    kernel.run_until_quiescent(
        done=lambda: alive() == 0 and not unfinished,
        max_events=max_events,
        max_time=scenario.max_time,
        # The predicate cannot be true while any worker is alive, so let
        # the event loop skip it until the kernel's exit path says so.
        done_exit_gated=True,
    )
    kernel.finalize_accounting()
    if sanitizer is not None:
        sanitizer.finish()

    # Assembled in spec order, so dict order and same-name lock merges do
    # not depend on the order tenants finished in.
    apps: Dict[str, AppResult] = {}
    service: Dict[str, LatencyStats] = {}
    lock_snapshots: Dict[str, LockStats] = {}
    for result, app_lock_stats, queue_snap, latency in reduced:
        apps[result.app_id] = result
        for snap in app_lock_stats:
            previous = lock_snapshots.get(snap.name)
            lock_snapshots[snap.name] = (
                snap if previous is None else previous.merged(snap)
            )
        if queue_snap is not None:
            lock_snapshots[queue_snap.name] = queue_snap
        if latency is not None:
            service[result.app_id] = latency

    if active_meter is not None:
        active_meter.events += engine.events_fired
        active_meter.runs += 1

    runnable_total, runnable_per_app = kernel.detach_runnable_series()
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
    # cycle collector's next full pass.  Only the result keeps the trace and
    # the runnable series, so they go the moment the caller drops it.
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
