"""The seeded scenario corpus.

Everything here is *data construction*: each function emits
:class:`~repro.scenarios.spec.ScenarioCase` records for one family, and
:func:`build_catalog` concatenates them into the corpus the pytest
parametrization, the ``python -m repro scenarios`` CLI, and the CI
``scenario-corpus`` job all execute through the one runner in
:mod:`repro.scenarios.runner`.

Families:

- ``cross``     -- every scheduler x allocation-policy combination (plus
                   the partition scheduler's ``space`` policy and sharded
                   variants), under moderate overload.  Digest-pinned.
- ``overload``  -- arrival ramps that push the machine far past capacity.
- ``bursty``    -- simultaneous-arrival bursts and two-wave patterns.
- ``gang``      -- adversarial gang/barrier patterns for the coscheduling
                   and group schedulers, including a greedy uncontrolled
                   tenant.
- ``hotplug``   -- cpu hot-plug storms (capacity churn under control).
- ``failover``  -- server crashes, shard-targeted crashes, supervised
                   failover, and crash-under-arrival-churn.
- ``storm``     -- message-level chaos: poll/channel drop/dup/delay,
                   clock jitter, preemption storms.
- ``service``   -- open-arrival request streams with tail-latency SLOs
                   next to a batch tenant: steady state, overload,
                   bursty waves, the slo/demand/equal policy cross, and
                   a shard crash under live load.
- ``runtime``   -- mixed threads-package runtimes: fork-join tenants that
                   adopt targets only at phase barriers, pipelines with
                   structural one-worker-per-stage floors, and the
                   equal-vs-compliance policy cross over the mix, with
                   adoption-lag bands pinning the deferred-adoption
                   contract.
- ``locks``     -- lock-saturation collapse: an oversubscribed lock tenant
                   unrestricted vs concurrency-restricted (spin and
                   blocking), restriction composed with processor control
                   over an overcommitted machine, scenario-wide admission
                   through the queue lock, and a cpu-offline fault under
                   contention.  Restricted cases carry a passivation
                   census proving culling actually engaged.
- ``fuzz``      -- workloads drawn from the seeded random generator, half
                   of them with random fault plans layered on top.

Adding coverage is an append to one of these lists (or a YAML corpus via
:func:`repro.scenarios.spec.load_cases_yaml`); no new runner code.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Optional, Sequence

from repro.apps.templates import AppTemplate
from repro.core.allocation import POLICY_NAMES
from repro.faults.plan import random_fault_spec
from repro.scenarios.builders import small_machine
from repro.scenarios.spec import Expect, ScenarioCase
from repro.sim import units
from repro.workloads.generator import GeneratedWorkloadConfig, generate_arrivals
from repro.workloads.scenario import INHERIT_CONTROL, AppSpec, Scenario
from repro.workloads.schedulers import SCHEDULER_NAMES

ms = units.ms

#: Poll/server cadence used corpus-wide: fast enough that every case sees
#: several control decisions before its applications finish.
_INTERVAL = ms(10)


def _app(
    template: str,
    n_processes: int,
    arrival: int = 0,
    name: Optional[str] = None,
    control: str = INHERIT_CONTROL,
    runtime: str = "taskqueue",
    **workload: Any,
) -> AppSpec:
    """One application of a case; :func:`_case` gives it its id and seed."""
    return AppSpec(
        AppTemplate(template, name or template, **workload),
        n_processes,
        arrival,
        control,
        runtime,
        app_id=name,
    )


def _case(
    name: str,
    family: str,
    apps: Sequence[AppSpec],
    n_processors: int = 8,
    control: Optional[str] = "centralized",
    seed: int = 0,
    expect: Expect = Expect(),
    **run: Any,
) -> ScenarioCase:
    """A case on the corpus defaults: a :func:`small_machine` of
    *n_processors* CPUs, centralized control, server scans and polls
    every ``_INTERVAL``, and a 600 s cap.  App *i* is ``f"{template}{i}"``
    unless named and draws from seed ``seed + i``; *run* sets any other
    :class:`Scenario` field."""
    specs = []
    for index, spec in enumerate(apps):
        app_id = spec.app_id or f"{spec.factory.template}{index}"
        template = replace(spec.factory, app_id=app_id, seed=seed + index)
        specs.append(replace(spec, factory=template, app_id=app_id))
    scenario = Scenario(
        apps=specs,
        control=control,
        machine=small_machine(n_processors),
        server_interval=_INTERVAL,
        poll_interval=_INTERVAL,
        seed=seed,
        max_time=units.seconds(600),
        **run,
    )
    return ScenarioCase(name, family, scenario, expect)


def _overloaded_trio() -> List[AppSpec]:
    """Three applications totalling 18 workers (on 8 CPUs): the standard
    moderate-overload workload of the cross family.  Arrivals are packed
    tightly and each application carries ~60 ms of work, so all three
    overlap for several server intervals and process control visibly
    engages (the cross family asserts at least one suspension)."""
    return [
        _app("uniform", n_processes=6, arrival=0, n_tasks=40, task_cost=ms(4)),
        _app("csection", n_processes=6, arrival=ms(4), n_tasks=40, task_cost=ms(4)),
        _app("uniform", n_processes=6, arrival=ms(8), n_tasks=32, task_cost=ms(4)),
    ]


# -- cross family --------------------------------------------------------------


def cross_cases() -> List[ScenarioCase]:
    """Every scheduler x policy cross, digest-pinned.

    The ``cross-decay-*`` pins double as the decay oracle's corpus data:
    the O(n) reference scheduler must reproduce them under
    :func:`repro.sanitize.oracle.reference_decay`.
    """
    cases: List[ScenarioCase] = []
    expect = Expect(pin_digest=True, min_total_suspensions=1)
    for scheduler in SCHEDULER_NAMES:
        for policy in POLICY_NAMES:
            cases.append(
                _case(
                    f"cross-{scheduler}-{policy}",
                    "cross",
                    _overloaded_trio(),
                    scheduler=scheduler,
                    policy=policy,
                    expect=expect,
                )
            )
    # The space policy wraps the live partition scheduler; it is the only
    # scheduler it is legal for.
    cases.append(
        _case(
            "cross-partition-space",
            "cross",
            _overloaded_trio(),
            scheduler="partition",
            policy="space",
            expect=expect,
        )
    )
    # Sharded control-plane variants of the cross (shards=2 must keep every
    # invariant; its digest is pinned separately from the 1-shard world).
    for scheduler in ("fifo", "decay", "partition"):
        cases.append(
            _case(
                f"cross-{scheduler}-equal-shards2",
                "cross",
                _overloaded_trio(),
                scheduler=scheduler,
                policy="equal",
                shards=2,
                expect=expect,
            )
        )
    return cases


# -- overload family -----------------------------------------------------------


def overload_cases() -> List[ScenarioCase]:
    """Arrival ramps: each new application is bigger than the last, on a
    4-CPU machine -- by the end the load is ~7x capacity."""
    ramp = [
        _app(
            "uniform",
            n_processes=2 + 2 * i,
            arrival=ms(10) * i,
            n_tasks=24,
            task_cost=ms(3),
        )
        for i in range(5)
    ]
    combos = [
        ("fifo", "equal", 1),
        ("decay", "equal", 1),
        ("decay", "demand", 1),
        ("nopreempt", "weighted", 1),
        ("partition", "space", 1),
        ("decay", "equal", 2),
    ]
    expect = Expect(pin_digest=True, min_total_suspensions=2)
    return [
        _case(
            f"overload-ramp-{scheduler}-{policy}"
            + ("-shards2" if shards > 1 else ""),
            "overload",
            ramp,
            n_processors=4,
            scheduler=scheduler,
            policy=policy,
            shards=shards,
            expect=expect,
        )
        for scheduler, policy, shards in combos
    ]


# -- bursty family -------------------------------------------------------------


def bursty_cases() -> List[ScenarioCase]:
    """Simultaneous arrivals: the worst case for any incremental
    allocation path (every registration lands in one server interval)."""
    burst = [
        _app("uniform", 4, n_tasks=20, task_cost=ms(3)),
        _app("csection", 4, n_tasks=20, task_cost=ms(3)),
        _app("uniform", 4, n_tasks=14, task_cost=ms(3)),
        _app("barrier", 4, n_tasks=5, task_cost=ms(1)),
    ]
    two_waves = [
        _app("uniform", 4, arrival=0, n_tasks=16, task_cost=ms(3)),
        _app("uniform", 4, arrival=0, n_tasks=16, task_cost=ms(3)),
        _app("csection", 4, arrival=ms(50), n_tasks=16, task_cost=ms(3)),
        _app("uniform", 4, arrival=ms(50), n_tasks=16, task_cost=ms(3)),
    ]
    expect = Expect(pin_digest=True)
    cases = [
        _case(
            f"bursty-one-wave-{scheduler}",
            "bursty",
            burst,
            scheduler=scheduler,
            policy="equal",
            expect=expect,
        )
        for scheduler in ("fifo", "decay", "affinity", "groups")
    ]
    cases += [
        _case(
            f"bursty-two-waves-{scheduler}",
            "bursty",
            two_waves,
            scheduler=scheduler,
            policy="demand",
            expect=expect,
        )
        for scheduler in ("decay", "affinity")
    ]
    return cases


# -- gang family ---------------------------------------------------------------


def gang_cases() -> List[ScenarioCase]:
    """Adversarial gang patterns: barrier applications whose gang size
    equals the machine, so two can never co-run; plus a greedy tenant that
    refuses process control next to a polite one."""
    machine_gangs = [
        _app("barrier", 4, n_tasks=6, task_cost=ms(2)),
        _app("barrier", 4, arrival=ms(8), n_tasks=6, task_cost=ms(2)),
    ]
    greedy_mix = [
        _app("uniform", 4, n_tasks=24, task_cost=ms(3)),
        _app("uniform", 6, n_tasks=24, task_cost=ms(3), control="off"),
    ]
    expect = Expect(pin_digest=True)
    cases = [
        _case(
            f"gang-machine-size-{scheduler}",
            "gang",
            machine_gangs,
            n_processors=4,
            scheduler=scheduler,
            policy="equal",
            expect=expect,
        )
        for scheduler in ("coscheduling", "groups", "fifo")
    ]
    cases += [
        _case(
            f"gang-greedy-tenant-{scheduler}",
            "gang",
            greedy_mix,
            n_processors=4,
            scheduler=scheduler,
            policy="equal",
            expect=expect,
        )
        for scheduler in ("coscheduling", "decay", "partition")
    ]
    return cases


# -- fault families ------------------------------------------------------------

#: Loose completion-inflation bound for faulted runs: faults remove
#: capacity or delay control messages, but graceful degradation must keep
#: the slowdown bounded (the chaos campaign's historical worst is ~1.12x;
#: these corpus workloads are smaller, so the band is wider).
_FAULT_EXPECT = Expect(
    pin_digest=False, min_total_suspensions=0, max_inflation=6.0
)


def hotplug_cases() -> List[ScenarioCase]:
    """CPU hot-plug storms: capacity collapses and returns while the
    control plane keeps partitioning what remains."""
    apps = [
        _app("uniform", 4, n_tasks=22, task_cost=ms(3)),
        _app("csection", 4, arrival=ms(10), n_tasks=22, task_cost=ms(3)),
    ]
    storm = ";".join(
        f"cpu-offline:cpu={cpu},at={10 + 7 * cpu}ms,duration={30 + 5 * cpu}ms"
        for cpu in (1, 2, 3)
    )
    single = "cpu-offline:cpu=0,at=15ms,duration=60ms"
    flap = (
        "cpu-offline:cpu=1,at=10ms,duration=12ms;"
        "cpu-offline:cpu=1,at=40ms,duration=12ms;"
        "cpu-offline:cpu=2,at=25ms,duration=12ms"
    )
    cases = []
    for scheduler in ("fifo", "decay"):
        cases.append(
            _case(
                f"hotplug-storm-{scheduler}",
                "hotplug",
                apps,
                n_processors=4,
                scheduler=scheduler,
                policy="equal",
                faults=storm,
                expect=_FAULT_EXPECT,
            )
        )
        cases.append(
            _case(
                f"hotplug-single-{scheduler}",
                "hotplug",
                apps,
                n_processors=4,
                scheduler=scheduler,
                policy="demand",
                faults=single,
                expect=_FAULT_EXPECT,
            )
        )
    cases.append(
        _case(
            "hotplug-flapping-decay",
            "hotplug",
            apps,
            n_processors=4,
            scheduler="decay",
            policy="equal",
            faults=flap,
            expect=_FAULT_EXPECT,
        )
    )
    cases.append(
        _case(
            "hotplug-storm-partition-space",
            "hotplug",
            apps,
            n_processors=4,
            scheduler="partition",
            policy="space",
            faults=storm,
            expect=_FAULT_EXPECT,
        )
    )
    return cases


def failover_cases() -> List[ScenarioCase]:
    """Server and shard crashes, with and without the watchdog, including
    crashes that land while new applications are still arriving."""
    # 8 workers on 4 CPUs, ~240 ms of work per application: long enough
    # that the post-crash poll backoff reaches the stale-target TTL while
    # work remains, so the release-to-full-parallelism path actually runs.
    apps = [
        _app("uniform", 4, n_tasks=80, task_cost=ms(3)),
        _app("uniform", 4, arrival=ms(15), n_tasks=80, task_cost=ms(3)),
    ]
    churn = apps + [
        _app("csection", 4, arrival=ms(45), n_tasks=24, task_cost=ms(3)),
    ]
    # The crash lands just *after* the throttled {2,2} targets were
    # adopted, and down=200ms far exceeds the runner-derived stale-target
    # TTL (4 x 10ms intervals = 40ms) -- so unsupervised cases must walk
    # the full degradation staircase: failed polls, TTL expiry, release
    # back to full parallelism.
    crash = "server-crash:at=35ms,down=200ms"
    shard_crash = "server-crash:at=35ms,down=200ms,shard=1"
    cases = [
        _case(
            "failover-crash-unsupervised",
            "failover",
            apps,
            n_processors=4,
            scheduler="decay",
            policy="equal",
            faults=crash,
            expect=replace(
                _FAULT_EXPECT, min_total_suspensions=1, min_target_expiries=1
            ),
        ),
        _case(
            "failover-crash-supervised",
            "failover",
            apps,
            n_processors=4,
            scheduler="decay",
            policy="equal",
            faults=crash,
            supervise=True,
            expect=_FAULT_EXPECT,
        ),
        _case(
            "failover-shard-crash",
            "failover",
            apps,
            n_processors=4,
            scheduler="decay",
            policy="equal",
            shards=2,
            faults=shard_crash,
            expect=_FAULT_EXPECT,
        ),
        _case(
            "failover-shard-crash-supervised",
            "failover",
            apps,
            n_processors=4,
            scheduler="decay",
            policy="equal",
            shards=2,
            faults=shard_crash,
            supervise=True,
            expect=_FAULT_EXPECT,
        ),
        _case(
            "failover-crash-under-churn",
            "failover",
            churn,
            n_processors=4,
            scheduler="fifo",
            policy="demand",
            faults=crash,
            expect=_FAULT_EXPECT,
        ),
        _case(
            "failover-shard-crash-under-churn",
            "failover",
            churn,
            n_processors=4,
            scheduler="decay",
            policy="demand",
            shards=2,
            faults=shard_crash,
            supervise=True,
            expect=_FAULT_EXPECT,
        ),
    ]
    return cases


def storm_cases() -> List[ScenarioCase]:
    """Message-level chaos: the control loop's traffic is dropped,
    duplicated, delayed, and jittered while the workload runs."""
    apps = [
        _app("uniform", 4, n_tasks=30, task_cost=ms(3)),
        _app("csection", 4, arrival=ms(10), n_tasks=30, task_cost=ms(3)),
    ]
    specs = {
        "poll-drop": "poll-drop:at=10ms,duration=80ms,p=0.6",
        "poll-delay": "poll-delay:at=10ms,duration=80ms,delay=7ms",
        "poll-dup": "poll-dup:at=10ms,duration=80ms",
        "chan-drop": "chan-drop:at=10ms,duration=80ms,p=0.6",
        "chan-dup": "chan-dup:at=10ms,duration=80ms,p=0.6",
        "clock-jitter": "clock-jitter:at=5ms,duration=100ms,amp=2ms",
        "preempt-storm": "preempt-storm:at=10ms,duration=60ms,period=4ms",
        "combined": (
            "poll-drop:at=10ms,duration=60ms,p=0.5;"
            "chan-dup:at=20ms,duration=60ms,p=0.5;"
            "preempt-storm:at=30ms,duration=40ms,period=5ms"
        ),
    }
    return [
        _case(
            f"storm-{label}",
            "storm",
            apps,
            n_processors=4,
            scheduler="decay" if index % 2 else "fifo",
            policy="equal",
            faults=spec,
            expect=_FAULT_EXPECT,
        )
        for index, (label, spec) in enumerate(sorted(specs.items()))
    ]


# -- service family ------------------------------------------------------------


def _service_mix(
    rate_per_s: float = 300.0,
    fanout: int = 3,
    stage_cost: int = ms(3),
    slo_us: int = ms(25),
    burst_factor: Optional[float] = None,
) -> List[AppSpec]:
    """An interactive request stream next to a uniform batch tenant.

    Sized so the policies actually diverge: the stream offers ~3.2 of 8
    CPUs (plus dispatch overhead, it backs up at its 4-CPU equipartition
    share), the batch tenant brings 400 ms of work so the machine stays
    contended past the whole ~200 ms arrival window, and the window is
    long enough that the SLO policy's pressure estimate -- fed by QoS
    reports that only start once requests complete -- ramps up with most
    of the stream still ahead of it.
    """
    return [
        _app(
            "service",
            n_processes=6,
            name="svc",
            task_cost=stage_cost,
            rate_per_s=rate_per_s,
            n_requests=60,
            fanout=fanout,
            slo_us=slo_us,
            burst_factor=burst_factor,
        ),
        _app("uniform", n_processes=6, name="bg", n_tasks=100, task_cost=ms(4)),
    ]


def service_cases() -> List[ScenarioCase]:
    """Open-arrival services under every interesting coordinate.

    All cases run the blocking (``idle_spin=False``) threads package: a
    busy-wait worker deep in its idle backoff picks up a fresh request
    just as late as a blocked one, but adds milliseconds of noise that
    would wash out the latency bands.  Bands carry ~2x headroom over the
    measured seed values; digests pin the exact world.
    """
    cases: List[ScenarioCase] = []
    # The slo/demand/equal policy cross on the same steady mix.  The slo
    # arm must hold a much tighter tail band than equal, and demand --
    # which misreads an open stream's between-arrivals backlog snapshot
    # as idleness -- only has to finish (its tail is unbounded by design).
    policy_bands = {
        "slo": Expect(
            pin_digest=True,
            min_total_suspensions=1,
            min_requests=60,
            max_p99=ms(45),
            max_violation_rate=0.85,
        ),
        "equal": Expect(
            pin_digest=True,
            min_total_suspensions=1,
            min_requests=60,
            max_p99=ms(65),
        ),
        "demand": Expect(
            pin_digest=True, min_total_suspensions=1, min_requests=60
        ),
    }
    for policy, expect in policy_bands.items():
        cases.append(
            _case(
                f"service-steady-fifo-{policy}",
                "service",
                _service_mix(),
                policy=policy,
                idle_spin=False,
                expect=expect,
            )
        )
    cases.append(
        _case(
            "service-steady-decay-slo",
            "service",
            _service_mix(),
            scheduler="decay",
            policy="slo",
            idle_spin=False,
            expect=policy_bands["slo"],
        )
    )
    # Overload: the stream alone offers ~6 of 8 CPUs; with the batch
    # tenant the machine is past capacity, so the band only asserts
    # completion and the request census, not a tail.
    cases.append(
        _case(
            "service-overload-slo",
            "service",
            _service_mix(rate_per_s=450.0, fanout=4, stage_cost=ms(3), slo_us=ms(40)),
            policy="slo",
            idle_spin=False,
            expect=Expect(
                pin_digest=True, min_total_suspensions=1, min_requests=60
            ),
        )
    )
    # Bursty wave: same average rate as steady, but the p99 lives inside
    # the bursts -- the workload that separates tail-aware from mean-aware.
    cases.append(
        _case(
            "service-bursty-wave-slo",
            "service",
            _service_mix(burst_factor=4.0),
            policy="slo",
            idle_spin=False,
            expect=Expect(
                pin_digest=True,
                min_total_suspensions=1,
                min_requests=60,
                max_p99=ms(80),
            ),
        )
    )
    # A control-plane shard crashes mid-stream; requests must keep
    # completing (bounded inflation, full census), exercising the QoS
    # reports' survival across the degraded window.
    cases.append(
        _case(
            "service-shard-crash-slo",
            "service",
            _service_mix(),
            policy="slo",
            shards=2,
            idle_spin=False,
            faults="server-crash:at=30ms,down=120ms,shard=1",
            expect=replace(_FAULT_EXPECT, min_requests=60),
        )
    )
    # Chaos-under-service: a random fault plan drawn from the same
    # generator the fuzz family uses, targeting the service mix through
    # the ordinary spec-validation path.
    cases.append(
        _case(
            "service-fuzz-faulted-slo",
            "service",
            _service_mix(),
            policy="slo",
            idle_spin=False,
            faults=random_fault_spec(
                seed=31, horizon=units.ms(150), n_faults=2, cpus=8
            ),
            expect=replace(_FAULT_EXPECT, min_requests=60),
        )
    )
    return cases


# -- runtime family ------------------------------------------------------------


def runtime_cases() -> List[ScenarioCase]:
    """Mixed threads-package runtimes under process control.

    The fork-join cases must record at least one *completed adoption*
    (publish-to-conformance cycle) with a bounded lag -- the deferred-
    adoption contract as corpus data.  The pipeline cases pin the
    structural floor world: one worker per stage never suspends, and the
    census still completes every stage crossing.  The mixed cases run
    the whole continuum (taskqueue / forkjoin / pipeline / an
    uncontrolled tenant) under both the paper's equipartition and the
    compliance policy, digest-pinned.
    """
    adoption_expect = Expect(
        pin_digest=True,
        min_total_suspensions=1,
        min_adoptions=1,
        # A fork-join runtime adopts within a phase: 4-task phases at
        # ~3 ms across >= 2 granted workers, plus poll cadence -- tens of
        # ms.  The band carries ~2x headroom over the measured seed.
        max_adoption_lag=ms(60),
    )
    cases = [
        _case(
            "runtime-forkjoin-adoption",
            "runtime",
            [
                _app(
                    "barrier",
                    n_processes=6,
                    n_tasks=8,
                    task_cost=ms(3),
                    runtime="forkjoin",
                ),
                _app("uniform", n_processes=6, n_tasks=40, task_cost=ms(4)),
                _app(
                    "uniform",
                    n_processes=6,
                    arrival=ms(4),
                    n_tasks=32,
                    task_cost=ms(4),
                ),
            ],
            policy="equal",
            expect=adoption_expect,
        ),
        _case(
            "runtime-pipeline-floor",
            "runtime",
            [
                _app(
                    "pipeline",
                    n_processes=6,
                    n_tasks=32,
                    task_cost=ms(2),
                    runtime="pipeline",
                ),
                _app("uniform", n_processes=6, n_tasks=40, task_cost=ms(4)),
                _app(
                    "uniform",
                    n_processes=6,
                    arrival=ms(4),
                    n_tasks=32,
                    task_cost=ms(4),
                ),
            ],
            policy="equal",
            expect=Expect(pin_digest=True, min_total_suspensions=1),
        ),
    ]
    # The full continuum -- taskqueue, forkjoin, pipeline, and a greedy
    # uncontrolled tenant -- under equipartition vs the compliance policy.
    continuum = [
        _app("uniform", n_processes=5, n_tasks=32, task_cost=ms(4)),
        _app(
            "barrier",
            n_processes=5,
            arrival=ms(2),
            n_tasks=6,
            task_cost=ms(3),
            runtime="forkjoin",
        ),
        _app(
            "pipeline",
            n_processes=5,
            arrival=ms(4),
            n_tasks=24,
            task_cost=ms(2),
            runtime="pipeline",
        ),
        _app(
            "uniform",
            n_processes=4,
            arrival=ms(6),
            n_tasks=24,
            task_cost=ms(4),
            control="off",
        ),
    ]
    for policy in ("equal", "compliance"):
        cases.append(
            _case(
                f"runtime-continuum-{policy}",
                "runtime",
                continuum,
                policy=policy,
                expect=Expect(pin_digest=True, min_total_suspensions=1),
            )
        )
    return cases


# -- locks family --------------------------------------------------------------


def locks_cases() -> List[ScenarioCase]:
    """Lock-saturation collapse and concurrency restriction as corpus data.

    Ten lock threads on eight CPUs with the standard collapse shape
    (600 us think / 150 us critical section / 40 us-per-spinner hand-off
    surcharge) keep the lock saturated for the whole run, so the
    restricted cases must actually cull (the passivation census).  No
    kill faults here: a killed spinlock *holder* would deadlock the rest
    of the app by design, which is a sync-edge unit test, not a corpus
    invariant.
    """

    def lock_app(**kw) -> AppSpec:
        kw.setdefault("n_tasks", 48)
        kw.setdefault("task_cost", 600)
        kw.setdefault("cs_cost", 150)
        kw.setdefault("contention_penalty", 40)
        return _app("locks", 10, name="locks", **kw)

    restricted = Expect(pin_digest=True, min_passivations=1)
    cases = [
        # The bare collapse: no process control, no restriction -- the
        # pinned world the telemetry narrates (peak spinner storms).
        _case(
            "locks-collapse-unrestricted",
            "locks",
            [lock_app()],
            control=None,
            policy="equal",
            expect=Expect(pin_digest=True),
        ),
        # Restriction alone fixes the storm without any control plane.
        _case(
            "locks-restricted-spin",
            "locks",
            [lock_app(admission=1)],
            control=None,
            policy="equal",
            expect=restricted,
        ),
        # The blocking variant: culled mutex waiters readmit LIFO.
        _case(
            "locks-restricted-mutex",
            "locks",
            [lock_app(admission=2, blocking=True)],
            control=None,
            policy="equal",
            expect=restricted,
        ),
        # Waiter control composed with processor control over an
        # overcommitted machine (a compute tenant shares the 8 CPUs).
        _case(
            "locks-combined-control",
            "locks",
            [
                lock_app(admission=1),
                _app("uniform", 6, name="bg", n_tasks=24, task_cost=ms(3)),
            ],
            policy="equal",
            expect=replace(restricted, min_total_suspensions=1),
        ),
        # Scenario-wide admission: the case-level knob must reach the
        # app lock *and* the task-queue lock without per-app settings.
        _case(
            "locks-scenario-admission",
            "locks",
            [lock_app()],
            lock_admission=2,
            policy="equal",
            expect=restricted,
        ),
        # Capacity loss under contention: a CPU goes away mid-storm and
        # comes back; bounded inflation, full census.
        _case(
            "locks-cpu-offline",
            "locks",
            [lock_app(admission=1)],
            faults="cpu-offline:cpu=1,at=5ms,duration=25ms",
            policy="equal",
            expect=replace(_FAULT_EXPECT, min_passivations=1),
        ),
    ]
    return cases


# -- fuzz family ---------------------------------------------------------------

#: The generator draws arrivals from this mix of *synthetic* templates
#: (cheap and census-checkable), with small machines and short windows so
#: a dozen fuzz cases cost pytest seconds, not minutes.
_FUZZ_CONFIG = GeneratedWorkloadConfig(
    window=units.ms(120),
    arrival_rate_per_s=40.0,
    mix={"uniform": 2.0, "csection": 1.0, "barrier": 1.0},
    process_counts=(3, 4, 6),
    scale_range=(0.2, 0.6),
    min_apps=3,
)

_FUZZ_SEEDS = range(12)


def _fuzz_apps(seed: int) -> List[AppSpec]:
    apps: List[AppSpec] = []
    for generated in generate_arrivals(_FUZZ_CONFIG, seed=seed):
        if generated.template == "barrier":
            n_tasks = 3 + int(generated.scale * 6)  # phases
            cost = ms(1)
        else:
            n_tasks = 10 + int(generated.scale * 25)
            cost = ms(3)
        apps.append(
            _app(
                generated.template,
                n_processes=generated.n_processes,
                arrival=generated.arrival,
                name=generated.app_id,
                n_tasks=n_tasks,
                task_cost=cost,
            )
        )
    return apps


def fuzz_cases() -> List[ScenarioCase]:
    """Seeded random workloads; odd seeds additionally draw a random fault
    plan from the same seed, so half the family is chaos-under-fuzz."""
    cases: List[ScenarioCase] = []
    schedulers = ("fifo", "decay", "partition", "coscheduling")
    policies = ("equal", "demand", "weighted")
    for seed in _FUZZ_SEEDS:
        scheduler = schedulers[seed % len(schedulers)]
        policy = policies[seed % len(policies)]
        if scheduler == "partition" and seed % 2 == 0:
            policy = "space"
        faults: Optional[str] = None
        expect = Expect(pin_digest=True)
        if seed % 2 == 1:
            faults = random_fault_spec(
                seed=seed, horizon=units.ms(150), n_faults=2, cpus=8
            )
            expect = _FAULT_EXPECT
        cases.append(
            _case(
                f"fuzz-{seed:02d}-{scheduler}-{policy}"
                + ("-faulted" if faults else ""),
                "fuzz",
                _fuzz_apps(seed),
                scheduler=scheduler,
                policy=policy,
                faults=faults,
                seed=seed,
                expect=expect,
            )
        )
    return cases


# -- the corpus ----------------------------------------------------------------


def build_catalog() -> List[ScenarioCase]:
    """The full corpus, in stable order, with unique names."""
    cases = (
        cross_cases()
        + overload_cases()
        + bursty_cases()
        + gang_cases()
        + hotplug_cases()
        + failover_cases()
        + storm_cases()
        + service_cases()
        + runtime_cases()
        + locks_cases()
        + fuzz_cases()
    )
    names = [case.name for case in cases]
    duplicates = {name for name in names if names.count(name) > 1}
    if duplicates:  # pragma: no cover - catalog construction bug
        raise ValueError(f"duplicate case names in catalog: {sorted(duplicates)}")
    return cases


_CATALOG_CACHE: Optional[List[ScenarioCase]] = None


def all_cases() -> List[ScenarioCase]:
    """The corpus (built once per process; records are immutable)."""
    global _CATALOG_CACHE
    if _CATALOG_CACHE is None:
        _CATALOG_CACHE = build_catalog()
    return list(_CATALOG_CACHE)


def case_names() -> List[str]:
    return [case.name for case in all_cases()]


def get_case(name: str) -> ScenarioCase:
    for case in all_cases():
        if case.name == name:
            return case
    raise KeyError(
        f"no catalog case named {name!r}; see `python -m repro scenarios list`"
    )


def filter_cases(
    cases: Optional[Sequence[ScenarioCase]] = None,
    scheduler: Optional[str] = None,
    policy: Optional[str] = None,
    fault: Optional[str] = None,
    family: Optional[str] = None,
    name: Optional[str] = None,
) -> List[ScenarioCase]:
    """Select corpus entries by coordinate.

    ``fault`` matches an injector kind (``"server-crash"``) or the special
    values ``"any"`` (only faulted cases) / ``"none"`` (only healthy ones);
    ``name`` is a substring match on the case name.
    """
    selected = list(all_cases() if cases is None else cases)
    if scheduler is not None:
        selected = [c for c in selected if c.scenario.scheduler == scheduler]
    if policy is not None:
        selected = [c for c in selected if c.policy_label == policy]
    if family is not None:
        selected = [c for c in selected if c.family == family]
    if fault is not None:
        if fault == "any":
            selected = [c for c in selected if c.fault_kinds]
        elif fault == "none":
            selected = [c for c in selected if not c.fault_kinds]
        else:
            selected = [c for c in selected if fault in c.fault_kinds]
    if name is not None:
        selected = [c for c in selected if name in c.name]
    return selected


def coverage_summary(cases: Optional[Sequence[ScenarioCase]] = None) -> Dict[str, int]:
    """Small corpus census: cases per family plus cross-coverage counts."""
    selected = list(all_cases() if cases is None else cases)
    summary: Dict[str, int] = {"total": len(selected)}
    for case in selected:
        summary[f"family:{case.family}"] = summary.get(f"family:{case.family}", 0) + 1
        for kind in set(case.fault_kinds):
            summary[f"fault:{kind}"] = summary.get(f"fault:{kind}", 0) + 1
    summary["schedulers"] = len({c.scenario.scheduler for c in selected})
    summary["policies"] = len({c.policy_label for c in selected})
    summary["digest_pinned"] = sum(1 for c in selected if c.expect.pin_digest)
    return summary
