"""Property-based supervision tests: arbitrary faults, watchdog always sane.

Hypothesis drives shard-aware :func:`repro.faults.plan.random_fault_spec`
schedules over a small supervised workload and asserts the self-healing
contract:

* no (fault plan, seed, shard count) ever trips the sanitizer or
  deadlocks: the run completes inside ``max_time`` whether the watchdog
  restarted, failed over, or entered degraded mode;
* the watchdog never abandons a suspect: every ``suspect`` event is
  followed (at the same or a later tick) by a ``restart``, ``failover``,
  or ``degraded`` action for that shard;
* supervised runs replay bit-identically -- same dispatch digest, same
  fault events, and the same watchdog action stream.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import UniformApp
from repro.faults import random_fault_spec
from repro.machine.config import MachineConfig
from repro.sim import TraceLog, dispatch_digest, units
from repro.workloads import AppSpec, Scenario, run_scenario

N_PROCESSORS = 4
HORIZON = units.ms(60)
MAX_TIME = units.seconds(2)


def _supervised_scenario(seed: int, shards: int) -> Scenario:
    def app(app_id: str, app_seed: int):
        return lambda: UniformApp(
            app_id=app_id,
            n_tasks=60,
            task_cost=units.ms(1),
            jitter=0.2,
            seed=app_seed,
        )

    # The 5ms quantum bounds dispatch delay well inside the watchdog's
    # heartbeat deadline: every suspect below is a real injected failure.
    return Scenario(
        apps=[
            AppSpec(app("mini-a", seed), 3),
            AppSpec(app("mini-b", seed + 1), 3),
        ],
        control="centralized",
        machine=MachineConfig(n_processors=N_PROCESSORS, quantum=units.ms(5)),
        scheduler="decay",
        poll_interval=units.ms(5),
        server_interval=units.ms(5),
        seed=seed,
        max_time=MAX_TIME,
        shards=shards,
        supervise=True,
    )


def _run_supervised(seed: int, n_faults: int, shards: int, trace=None):
    spec = random_fault_spec(
        seed, HORIZON, n_faults=n_faults, cpus=N_PROCESSORS, shards=shards
    )
    result = run_scenario(
        _supervised_scenario(seed, shards).with_(faults=spec),
        trace=trace,
        sanitize="record",
    )
    return spec, result


@given(
    seed=st.integers(0, 10**6),
    n_faults=st.integers(1, 4),
    shards=st.integers(1, 2),
)
@settings(max_examples=20, deadline=None)
def test_supervised_runs_stay_clean_and_complete(seed, n_faults, shards):
    spec, result = _run_supervised(seed, n_faults, shards)
    assert result.sanitizer_violations == 0, (
        f"spec {spec!r} (shards={shards}) tripped "
        f"{result.sanitizer_violations} violations"
    )
    # Completion inside max_time rules out a deadlock no matter which
    # rung of the escalation ladder (restart / failover / degraded) the
    # run ended on: degraded mode still finishes via the TTL release.
    assert result.sim_time < MAX_TIME
    for app_id, app in result.apps.items():
        assert app.finished_at is not None, (
            f"application {app_id!r} never completed under {spec!r}"
        )


@given(
    seed=st.integers(0, 10**6),
    n_faults=st.integers(1, 4),
    shards=st.integers(1, 2),
)
@settings(max_examples=20, deadline=None)
def test_watchdog_never_abandons_a_suspect(seed, n_faults, shards):
    spec, result = _run_supervised(seed, n_faults, shards)
    events = result.watchdog_events
    for index, (time, kind, details) in enumerate(events):
        if kind != "suspect":
            continue
        shard = details["shard"]
        followed = any(
            later_kind in ("restart", "failover")
            and later["shard"] == shard
            or later_kind == "degraded"
            for _, later_kind, later in events[index + 1 :]
        ) or any(
            # A restart can land in the same tick as its suspect; the
            # event stream orders it after, so index+1 covers it -- but a
            # suspect whose restart is merely *scheduled* (backoff) must
            # also count when the backoff fires past the end of faults.
            later_kind == "recovered" and later["shard"] == shard
            for _, later_kind, later in events[index + 1 :]
        )
        assert followed, (
            f"suspect shard {shard} at {time} never acted on "
            f"(spec {spec!r}, events {events!r})"
        )


@given(
    seed=st.integers(0, 10**5),
    n_faults=st.integers(1, 3),
    shards=st.integers(1, 2),
)
@settings(max_examples=8, deadline=None)
def test_supervised_replay_is_bit_identical(seed, n_faults, shards):
    runs = []
    for _ in range(2):
        trace = TraceLog(categories={"kernel.dispatch"})
        spec, result = _run_supervised(seed, n_faults, shards, trace=trace)
        runs.append(
            (
                spec,
                dispatch_digest(trace),
                result.fault_events,
                result.watchdog_events,
                result.watchdog_counters,
                result.sim_time,
                result.makespan,
            )
        )
    assert runs[0] == runs[1]


@given(seed=st.integers(0, 10**6), n_faults=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_shard_aware_specs_round_trip_and_stay_stable(seed, n_faults):
    from repro.faults import FaultPlan, parse_spec

    sharded = random_fault_spec(
        seed, HORIZON, n_faults=n_faults, cpus=N_PROCESSORS, shards=3
    )
    assert len(parse_spec(sharded)) == n_faults
    plan = FaultPlan.from_spec(sharded, seed=seed)
    assert FaultPlan.from_spec(plan.describe(), seed=seed).describe() == (
        plan.describe()
    )
    # shards=1 must reproduce the historical draw sequence exactly.
    legacy = random_fault_spec(
        seed, HORIZON, n_faults=n_faults, cpus=N_PROCESSORS
    )
    single = random_fault_spec(
        seed, HORIZON, n_faults=n_faults, cpus=N_PROCESSORS, shards=1
    )
    assert single == legacy
