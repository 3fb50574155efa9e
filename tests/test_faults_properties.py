"""Property-based chaos tests: arbitrary fault schedules, invariants held.

Hypothesis drives :func:`repro.faults.plan.random_fault_spec` over a small
two-application workload and asserts the graceful-degradation contract:

* no fault schedule ever trips the :class:`SchedSanitizer` invariants;
* no fault schedule deadlocks the run (the workload always completes well
  inside ``max_time``, which implies every controllable application
  regained at least one runnable process after each fault cleared);
* replaying the same seed yields bit-identical fault events and dispatch
  sequences (the determinism contract of ``docs/FAULTS.md``).

Examples stay cheap: a ~50ms simulated workload on 4 processors runs in
milliseconds of wall time, so the suite affords a few dozen schedules.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.synthetic import UniformApp
from repro.faults import FaultPlan, parse_spec, random_fault_spec
from repro.machine.config import MachineConfig
from repro.sim import TraceLog, dispatch_digest, units
from repro.workloads import AppSpec, Scenario, run_scenario

N_PROCESSORS = 4
#: Faults land in the first ~60% of this; the workload runs ~50ms.
HORIZON = units.ms(60)
MAX_TIME = units.seconds(2)


def _mini_scenario(seed: int) -> Scenario:
    def app(app_id: str, app_seed: int):
        return lambda: UniformApp(
            app_id=app_id,
            n_tasks=60,
            task_cost=units.ms(1),
            jitter=0.2,
            seed=app_seed,
        )

    return Scenario(
        apps=[
            AppSpec(app("mini-a", seed), 3),
            AppSpec(app("mini-b", seed + 1), 3),
        ],
        control="centralized",
        machine=MachineConfig(n_processors=N_PROCESSORS),
        scheduler="decay",
        poll_interval=units.ms(5),
        server_interval=units.ms(5),
        seed=seed,
        max_time=MAX_TIME,
    )


def _run_chaos(seed: int, n_faults: int, trace=None):
    spec = random_fault_spec(
        seed, HORIZON, n_faults=n_faults, cpus=N_PROCESSORS
    )
    result = run_scenario(
        _mini_scenario(seed).with_(faults=spec), trace=trace, sanitize="record"
    )
    return spec, result


@given(seed=st.integers(0, 10**6), n_faults=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_random_fault_schedules_never_trip_sanitizer(seed, n_faults):
    spec, result = _run_chaos(seed, n_faults)
    assert result.sanitizer_violations == 0, (
        f"spec {spec!r} tripped {result.sanitizer_violations} invariant "
        f"violations: {result.sanitizer_counters}"
    )


@given(seed=st.integers(0, 10**6), n_faults=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_random_fault_schedules_never_deadlock(seed, n_faults):
    # run_scenario raises SimulationError if the calendar outlives
    # max_time, so merely returning rules out a hang; completion of every
    # application additionally proves each one regained >= 1 runnable
    # process after the last fault cleared (suspended-forever workers
    # would leave tasks undone).
    spec, result = _run_chaos(seed, n_faults)
    assert result.sim_time < MAX_TIME
    for app_id, app in result.apps.items():
        assert app.finished_at is not None, (
            f"application {app_id!r} never completed under spec {spec!r}"
        )


@given(seed=st.integers(0, 10**5), n_faults=st.integers(1, 3))
@settings(max_examples=10, deadline=None)
def test_same_seed_replays_bit_identically(seed, n_faults):
    runs = []
    for _ in range(2):
        trace = TraceLog(categories={"kernel.dispatch"})
        spec, result = _run_chaos(seed, n_faults, trace=trace)
        runs.append(
            (
                spec,
                dispatch_digest(trace),
                result.fault_events,
                result.sim_time,
                result.makespan,
            )
        )
    assert runs[0] == runs[1]


@given(seed=st.integers(0, 10**6), n_faults=st.integers(1, 6))
@settings(max_examples=50, deadline=None)
def test_random_spec_round_trips_through_the_grammar(seed, n_faults):
    spec = random_fault_spec(seed, HORIZON, n_faults=n_faults)
    injectors = parse_spec(spec)
    assert len(injectors) == n_faults
    plan = FaultPlan.from_spec(spec, seed=seed)
    assert FaultPlan.from_spec(plan.describe(), seed=seed).describe() == (
        plan.describe()
    )
