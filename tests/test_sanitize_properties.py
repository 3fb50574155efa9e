"""Property-based sanitizer coverage: randomly generated small workloads
must produce zero invariant violations under every scheduler policy,
their full traces must pass the post-hoc lint, and the decay scheduler
must trace identically to its O(n) reference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sanitize import lint_trace
from repro.sanitize.oracle import check_decay_oracle
from repro.sim import TraceLog, units
from repro.workloads import SCHEDULER_NAMES, AppSpec, Scenario, run_scenario

from tests.conftest import scenario_machine, uniform


workload = st.fixed_dictionaries(
    {
        "n_processors": st.integers(min_value=1, max_value=4),
        "n_apps": st.integers(min_value=1, max_value=2),
        "n_processes": st.integers(min_value=1, max_value=4),
        "n_tasks": st.integers(min_value=1, max_value=10),
        "task_cost_ms": st.integers(min_value=1, max_value=6),
        "arrival_ms": st.integers(min_value=0, max_value=20),
        "control": st.sampled_from([None, "centralized"]),
    }
)


def build_scenario(params, scheduler):
    apps = [
        AppSpec(
            uniform(
                name=f"app{index}",
                n_tasks=params["n_tasks"],
                cost=units.ms(params["task_cost_ms"]),
            ),
            params["n_processes"],
            arrival=index * units.ms(params["arrival_ms"]),
        )
        for index in range(params["n_apps"])
    ]
    return Scenario(
        apps=apps,
        machine=scenario_machine(params["n_processors"]),
        scheduler=scheduler,
        control=params["control"],
    )


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
@given(params=workload)
@settings(max_examples=10, deadline=None)
def test_random_workloads_are_violation_free(scheduler, params):
    trace = TraceLog()  # unfiltered: every lint check group stays armed
    result = run_scenario(
        build_scenario(params, scheduler), trace=trace, sanitize="strict"
    )
    assert result.sanitizer_violations == 0
    assert result.sanitizer_counters is not None
    assert result.sanitizer_counters["checks"] > 0
    # Total work conservation: everything generated must have completed.
    expected = params["n_apps"] * params["n_tasks"]
    assert sum(a.tasks_completed for a in result.apps.values()) == expected
    # The organic trace passes the post-hoc causality lint too.
    report = lint_trace(trace, n_processors=params["n_processors"])
    assert report.ok, report.summary()


@given(params=workload)
@settings(max_examples=10, deadline=None)
def test_decay_matches_its_reference_on_random_workloads(params):
    report = check_decay_oracle(
        lambda seed: build_scenario(params, "decay"), seeds=(0,)
    )
    assert report.ok, report.summary()
    assert report.events_compared > 0


@given(params=workload)
@settings(max_examples=10, deadline=None)
def test_record_mode_matches_strict_on_clean_runs(params):
    # A clean run must look identical in both modes: record mode exists to
    # keep going on violations, not to check less.
    strict = run_scenario(build_scenario(params, "fifo"), sanitize="strict")
    record = run_scenario(build_scenario(params, "fifo"), sanitize="record")
    assert strict.sanitizer_violations == record.sanitizer_violations == 0
    assert (
        strict.sanitizer_counters["checks"] == record.sanitizer_counters["checks"]
    )
