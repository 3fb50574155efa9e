"""Determinism regression tests for the fast-path simulator.

The perf work (lazy-decay scheduling, the fused event loop, the parallel
sweep runner) is only admissible if it cannot change simulated results.
These tests pin that down three ways:

1. the same figure run twice in-process yields identical metrics;
2. a raw scenario run twice yields an *identical event trace*, record for
   record -- the strongest statement, since every metric is derived from
   the trace and the final kernel state;
3. the parallel sweep runner returns exactly what the serial loop returns.
"""

from __future__ import annotations

from repro.experiments.figure1 import run_figure1
from repro.experiments.figure4 import run_figure4
from repro.experiments.parallel import Runs
from repro.experiments.config import app_factories, paper_scenario_defaults
from repro.sim import TraceLog
from repro.workloads import AppSpec, Scenario, run_scenario


def _figure1_point(n: int):
    """One Figure 1 sweep point (quick preset), traced in full."""
    defaults = paper_scenario_defaults("quick", 0)
    factories = app_factories("quick", 0)
    trace = TraceLog()  # unfiltered: every category, every record
    result = run_scenario(
        Scenario(
            apps=[
                AppSpec(factories["matmul"], n),
                AppSpec(factories["fft"], n),
            ],
            control=None,
            machine=defaults.machine,
            scheduler=defaults.scheduler,
            seed=0,
        ),
        trace=trace,
    )
    return result, trace


def test_scenario_trace_is_bit_identical_across_runs():
    first, first_trace = _figure1_point(8)
    second, second_trace = _figure1_point(8)
    # Full event traces match record for record (time, category, payload).
    assert len(first_trace) == len(second_trace)
    for a, b in zip(first_trace, second_trace):
        assert a == b
    # And the derived metrics agree exactly.
    assert first.sim_time == second.sim_time
    assert first.events_fired == second.events_fired
    assert first.utilization == second.utilization
    for app_id, app in first.apps.items():
        assert app == second.apps[app_id]


def test_figure1_metrics_identical_across_runs():
    first = run_figure1(preset="quick", counts=(4, 8), runs=Runs(jobs=1))
    second = run_figure1(preset="quick", counts=(4, 8), runs=Runs(jobs=1))
    assert first.t1 == second.t1
    assert first.rows == second.rows


def test_figure1_parallel_runner_matches_serial():
    """jobs=2 exercises the ProcessPoolExecutor path (or its serial
    fallback in sandboxes that forbid fork -- identical either way)."""
    serial = run_figure1(preset="quick", counts=(4, 8), runs=Runs(jobs=1))
    parallel = run_figure1(preset="quick", counts=(4, 8), runs=Runs(jobs=2))
    assert serial.t1 == parallel.t1
    assert serial.rows == parallel.rows


def test_figure4_metrics_identical_across_runs():
    first = run_figure4(preset="quick")
    second = run_figure4(preset="quick")
    for controlled in (False, True):
        assert first.wall_times(controlled) == second.wall_times(controlled)
