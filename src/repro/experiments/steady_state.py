"""Steady-state multiprogramming: the paper's motivating environment.

Section 1: "the computing environment we consider ... is that of a
multiprogrammed shared-memory multiprocessor, with multiple simultaneously
running parallel applications ... where the number of running applications
is continuously changing".  The figure experiments freeze that environment
into three-application scripts; this experiment runs the environment
itself: a Poisson stream of applications of mixed kinds and sizes, with
and without process control, and reports per-application *slowdown*
(turnaround normalized by the application's ideal time on the whole
machine) -- the long-run metric a time-sharing facility would care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.config import paper_machine, poll_interval
from repro.experiments.parallel import Runs
from repro.metrics import format_table
from repro.sim import units
from repro.workloads import Scenario, run_scenario
from repro.workloads.generator import (
    GeneratedWorkloadConfig,
    build_app_specs,
    generate_arrivals,
)

@dataclass
class SteadyStateResult:
    """Paired outcome of one generated workload, control off vs on."""

    n_apps: int
    makespan_off_s: float
    makespan_on_s: float
    mean_slowdown_off: float
    mean_slowdown_on: float
    worst_slowdown_off: float
    worst_slowdown_on: float
    per_app: List[Dict[str, object]]

    @property
    def makespan_gain(self) -> float:
        return self.makespan_off_s / self.makespan_on_s


def _workload_config(preset: str) -> GeneratedWorkloadConfig:
    if preset == "paper":
        return GeneratedWorkloadConfig(
            window=units.seconds(90),
            arrival_rate_per_s=0.08,
            scale_range=(0.3, 0.8),
            min_apps=4,
        )
    return GeneratedWorkloadConfig(
        window=units.seconds(20),
        arrival_rate_per_s=0.25,
        scale_range=(0.15, 0.35),
        min_apps=3,
    )


def steady_state_scenario(
    control: Optional[str], preset: str = "quick", seed: int = 0
) -> Scenario:
    """One control mode's generated-workload scenario.

    Exposed separately so the golden-trace regression tests can replay
    exactly the runs the experiment measures.
    """
    config = _workload_config(preset)
    arrivals = generate_arrivals(config, seed=seed)
    interval = poll_interval(preset)
    return Scenario(
        apps=build_app_specs(arrivals, seed=seed),
        control=control,
        machine=paper_machine(),
        scheduler="decay",
        poll_interval=interval,
        server_interval=interval,
        seed=seed,
        max_time=units.seconds(7200),
    )


def _steady_state_cell(runs: Runs, args) -> Dict[str, object]:
    """Sweep cell: one control mode's full run, reduced to plain data.

    The workload is regenerated inside the worker from (preset, seed) --
    generation is deterministic, and shipping plain arguments keeps the
    cell picklable.
    """
    control, preset, seed = args
    result = run_scenario(
        steady_state_scenario(control, preset, seed), sanitize=runs.sanitize
    )
    return {
        "makespan": result.makespan,
        "walls": {app_id: app.wall_time for app_id, app in result.apps.items()},
    }


def run_steady_state(
    preset: str = "quick", seed: int = 0, runs: Runs = Runs()
) -> SteadyStateResult:
    """Generate one workload and run it with control off and on.

    The off and on runs are independent simulations of the same generated
    workload, so they fan out as two :meth:`Runs.map` cells.
    """
    arrivals = generate_arrivals(_workload_config(preset), seed=seed)
    n_processors = paper_machine().n_processors
    ideals = {
        spec.app_id: spec.factory().total_work() / n_processors
        for spec in build_app_specs(arrivals, seed=seed)
    }

    reduced = runs.map(
        _steady_state_cell,
        [(control, preset, seed) for control in (None, "centralized")],
    )
    results = {None: reduced[0], "centralized": reduced[1]}

    per_app: List[Dict[str, object]] = []
    slowdowns = {None: [], "centralized": []}
    for generated in arrivals:
        row: Dict[str, object] = {
            "app": generated.app_id,
            "procs": generated.n_processes,
            "arrival_s": generated.arrival / 1e6,
        }
        for control, label in ((None, "off"), ("centralized", "on")):
            wall = results[control]["walls"][generated.app_id]
            slowdown = wall / max(ideals[generated.app_id], 1)
            slowdowns[control].append(slowdown)
            row[f"slowdown_{label}"] = slowdown
        per_app.append(row)

    return SteadyStateResult(
        n_apps=len(arrivals),
        makespan_off_s=results[None]["makespan"] / 1e6,
        makespan_on_s=results["centralized"]["makespan"] / 1e6,
        mean_slowdown_off=sum(slowdowns[None]) / len(slowdowns[None]),
        mean_slowdown_on=sum(slowdowns["centralized"])
        / len(slowdowns["centralized"]),
        worst_slowdown_off=max(slowdowns[None]),
        worst_slowdown_on=max(slowdowns["centralized"]),
        per_app=per_app,
    )


def format_steady_state(result: SteadyStateResult) -> str:
    headers = list(result.per_app[0].keys())
    table = format_table(
        headers, [[row[h] for h in headers] for row in result.per_app]
    )
    summary = (
        f"\napplications: {result.n_apps}; makespan off/on: "
        f"{result.makespan_off_s:.1f}s / {result.makespan_on_s:.1f}s "
        f"({result.makespan_gain:.2f}x)\n"
        f"mean slowdown off/on: {result.mean_slowdown_off:.2f} / "
        f"{result.mean_slowdown_on:.2f}; worst: "
        f"{result.worst_slowdown_off:.2f} / {result.worst_slowdown_on:.2f}"
    )
    return (
        "Steady-state multiprogramming (random arrivals, control off vs on)\n"
        + table
        + summary
    )


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_steady_state(run_steady_state(preset, runs=runs)))
