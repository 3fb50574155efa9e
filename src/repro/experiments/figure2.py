"""Figure 2: the structure of the server-based scheme -- as a live scenario.

Figure 2 is an architecture diagram, not a measurement, but Section 5 walks
through a concrete example on it: "assume the machine has 8 processors.
The central server will determine that 2 processors are being used by
uncontrollable applications, and proceed to distribute the other 6 among
the three controllable applications.  Given that all three have the same
priority, each of them gets two processors.  The first application with
only 2 processes need not suspend any processes ... but the other two
applications will have to suspend one process each."

This module builds exactly that system -- 8 processors, two uncontrollable
stand-alone processes, three controllable applications with 2, 3 and 3
processes -- runs it, and reports the targets the server computed and the
suspensions the applications performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.apps import UniformApp
from repro.experiments.config import paper_machine
from repro.experiments.parallel import Runs
from repro.sim import TraceLog, units
from repro.workloads import AppSpec, Scenario, UncontrolledSpec, run_scenario
from repro.workloads.runner import RUNNER_TRACE_CATEGORIES


@dataclass
class Figure2Result:
    """Observed server decision and application reactions."""

    targets: Dict[str, int]
    suspensions: Dict[str, int]
    final_runnable_per_app: Dict[str, float]
    uncontrolled_runnable: int


def run_figure2(seed: int = 0, runs: Runs = Runs()) -> Figure2Result:
    """Run the worked example of Section 5 / Figure 2."""

    def app(name: str, n_tasks: int):
        return lambda: UniformApp(
            app_id=name,
            n_tasks=n_tasks,
            task_cost=units.ms(400),
            seed=seed,
        )

    scenario = Scenario(
        apps=[
            AppSpec(app("app1", 120), n_processes=2),
            AppSpec(app("app2", 180), n_processes=3),
            AppSpec(app("app3", 180), n_processes=3),
        ],
        uncontrolled=[
            UncontrolledSpec(name="daemon1", duration=units.seconds(120)),
            UncontrolledSpec(name="daemon2", duration=units.seconds(120)),
        ],
        control="centralized",
        machine=paper_machine(n_processors=8),
        scheduler="decay",
        poll_interval=units.seconds(2),
        server_interval=units.seconds(2),
        seed=seed,
    )
    trace = TraceLog(categories=(*RUNNER_TRACE_CATEGORIES, "server.update"))
    result = run_scenario(scenario, trace=trace, sanitize=runs.sanitize)

    # The server's decision once all applications are up: read the last
    # update that still covered all three applications.
    targets: Dict[str, int] = {}
    for record in result.trace.records("server.update"):
        snapshot = record.data["targets"]
        if len(snapshot) == 3:
            targets = dict(snapshot)
            break
    suspensions = {
        app_id: app_result.suspensions
        for app_id, app_result in result.apps.items()
    }
    # Steady-state runnable counts per application, sampled mid-run.
    mid = min(r.finished_at for r in result.apps.values()) // 2
    final = {
        app_id: series.value_at(mid)
        for app_id, series in result.runnable_per_app.items()
        if app_id.startswith("app")
    }
    uncontrolled = int(
        result.runnable_per_app.get("<none>", None).value_at(mid)
        if "<none>" in result.runnable_per_app
        else 0
    )
    return Figure2Result(
        targets=targets,
        suspensions=suspensions,
        final_runnable_per_app=final,
        uncontrolled_runnable=uncontrolled,
    )


def format_figure2(result: Figure2Result) -> str:
    lines = [
        "Figure 2 worked example: 8 processors, 2 uncontrollable processes,",
        "three controllable applications (2, 3, 3 processes)",
        f"server targets:        {result.targets}",
        f"suspensions performed: {result.suspensions}",
        f"runnable at mid-run:   {result.final_runnable_per_app}",
        f"uncontrolled runnable: {result.uncontrolled_runnable}",
    ]
    return "\n".join(lines)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_figure2(run_figure2(runs=runs)))
