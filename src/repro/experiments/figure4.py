"""Figure 4: wall-clock times of three concurrent applications, with and
without process control.

"Figure 4 shows the results when three applications execute at the same
time, both with and without process control.  The applications were
started at intervals of 10 seconds, each with 16 processes."

Expected shape: fft and gauss take much longer without control; matmul --
which arrives last, with fresh processes the UMAX-style decay scheduler
favours -- shows the smallest absolute increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.experiments.config import (
    app_factories,
    paper_scenario_defaults,
    poll_interval,
)
from repro.experiments.parallel import Runs
from repro.metrics import format_table
from repro.sim import units
from repro.workloads import AppSpec, Scenario, ScenarioResult, run_scenario

#: Arrival order and stagger of the paper's Figure 4 run.
FIGURE4_ORDER = ("fft", "gauss", "matmul")
FIGURE4_STAGGER = units.seconds(10)
FIGURE4_PROCESSES = 16


def figure4_stagger(preset: str) -> int:
    """Arrival stagger: the paper's 10 s, shrunk for the quick preset so
    the (smaller) quick applications still overlap as in the paper."""
    return FIGURE4_STAGGER if preset == "paper" else units.seconds(3)


def figure4_scenario(
    control: Optional[str],
    preset: str = "paper",
    seed: int = 0,
    scheduler: Optional[str] = None,
) -> Scenario:
    """The Figure 4 (and Figure 5) scenario description."""
    defaults = paper_scenario_defaults(preset, seed)
    factories = app_factories(preset, seed)
    stagger = figure4_stagger(preset)
    return Scenario(
        apps=[
            AppSpec(
                factories[name],
                FIGURE4_PROCESSES,
                arrival=index * stagger,
            )
            for index, name in enumerate(FIGURE4_ORDER)
        ],
        control=control,
        machine=defaults.machine,
        scheduler=scheduler or defaults.scheduler,
        poll_interval=poll_interval(preset),
        server_interval=poll_interval(preset),
        seed=seed,
    )


@dataclass
class Figure4Result:
    uncontrolled: ScenarioResult
    controlled: ScenarioResult
    preset: str

    def wall_times(self, controlled: bool) -> Dict[str, int]:
        result = self.controlled if controlled else self.uncontrolled
        return {app: r.wall_time for app, r in result.apps.items()}

    def ratio(self, app: str) -> float:
        return (
            self.uncontrolled.apps[app].wall_time
            / self.controlled.apps[app].wall_time
        )


def run_figure4(
    preset: str = "paper", seed: int = 0, runs: Runs = Runs()
) -> Figure4Result:
    """Both Figure 4 runs (control off, control on)."""
    off, on = (
        run_scenario(figure4_scenario(control, preset, seed), sanitize=runs.sanitize)
        for control in (None, "centralized")
    )
    return Figure4Result(uncontrolled=off, controlled=on, preset=preset)


def format_figure4(result: Figure4Result) -> str:
    rows = []
    for app in FIGURE4_ORDER:
        off = result.uncontrolled.apps[app]
        on = result.controlled.apps[app]
        rows.append(
            (
                app,
                f"{off.wall_time / 1e6:.1f}",
                f"{on.wall_time / 1e6:.1f}",
                f"{result.ratio(app):.2f}",
                on.suspensions,
                on.polls,
            )
        )
    table = format_table(
        ["app", "wall off (s)", "wall on (s)", "off/on", "suspensions", "polls"],
        rows,
    )
    stagger_s = figure4_stagger(result.preset) / 1e6
    return (
        f"Figure 4: three applications started {stagger_s:.0f} s apart, "
        f"{FIGURE4_PROCESSES} processes each\n"
        + table
        + "\nmakespan: off "
        + f"{result.uncontrolled.makespan / 1e6:.1f}s, "
        + f"on {result.controlled.makespan / 1e6:.1f}s"
    )


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_figure4(run_figure4(preset, runs=runs)))
