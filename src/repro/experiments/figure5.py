"""Figure 5: runnable processes vs time, for the Figure 4 runs.

"In this figure we plot the number of runnable processes in the system as
a function of time ...  We see that with process control turned on, the
total number of processes quickly returns to 16, which is the number of
processors in the system.  The few seconds of delay before the number of
processes starts decreasing is because applications query the central
server only once every six seconds."

The step series come straight from the kernel's runnable-census trace; we
sample them on a one-second grid for display and compute the convergence
diagnostics the paper narrates (equal division during the two-app and
three-app intervals, expansion as applications finish).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.experiments.figure4 import figure4_scenario
from repro.experiments.parallel import Runs
from repro.metrics import format_table
from repro.metrics.timeseries import StepSeries
from repro.sim import units
from repro.workloads import ScenarioResult, run_scenario


@dataclass
class Figure5Series:
    """One run's runnable-process series (total and per application)."""

    controlled: bool
    total: StepSeries
    per_app: Dict[str, StepSeries]
    sim_time: int

    def sample_grid(self, step: int = units.seconds(1)) -> List[dict]:
        """Rows of ``{t, total, <app>: count...}`` on a regular grid."""
        rows = []
        t = 0
        while t <= self.sim_time:
            row = {"t": t, "total": self.total.value_at(t)}
            for app_id, series in self.per_app.items():
                row[app_id] = series.value_at(t)
            rows.append(row)
            t += step
        return rows

    def convergence_time(
        self, target: int, after: int = 0, tolerance: int = 1
    ) -> Optional[int]:
        """First time >= *after* at which total runnable stays within
        *tolerance* of *target* for at least one second."""
        hold = units.seconds(1)
        points = [p for p in self.total.points if p[0] >= after]
        for index, (time, value) in enumerate(points):
            if abs(value - target) <= tolerance:
                end = time + hold
                ok = True
                for later_time, later_value in points[index + 1:]:
                    if later_time >= end:
                        break
                    if abs(later_value - target) > tolerance:
                        ok = False
                        break
                if ok:
                    return time
        return None


@dataclass
class Figure5Result:
    on: Figure5Series
    off: Figure5Series
    preset: str


def _series_of(result: ScenarioResult, controlled: bool) -> Figure5Series:
    return Figure5Series(
        controlled=controlled,
        total=result.runnable_total,
        per_app={
            app_id: series
            for app_id, series in result.runnable_per_app.items()
            if app_id != "<none>"
        },
        sim_time=result.sim_time,
    )


def run_figure5(
    preset: str = "paper", seed: int = 0, runs: Runs = Runs()
) -> Figure5Result:
    """Reproduce both halves of Figure 5."""
    on, off = (
        run_scenario(figure4_scenario(control, preset, seed), sanitize=runs.sanitize)
        for control in ("centralized", None)
    )
    return Figure5Result(
        on=_series_of(on, True), off=_series_of(off, False), preset=preset
    )


def format_figure5(
    result: Figure5Result, step: int = units.seconds(2)
) -> str:
    blocks = ["Figure 5: runnable processes vs time (t in seconds)"]
    for series in (result.on, result.off):
        label = "process control ON" if series.controlled else "process control OFF"
        apps = sorted(series.per_app)
        rows = [
            [int(row["t"] / 1e6), int(row["total"])]
            + [int(row.get(app, 0)) for app in apps]
            for row in series.sample_grid(step)
        ]
        blocks.append(
            f"\n[{label}]\n"
            + format_table(["t", "total"] + apps, rows)
        )
    converge = result.on.convergence_time(target=16, after=units.seconds(10))
    if converge is not None:
        blocks.append(
            f"\ncontrol-on: total runnable returned to ~16 at "
            f"t={converge / 1e6:.1f}s (poll interval 6 s)"
        )
    return "\n".join(blocks)


def plot_figure5(result: Figure5Result, width: int = 72) -> str:
    """ASCII area plots of both runs' total-runnable series (the actual
    look of the paper's Figure 5)."""
    from repro.viz import step_plot

    peak = max(result.on.total.maximum(), result.off.total.maximum(), 16.0)
    blocks = []
    for series in (result.on, result.off):
        label = "control ON" if series.controlled else "control OFF"
        blocks.append(
            f"[total runnable processes, {label}]\n"
            + step_plot(
                series.total,
                until=series.sim_time,
                width=width,
                height=8,
                y_max=peak,
            )
        )
    return "\n\n".join(blocks)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    result = run_figure5(preset, runs=runs)
    print(format_figure5(result))
    print()
    print(plot_figure5(result))
