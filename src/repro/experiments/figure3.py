"""Figure 3: per-application speedup, unmodified vs process-controlled
threads package.

"For each application we plot the speed-up as the number of parallel
processes is increased.  Two curves are shown for each application: (i)
the dashed line shows the implementation ... on top of the original,
unmodified Brown Threads package, and (ii) the solid line corresponds to
... our modified threads package that controls the number of processes."

Expected shape (the paper's three observations):

1. speedup increases up to 16 processes (the processor count);
2. the two curves are nearly identical up to 16 processes (the control
   machinery costs nothing when no reduction is needed);
3. beyond 16, the unmodified package degrades sharply and monotonically,
   while the controlled package stays near its peak.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.config import (
    app_factories,
    paper_scenario_defaults,
    poll_interval,
    process_counts,
)
from repro.experiments.parallel import Runs
from repro.metrics import format_table, speedup
from repro.workloads import AppSpec, Scenario, run_scenario

#: Applications plotted by Figure 3, in the paper's order.
FIGURE3_APPS = ("fft", "sort", "gauss", "matmul")


@dataclass
class Figure3Curve:
    """One application's dashed (uncontrolled) and solid (controlled) curves."""

    app: str
    t1: int
    counts: List[int]
    speedup_off: List[float]
    speedup_on: List[float]

    def peak_off(self) -> float:
        return max(self.speedup_off)

    def at(self, n: int, controlled: bool) -> float:
        index = self.counts.index(n)
        return (self.speedup_on if controlled else self.speedup_off)[index]


@dataclass
class Figure3Result:
    curves: Dict[str, Figure3Curve]
    preset: str


def _figure3_cell(runs: Runs, args) -> int:
    """Sweep cell: one application's wall time at one (n, control) point."""
    app, n, control, preset, seed = args
    defaults = paper_scenario_defaults(preset, seed)
    factory = app_factories(preset, seed)[app]
    result = run_scenario(
        Scenario(
            apps=[AppSpec(factory, n)],
            control=control,
            machine=defaults.machine,
            scheduler=defaults.scheduler,
            poll_interval=poll_interval(preset),
            server_interval=poll_interval(preset),
            seed=seed,
        ),
        sanitize=runs.sanitize,
    )
    return result.apps[app].wall_time


def _app_cells(app: str, sweep, preset: str, seed: int):
    """All of one application's sweep cells: baseline, then off/on per n."""
    cells = [(app, 1, None, preset, seed)]
    for n in sweep:
        cells.append((app, n, None, preset, seed))
        cells.append((app, n, "centralized", preset, seed))
    return cells


def _curve_from_walls(app: str, sweep, walls: List[int]) -> Figure3Curve:
    """Assemble one curve pair from the cell results of :func:`_app_cells`."""
    t1 = walls[0]
    off = [speedup(t1, walls[1 + 2 * i]) for i in range(len(sweep))]
    on = [speedup(t1, walls[2 + 2 * i]) for i in range(len(sweep))]
    return Figure3Curve(
        app=app, t1=t1, counts=list(sweep), speedup_off=off, speedup_on=on
    )


def run_figure3_app(
    app: str,
    preset: str = "paper",
    counts: Sequence[int] = (),
    seed: int = 0,
    runs: Runs = Runs(),
) -> Figure3Curve:
    """Both curves for one application."""
    sweep = tuple(counts) or process_counts(preset)
    walls = runs.map(_figure3_cell, _app_cells(app, sweep, preset, seed))
    return _curve_from_walls(app, sweep, walls)


def run_figure3(
    preset: str = "paper",
    apps: Sequence[str] = FIGURE3_APPS,
    counts: Sequence[int] = (),
    seed: int = 0,
    runs: Runs = Runs(),
) -> Figure3Result:
    """All four applications' curve pairs.

    The whole figure -- every (application, process count, control) cell --
    is flattened into one :meth:`Runs.map` fan-out, so a many-core host
    overlaps the four applications' sweeps instead of finishing them one
    curve at a time.
    """
    sweep = tuple(counts) or process_counts(preset)
    cells = []
    for app in apps:
        cells.extend(_app_cells(app, sweep, preset, seed))
    walls = runs.map(_figure3_cell, cells)
    per_app = 1 + 2 * len(sweep)
    curves = {
        app: _curve_from_walls(app, sweep, walls[i * per_app : (i + 1) * per_app])
        for i, app in enumerate(apps)
    }
    return Figure3Result(curves=curves, preset=preset)


def format_figure3(result: Figure3Result) -> str:
    blocks = ["Figure 3: speedup with (solid/on) and without (dashed/off) "
              "process control"]
    for app, curve in result.curves.items():
        rows = [
            (n, curve.speedup_off[i], curve.speedup_on[i])
            for i, n in enumerate(curve.counts)
        ]
        blocks.append(
            f"\n[{app}]  T1 = {curve.t1 / 1e6:.1f}s\n"
            + format_table(["processes", "speedup(off)", "speedup(on)"], rows)
        )
    return "\n".join(blocks)


def plot_figure3(result: Figure3Result, width: int = 56) -> str:
    """ASCII speedup-vs-processes plots, one per application, both curves."""
    from repro.viz import curve_plot

    blocks = []
    for app, curve in result.curves.items():
        curves = {
            "off": list(zip(curve.counts, curve.speedup_off)),
            "on": list(zip(curve.counts, curve.speedup_on)),
        }
        blocks.append(
            f"[{app}: speedup vs processes]\n"
            + curve_plot(curves, width=width, height=12, x_label="processes")
        )
    return "\n\n".join(blocks)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    result = run_figure3(preset, runs=runs)
    print(format_figure3(result))
    print()
    print(plot_figure3(result))
