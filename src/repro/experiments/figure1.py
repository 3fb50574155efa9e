"""Figure 1: matmul and fft run simultaneously, speedup vs processes/app.

"The graph shows the performance of two simultaneously executing parallel
applications, a matrix multiplication and a one-dimensional FFT ... the
speed-up for the applications as the number of processes executing the
tasks in each application is varied from 1 to 24" on 16 processors, with
the *unmodified* threads package (no process control).

Expected shape: both curves rise until the two applications together fill
the machine (8 processes each on 16 processors), then fall as processes
exceed processors -- and keep falling as the count grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.config import (
    app_factories,
    paper_scenario_defaults,
    process_counts,
)
from repro.experiments.parallel import Runs
from repro.metrics import format_table, speedup
from repro.workloads import AppSpec, Scenario, run_scenario


@dataclass
class Figure1Row:
    """Speedups of both applications at one processes-per-application point."""

    n_processes: int
    speedup_matmul: float
    speedup_fft: float


@dataclass
class Figure1Result:
    rows: List[Figure1Row]
    t1: Dict[str, int]  # single-process baselines, us
    preset: str

    @property
    def peak_processes(self) -> int:
        """Processes/app at which the summed speedup peaks."""
        best = max(self.rows, key=lambda r: r.speedup_matmul + r.speedup_fft)
        return best.n_processes


def _baseline_cell(runs: Runs, args) -> int:
    """Sweep cell: single-process wall time of one application."""
    name, preset, seed = args
    defaults = paper_scenario_defaults(preset, seed)
    factories = app_factories(preset, seed)
    result = run_scenario(
        Scenario(
            apps=[AppSpec(factories[name], 1)],
            control=None,
            machine=defaults.machine,
            scheduler=defaults.scheduler,
            seed=seed,
        ),
        sanitize=runs.sanitize,
    )
    return result.apps[name].wall_time


def figure1_scenario(n: int, preset: str = "paper", seed: int = 0) -> Scenario:
    """The figure's scenario at one processes-per-application point.

    Exposed separately so the golden-trace regression tests can replay
    exactly the runs the sweep measures.
    """
    defaults = paper_scenario_defaults(preset, seed)
    factories = app_factories(preset, seed)
    return Scenario(
        apps=[
            AppSpec(factories["matmul"], n),
            AppSpec(factories["fft"], n),
        ],
        control=None,
        machine=defaults.machine,
        scheduler=defaults.scheduler,
        seed=seed,
    )


def _sweep_cell(runs: Runs, args):
    """Sweep cell: (matmul, fft) wall times at one processes-per-app point."""
    n, preset, seed = args
    result = run_scenario(figure1_scenario(n, preset, seed), sanitize=runs.sanitize)
    return result.apps["matmul"].wall_time, result.apps["fft"].wall_time


def run_figure1(
    preset: str = "paper",
    counts: Sequence[int] = (),
    seed: int = 0,
    runs: Runs = Runs(),
) -> Figure1Result:
    """Reproduce Figure 1's two curves.

    Every point of the sweep is an independent simulation, so the sweep
    fans out over :meth:`Runs.map` with bit-identical results in any mode.
    """
    sweep = tuple(counts) or process_counts(preset)

    baselines = runs.map(
        _baseline_cell, [(name, preset, seed) for name in ("matmul", "fft")]
    )
    t1: Dict[str, int] = {"matmul": baselines[0], "fft": baselines[1]}

    walls = runs.map(_sweep_cell, [(n, preset, seed) for n in sweep])
    rows: List[Figure1Row] = [
        Figure1Row(
            n_processes=n,
            speedup_matmul=speedup(t1["matmul"], wall_matmul),
            speedup_fft=speedup(t1["fft"], wall_fft),
        )
        for n, (wall_matmul, wall_fft) in zip(sweep, walls)
    ]
    return Figure1Result(rows=rows, t1=t1, preset=preset)


def format_figure1(result: Figure1Result) -> str:
    """Print the figure's two series as a table."""
    table = format_table(
        ["processes/app", "speedup(matmul)", "speedup(fft)"],
        [(r.n_processes, r.speedup_matmul, r.speedup_fft) for r in result.rows],
    )
    return (
        "Figure 1: matmul + fft run simultaneously, no process control\n"
        f"(16 processors; peak at {result.peak_processes} processes/app)\n"
        + table
    )


def plot_figure1(result: Figure1Result, width: int = 56) -> str:
    """ASCII speedup-vs-processes plot, both applications."""
    from repro.viz import curve_plot

    curves = {
        "matmul": [(r.n_processes, r.speedup_matmul) for r in result.rows],
        "fft": [(r.n_processes, r.speedup_fft) for r in result.rows],
    }
    return curve_plot(curves, width=width, height=12, x_label="processes/app")


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    result = run_figure1(preset, runs=runs)
    print(format_figure1(result))
    print()
    print(plot_figure1(result))
