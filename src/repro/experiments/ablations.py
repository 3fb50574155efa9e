"""Ablations: the design choices DESIGN.md calls out, quantified.

Each function isolates one knob:

- :func:`run_scheduler_comparison` -- process control vs the related work
  of Section 3 (coscheduling, no-preempt flags, affinity, process groups)
  and the Section 7 space partitioning, on the Figure 4 mix.
- :func:`run_quantum_sweep` -- quantum length vs degradation (Section 2's
  context-switching overhead).
- :func:`run_cache_sweep` -- cache reload penalty vs degradation
  (Section 2 point 4: the dominant cost on scalable machines).
- :func:`run_poll_interval_sweep` -- the 6-second choice of Section 5.
- :func:`run_control_mode_comparison` -- centralized vs decentralized
  control (Section 4.2's rejected design).
- :func:`run_idle_mode_comparison` -- busy-wait vs blocking threads
  package (Section 2 point 2's producer/consumer waste).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.experiments.config import (
    app_factories,
    paper_machine,
    paper_scenario_defaults,
    poll_interval as preset_poll_interval,
)
from repro.experiments.figure4 import figure4_scenario
from repro.experiments.parallel import Runs
from repro.machine import MachineConfig
from repro.metrics import format_table
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Schedulers compared by the scheduler ablation (all of Section 3 + 7).
ABLATION_SCHEDULERS = (
    "fifo",
    "decay",
    "coscheduling",
    "nopreempt",
    "affinity",
    "partition",
)


def _scheduler_comparison_cell(runs: Runs, args) -> Dict[str, object]:
    """Sweep cell: Figure 4 mix under one (scheduler, control) pair."""
    scheduler, control, preset, seed = args
    scenario = figure4_scenario(
        control, preset=preset, seed=seed, scheduler=scheduler
    )
    if scheduler == "nopreempt":
        scenario = scenario.with_(use_no_preempt_flags=True)
    result = run_scenario(scenario, sanitize=runs.sanitize)
    row: Dict[str, object] = {
        "scheduler": scheduler,
        "control": "on" if control else "off",
        "makespan_s": result.makespan / 1e6,
        "spin_s": result.total_spin_time / 1e6,
        "cs_preemptions": result.total_cs_preemptions,
    }
    for app_id, app_result in result.apps.items():
        row[f"wall_{app_id}_s"] = app_result.wall_time / 1e6
    return row


def run_scheduler_comparison(
    preset: str = "quick", seed: int = 0, runs: Runs = Runs()
) -> List[Dict[str, object]]:
    """Figure 4 mix under every scheduler, control off and on.

    Twelve independent runs (6 schedulers x off/on), fanned out over
    :meth:`Runs.map`.
    """
    cells = [
        (scheduler, control, preset, seed)
        for scheduler in ABLATION_SCHEDULERS
        for control in (None, "centralized")
    ]
    return runs.map(_scheduler_comparison_cell, cells)


def _single_app_run(
    app: str,
    n_processes: int,
    control: Optional[str],
    machine: MachineConfig,
    preset: str,
    seed: int,
    runs: Runs,
    idle_spin: bool = True,
    poll_interval: Optional[int] = None,
    scheduler: Optional[str] = None,
):
    defaults = paper_scenario_defaults(preset, seed)
    factory = app_factories(preset, seed)[app]
    interval = (
        poll_interval if poll_interval is not None else preset_poll_interval(preset)
    )
    scenario = Scenario(
        apps=[AppSpec(factory, n_processes)],
        control=control,
        machine=machine,
        scheduler=scheduler or defaults.scheduler,
        idle_spin=idle_spin,
        poll_interval=interval,
        server_interval=interval,
        seed=seed,
    )
    return run_scenario(scenario, sanitize=runs.sanitize)


def run_quantum_sweep(
    preset: str = "quick",
    quanta_ms: tuple = (25, 50, 100, 200),
    seed: int = 0,
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """Uncontrolled fft at 24 processes across scheduling quanta."""
    rows = []
    for quantum_ms in quanta_ms:
        machine = paper_machine()
        machine.quantum = units.ms(quantum_ms)
        t1 = _single_app_run("fft", 1, None, machine, preset, seed, runs)
        t24 = _single_app_run("fft", 24, None, machine, preset, seed, runs)
        rows.append(
            {
                "quantum_ms": quantum_ms,
                "t1_s": t1.apps["fft"].wall_time / 1e6,
                "t24_s": t24.apps["fft"].wall_time / 1e6,
                "speedup_24": t1.apps["fft"].wall_time / t24.apps["fft"].wall_time,
                "preemptions": t24.total_preemptions,
            }
        )
    return rows


def run_cache_sweep(
    preset: str = "quick",
    cold_ms: tuple = (0, 10, 20, 40, 80),
    seed: int = 0,
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """fft at 24 processes, off vs on, across cache reload penalties."""
    rows = []
    for penalty_ms in cold_ms:
        machine = paper_machine()
        machine.cache_cold_penalty = units.ms(penalty_ms)
        if penalty_ms == 0:
            machine.cache_affinity_enabled = False
        off = _single_app_run("fft", 24, None, machine, preset, seed, runs)
        on = _single_app_run("fft", 24, "centralized", machine, preset, seed, runs)
        rows.append(
            {
                "cold_penalty_ms": penalty_ms,
                "wall_off_s": off.apps["fft"].wall_time / 1e6,
                "wall_on_s": on.apps["fft"].wall_time / 1e6,
                "off_on_ratio": off.apps["fft"].wall_time
                / on.apps["fft"].wall_time,
            }
        )
    return rows


def run_poll_interval_sweep(
    preset: str = "quick",
    intervals_s: tuple = (1, 2, 6, 12, 24),
    seed: int = 0,
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """How the Section 5 polling period trades convergence vs overhead."""
    rows = []
    for interval_s in intervals_s:
        result = _single_app_run(
            "gauss",
            24,
            "centralized",
            paper_machine(),
            preset,
            seed,
            runs,
            poll_interval=units.seconds(interval_s),
        )
        app = result.apps["gauss"]
        rows.append(
            {
                "poll_interval_s": interval_s,
                "wall_s": app.wall_time / 1e6,
                "polls": app.polls,
                "suspensions": app.suspensions,
                "server_updates": result.server_updates,
            }
        )
    return rows


def run_control_mode_comparison(
    preset: str = "quick", seed: int = 0, runs: Runs = Runs()
) -> List[Dict[str, object]]:
    """Centralized vs decentralized control vs none (Section 4.2)."""
    rows = []
    for control in (None, "centralized", "decentralized"):
        result = run_scenario(
            figure4_scenario(control, preset=preset, seed=seed),
            sanitize=runs.sanitize,
        )
        total_polls = sum(r.polls for r in result.apps.values())
        # In decentralized mode every poll is a full process-table scan by
        # every application; centralized mode scans once per server round.
        scans = result.server_updates if control == "centralized" else (
            total_polls if control == "decentralized" else 0
        )
        row: Dict[str, object] = {
            "control": control or "off",
            "makespan_s": result.makespan / 1e6,
            "polls": total_polls,
            "table_scans": scans,
        }
        for app_id, app_result in result.apps.items():
            row[f"wall_{app_id}_s"] = app_result.wall_time / 1e6
        rows.append(row)
    return rows


def run_idle_mode_comparison(
    preset: str = "quick", seed: int = 0, runs: Runs = Runs()
) -> List[Dict[str, object]]:
    """Busy-wait (1989-style) vs blocking threads package, gauss at 24."""
    rows = []
    for idle_spin in (True, False):
        for control in (None, "centralized"):
            result = _single_app_run(
                "gauss",
                24,
                control,
                paper_machine(),
                preset,
                seed,
                runs,
                idle_spin=idle_spin,
            )
            rows.append(
                {
                    "package": "busy-wait" if idle_spin else "blocking",
                    "control": "on" if control else "off",
                    "wall_s": result.apps["gauss"].wall_time / 1e6,
                }
            )
    return rows


def run_machine_width_sweep(
    preset: str = "quick",
    widths: tuple = (8, 16, 32),
    seed: int = 0,
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """Where the crossover falls as the machine grows.

    The paper's crossover -- the process count beyond which the unmodified
    package collapses -- sits exactly at the processor count.  Sweeping the
    machine width checks that the crossover tracks it: the same application
    with 1.5x the machine's processors degrades on every width, and the
    controlled package holds its peak.
    """
    rows = []
    factory = app_factories(preset, seed)["fft"]
    interval = preset_poll_interval(preset)
    for width in widths:
        machine = paper_machine(n_processors=width)
        fitting = int(width)
        over = int(width * 1.5)

        def run(n, control):
            return run_scenario(
                Scenario(
                    apps=[AppSpec(factory, n)],
                    control=control,
                    machine=machine,
                    scheduler="decay",
                    poll_interval=interval,
                    server_interval=interval,
                    seed=seed,
                ),
                sanitize=runs.sanitize,
            ).apps["fft"].wall_time

        wall_fit = run(fitting, None)
        wall_over_off = run(over, None)
        wall_over_on = run(over, "centralized")
        rows.append(
            {
                "n_processors": width,
                "wall_at_width_s": wall_fit / 1e6,
                "wall_at_1.5x_off_s": wall_over_off / 1e6,
                "wall_at_1.5x_on_s": wall_over_on / 1e6,
                "off_degradation": wall_over_off / wall_fit,
                "on_degradation": wall_over_on / wall_fit,
            }
        )
    return rows


def _seed_stability_cell(runs: Runs, args) -> Dict[str, object]:
    """Sweep cell: the off/on makespan pair for one seed."""
    preset, seed = args
    off, on = (
        run_scenario(figure4_scenario(control, preset, seed), sanitize=runs.sanitize)
        for control in (None, "centralized")
    )
    return {
        "seed": seed,
        "makespan_off_s": off.makespan / 1e6,
        "makespan_on_s": on.makespan / 1e6,
        "gain": off.makespan / on.makespan,
    }


def run_seed_stability(
    preset: str = "quick",
    seeds: tuple = (0, 1, 2, 3, 4),
    runs: Runs = Runs(),
) -> List[Dict[str, object]]:
    """Robustness of the headline result across random seeds.

    The applications carry seeded per-task cost jitter; this replication
    shows the Figure 4 improvement is a property of the system, not of one
    lucky draw.  One :meth:`Runs.map` cell per seed.
    """
    rows = runs.map(_seed_stability_cell, [(preset, seed) for seed in seeds])
    gains = [row["gain"] for row in rows]
    rows.append(
        {
            "seed": "mean",
            "makespan_off_s": sum(r["makespan_off_s"] for r in rows) / len(rows),
            "makespan_on_s": sum(r["makespan_on_s"] for r in rows) / len(rows),
            "gain": sum(gains) / len(gains),
        }
    )
    return rows


def run_fairness_experiment(
    preset: str = "quick", seed: int = 0, runs: Runs = Runs()
) -> List[Dict[str, object]]:
    """Section 7's fairness problem and its processor-group fix.

    A well-behaved application ("polite") runs alongside a greedy one that
    refuses process control ("greedy", 16 processes, never suspends).

    * Under plain time sharing with control, the server sees the greedy
      application's 16 runnable processes as uncontrolled load and tells
      the polite application to shrink to almost nothing -- "an application
      that does not control its processes may get an unfair share of the
      processors".
    * Under the Section 7 space-partitioning scheduler with a
      partition-aware server, the polite application keeps its processor
      group and its fair share.
    """
    from repro.apps import UniformApp

    factories = app_factories(preset, seed)
    interval = preset_poll_interval(preset)
    # The greedy application must outlive the polite one, so the fairness
    # (or lack of it) is visible across the polite application's whole run.
    greedy_tasks = 1500 if preset == "quick" else 6000

    def greedy_factory():
        return UniformApp(
            app_id="greedy",
            n_tasks=greedy_tasks,
            task_cost=units.ms(100),
            seed=seed,
        )

    def scenario(scheduler: str, polite_control, policy=None):
        return Scenario(
            apps=[
                AppSpec(factories["fft"], 16, control=polite_control),
                AppSpec(greedy_factory, 16, control="off"),
            ],
            control="centralized",
            scheduler=scheduler,
            machine=paper_machine(),
            poll_interval=interval,
            server_interval=interval,
            policy=policy,
            seed=seed,
        )

    configs = [
        ("time-share, both greedy", scenario("decay", "off")),
        ("time-share, polite controlled", scenario("decay", "centralized")),
        (
            "partition, polite controlled",
            scenario("partition", "centralized", policy="space"),
        ),
    ]
    rows = []
    for label, scn in configs:
        result = run_scenario(scn, sanitize=runs.sanitize)
        polite = result.apps["fft"]
        greedy = result.apps["greedy"]
        # Average runnable processes the polite application kept during its
        # own lifetime: the direct measure of the share it was allowed.
        polite_runnable = result.runnable_per_app["fft"].time_average(
            polite.arrival, polite.finished_at
        )
        rows.append(
            {
                "configuration": label,
                "polite_wall_s": polite.wall_time / 1e6,
                "greedy_wall_s": greedy.wall_time / 1e6,
                "polite_avg_runnable": polite_runnable,
                "polite_suspensions": polite.suspensions,
            }
        )
    return rows


def format_rows(title: str, rows: List[Dict[str, object]]) -> str:
    """Render an ablation's row dicts as an aligned table."""
    if not rows:
        return f"{title}\n(no rows)"
    headers = list(rows[0].keys())
    table = format_table(
        headers, [[row.get(h, "") for h in headers] for row in rows]
    )
    return f"{title}\n{table}"


def main(preset: str = "quick", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_rows("Scheduler comparison (Figure 4 mix)",
                      run_scheduler_comparison(preset, runs=runs)))
    print()
    print(format_rows("Quantum sweep (fft@24, uncontrolled)",
                      run_quantum_sweep(preset, runs=runs)))
    print()
    print(format_rows("Cache cold-penalty sweep (fft@24)",
                      run_cache_sweep(preset, runs=runs)))
    print()
    print(format_rows("Poll interval sweep (gauss@24, controlled)",
                      run_poll_interval_sweep(preset, runs=runs)))
    print()
    print(format_rows("Centralized vs decentralized control",
                      run_control_mode_comparison(preset, runs=runs)))
    print()
    print(format_rows("Busy-wait vs blocking package (gauss@24)",
                      run_idle_mode_comparison(preset, runs=runs)))
    print()
    print(format_rows("Fairness vs a greedy uncontrolled application "
                      "(Section 7)", run_fairness_experiment(preset, runs=runs)))
    print()
    print(format_rows("Machine width sweep (crossover tracks processor "
                      "count)", run_machine_width_sweep(preset, runs=runs)))
    print()
    print(format_rows("Seed stability (Figure 4 mix, 5 seeds)",
                      run_seed_stability(preset, runs=runs)))
