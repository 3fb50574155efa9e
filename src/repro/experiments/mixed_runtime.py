"""Mixed runtimes on one machine: the compliance policy's case.

Four tenants with four different relationships to process control share
one machine:

* ``tq`` -- a task-queue tenant.  It polls on every queue transition, so
  it adopts a shrunk target within a poll interval: the *prompt
  complier*.
* ``fj`` -- a fork-join tenant with long phases.  Its runtime only
  reaches a safe suspension point at phase barriers, so a shrunk target
  sits unadopted for most of a phase while the extra workers keep
  running: the *slow complier*.  It is compliant -- it always conforms
  at the next barrier -- just structurally late.
* ``pipe`` -- a dedicated-stage-thread pipeline.  It can never shrink
  below one worker per stage, a *structural floor* it reports rather
  than a transient overshoot.
* ``greedy0``/``greedy1``/``greedy2`` -- three staggered waves of an
  uncontrolled tenant (``control="off"``): they never register and never
  release anything, the zero-compliance end of the continuum.  Each
  arriving wave forces the server to shrink everyone's targets; each
  departing wave lets it grow them again, so the run exercises repeated
  shrink/adopt cycles rather than a single one.

The sweep runs this mix under ``equal`` / ``demand`` / ``slo`` /
``compliance`` allocation.  Equipartition keeps re-granting processors
by its own arithmetic while the slow complier's unadopted workers and
the greedy waves are still running -- the machine spends long stretches
overcommitted, everyone time-slices, and the grants are phantoms.  The
compliance policy reads adoption-lag and overshoot telemetry off the
control board, cross-checks it against the kernel census (a mid-phase
holdout never shows up in its own barrier-sampled report), charges
residual overshoot as uncontrolled load, discounts a tenant's
water-filling weight while it sits on unreleased processors, and
reserves the pipeline's floor.  The pinned metric is **overcommitted
processor-time**: the time-integral of runnable load above machine
capacity.  Under ``compliance`` it must come in below ``equal`` -- the
policy keeps the machine at capacity instead of promising processors
that are still occupied.

The compliance arm passes a policy *instance* so its lag grace matches
this experiment's poll cadence (the registry default is sized for
wall-clock services, not a millisecond-scale simulation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.pipeline import PipelineApp
from repro.apps.synthetic import BarrierHeavyApp, UniformApp
from repro.core.allocation import make_policy
from repro.experiments.parallel import Runs
from repro.machine import MachineConfig
from repro.metrics import format_table
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Allocation arms the sweep compares over the same four-tenant mix.
SWEEP_ARMS: Tuple[str, ...] = ("equal", "demand", "slo", "compliance")

#: Adoption-lag grace for the compliance arm, sized to this experiment's
#: 10 ms poll interval: the task-queue tenant adopts within a poll or
#: two, the fork-join tenant's lag runs to a phase length (tens of ms).
LAG_GRACE = units.ms(25)

#: Per-preset workload sizes: (tq tasks, fj phases, pipe items, tasks
#: per greedy wave).  Costs are fixed; the paper preset doubles the work.
_SIZES: Dict[str, Tuple[int, int, int, int]] = {
    "quick": (150, 5, 40, 24),
    "paper": (300, 10, 80, 48),
}

#: Arrival times of the three uncontrolled waves.  Staggered so shrink
#: targets land mid-phase for the fork-join tenant more than once.
_WAVE_ARRIVALS: Tuple[int, ...] = (units.ms(50), units.ms(170), units.ms(290))


def mixed_runtime_scenario(arm: str, preset: str = "quick", seed: int = 0) -> Scenario:
    """The four-tenant mixed-runtime scenario under one allocation arm.

    Exposed separately so tests can replay the exact runs the experiment
    measures (the acceptance test pins the quick-preset digests).
    """
    tq_tasks, fj_phases, pipe_items, wave_tasks = _SIZES.get(
        preset, _SIZES["quick"]
    )
    machine = MachineConfig(n_processors=12)

    def tq() -> UniformApp:
        return UniformApp(
            "tq", n_tasks=tq_tasks, task_cost=units.ms(8), seed=seed
        )

    def fj() -> BarrierHeavyApp:
        # Eight 40 ms tasks per phase: at a shrunk width a phase runs
        # ~100+ ms, so a target posted mid-phase waits most of that
        # before the barrier adopts it -- the slow-complier shape.
        return BarrierHeavyApp(
            "fj",
            phases=fj_phases,
            tasks_per_phase=8,
            task_cost=units.ms(40),
            seed=seed + 1,
        )

    def pipe() -> PipelineApp:
        return PipelineApp(
            app_id="pipe",
            n_items=pipe_items,
            stage_costs=(units.ms(4), units.ms(6), units.ms(4)),
            seed=seed + 2,
        )

    def wave(i: int) -> AppSpec:
        def build(i: int = i) -> UniformApp:
            return UniformApp(
                f"greedy{i}",
                n_tasks=wave_tasks,
                task_cost=units.ms(6),
                seed=seed + 3 + i,
            )

        return AppSpec(
            build, n_processes=4, arrival=_WAVE_ARRIVALS[i], control="off"
        )

    if arm == "compliance":
        # Instance, not name: pin the lag grace to the simulation scale.
        policy = make_policy("compliance", lag_grace=LAG_GRACE)
    else:
        policy = arm
    return Scenario(
        apps=[
            AppSpec(tq, n_processes=8),
            AppSpec(fj, n_processes=6, runtime="forkjoin"),
            AppSpec(pipe, n_processes=5, runtime="pipeline"),
            wave(0),
            wave(1),
            wave(2),
        ],
        control="centralized",
        scheduler="fifo",
        machine=machine,
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        policy=policy,
        seed=seed,
        max_time=units.seconds(120),
    )


@dataclass
class MixedRuntimeCell:
    """One arm's outcome, reduced to the compliance figures."""

    arm: str
    makespan_ms: float
    tq_done_ms: float
    fj_done_ms: float
    pipe_done_ms: float
    adoptions: int
    lag_max_ms: float
    overshoot_peak: float
    suspensions: int
    #: Time-integral of runnable load above machine capacity, in
    #: processor-milliseconds -- the experiment's pinned metric.
    overcommit_cpu_ms: float


def overcommitted_cpu_ms(result, n_processors: int) -> float:
    """Processor-milliseconds the machine spent promised-but-occupied.

    Integrates ``max(0, runnable_total - n_processors)`` over the run:
    every unit of area is a runnable process with no processor to run
    on, i.e. time-slicing the paper's process control exists to avoid.
    """
    pts = result.runnable_total.points
    return (
        sum(
            max(0.0, load - n_processors) * (t1 - t0)
            for (t0, load), (t1, _) in zip(pts, pts[1:])
        )
        / 1e3
    )


def _mixed_runtime_cell(runs: Runs, args) -> MixedRuntimeCell:
    """Sweep cell (module-level so it pickles for the process pool)."""
    arm, preset, seed = args
    scenario = mixed_runtime_scenario(arm, preset, seed)
    result = run_scenario(scenario, sanitize=runs.sanitize)
    apps = result.apps
    return MixedRuntimeCell(
        arm=arm,
        makespan_ms=result.sim_time / 1e3,
        tq_done_ms=apps["tq"].finished_at / 1e3,
        fj_done_ms=apps["fj"].finished_at / 1e3,
        pipe_done_ms=apps["pipe"].finished_at / 1e3,
        adoptions=sum(app.adoptions for app in apps.values()),
        lag_max_ms=max(app.adoption_lag_max for app in apps.values()) / 1e3,
        overshoot_peak=max(app.overshoot_peak for app in apps.values()),
        suspensions=sum(app.suspensions for app in apps.values()),
        overcommit_cpu_ms=overcommitted_cpu_ms(
            result, scenario.machine.n_processors
        ),
    )


def run_mixed_runtime(
    preset: str = "quick",
    seed: int = 0,
    runs: Runs = Runs(),
    arms: Tuple[str, ...] = SWEEP_ARMS,
) -> List[MixedRuntimeCell]:
    """Run the mix once per allocation arm; cells fan out."""
    return runs.map(_mixed_runtime_cell, [(arm, preset, seed) for arm in arms])


def format_mixed_runtime(cells: List[MixedRuntimeCell]) -> str:
    headers = [
        "arm",
        "overcommit_cpu_ms",
        "makespan_ms",
        "tq_done_ms",
        "fj_done_ms",
        "pipe_done_ms",
        "adoptions",
        "lag_max_ms",
        "suspensions",
    ]
    rows = [
        [
            cell.arm,
            f"{cell.overcommit_cpu_ms:.1f}",
            f"{cell.makespan_ms:.0f}",
            f"{cell.tq_done_ms:.0f}",
            f"{cell.fj_done_ms:.0f}",
            f"{cell.pipe_done_ms:.0f}",
            cell.adoptions,
            f"{cell.lag_max_ms:.1f}",
            cell.suspensions,
        ]
        for cell in cells
    ]
    lines = [
        "Mixed runtimes (task-queue + fork-join + pipeline + uncontrolled)"
        " on 12 CPUs",
        format_table(headers, rows),
    ]
    by_arm = {cell.arm: cell for cell in cells}
    equal, compliance = by_arm.get("equal"), by_arm.get("compliance")
    if equal and compliance:
        saved = 1 - compliance.overcommit_cpu_ms / equal.overcommit_cpu_ms
        lines.append(
            f"\novercommit: compliance {compliance.overcommit_cpu_ms:.1f}"
            f" cpu-ms vs equal {equal.overcommit_cpu_ms:.1f} cpu-ms"
            f" ({100.0 * saved:.0f}% less time-slicing above capacity)"
        )
    return "\n".join(lines)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_mixed_runtime(run_mixed_runtime(preset, runs=runs)))
