"""Lock-saturation collapse vs Malthusian concurrency restriction.

The head-to-head the literature never had: the paper's 1989 processor
control against lock-level waiter restriction (Malthusian locks; Dice &
Kogan's "Avoiding Scalability Collapse by Restricting Concurrency"),
and both together.  Two measurements:

**Saturation sweep** (16 CPUs, one lock tenant, no overcommit -- the
Dice & Kogan regime).  Thread counts climb through the lock's
saturation knee (``think/cs + 1`` ~ 5 threads).  Unrestricted, every
extra thread joins the spin set and each ownership hand-off pays the
invalidation-storm penalty per remaining spinner: aggregate throughput
*collapses* past the knee.  With ``admission=1`` the lock passivates
every waiter beyond one active spinner and readmits per release:
throughput rises to the knee and stays flat at peak no matter how many
threads pile on.  Processor control cannot help here -- there is no
preemption to fix; the machine is never overcommitted.

**Overcommit head-to-head** (8 CPUs, 24 lock threads + a compute-bound
background tenant).  Now *two* independent pathologies are live: the
spinner storm at the lock, and holder preemption / time-slicing from
machine-level overcommit.  Restriction alone caps the storm but leaves
the holder exposed to preemption; processor control alone removes
preemption but lets every scheduled thread spin; together they beat
either alone -- the composition claim the experiment pins.

The four arms map ``(admission, control)``: ``none`` = (off, off),
``restrict`` = (on, off), ``control`` = (off, centralized),
``combined`` = (on, centralized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import Runs
from repro.metrics import format_table
from repro.workloads import run_scenario
from repro.workloads.locks import lock_saturation_scenario

#: Sweep arms (pure saturation; processor control is pointless there).
SWEEP_ARMS: Tuple[str, ...] = ("none", "restrict")

#: Head-to-head arms over the overcommitted machine.
HEAD_TO_HEAD_ARMS: Tuple[str, ...] = ("none", "restrict", "control", "combined")

#: The restriction arms' admission limit: one active spinner; everyone
#: else waits passivated.  The serial path is then one critical section
#: plus one constant hand-off -- the collapse-proof minimum.
ADMISSION = 1

#: Per-preset sizes: (tasks in the lock app, sweep thread counts,
#: head-to-head thread count).
_SIZES: Dict[str, Tuple[int, Tuple[int, ...], int]] = {
    "quick": (96, (2, 4, 6, 8, 10, 12, 14), 24),
    "paper": (192, (2, 3, 4, 5, 6, 8, 10, 12, 14, 16), 32),
}

#: Background tenant in the head-to-head: enough compute-bound workers
#: that the 8-CPU machine is genuinely overcommitted.
_BACKGROUND_WORKERS = 6


def arm_knobs(arm: str) -> Tuple[Optional[int], Optional[str]]:
    """(admission, control) for one arm name."""
    if arm not in HEAD_TO_HEAD_ARMS:
        raise ValueError(f"unknown arm {arm!r}")
    admission = ADMISSION if arm in ("restrict", "combined") else None
    control = "centralized" if arm in ("control", "combined") else None
    return admission, control


def sweep_scenario(arm: str, threads: int, preset: str = "quick", seed: int = 0):
    """One saturation-sweep cell: the lock tenant alone on 16 CPUs."""
    n_tasks, _, _ = _SIZES.get(preset, _SIZES["quick"])
    admission, control = arm_knobs(arm)
    return lock_saturation_scenario(
        threads,
        n_tasks=n_tasks,
        admission=admission,
        control=control,
        n_processors=16,
        seed=seed,
    )


def head_to_head_scenario(arm: str, preset: str = "quick", seed: int = 0):
    """One overcommit cell: lock tenant + background tenant on 8 CPUs."""
    n_tasks, _, threads = _SIZES.get(preset, _SIZES["quick"])
    admission, control = arm_knobs(arm)
    return lock_saturation_scenario(
        threads,
        n_tasks=n_tasks,
        admission=admission,
        control=control,
        background_workers=_BACKGROUND_WORKERS,
        n_processors=8,
        seed=seed,
    )


@dataclass
class LockSweepCell:
    """One (arm, threads) saturation-sweep outcome."""

    arm: str
    threads: int
    throughput_s: float  # completed critical sections per second
    wall_ms: float
    spin_ms: float
    holder_preempted: int
    passivations: int
    readmissions: int
    waiters_peak: int
    handoff_mean_us: float


@dataclass
class LockHeadToHeadCell:
    """One head-to-head arm outcome on the overcommitted machine."""

    arm: str
    throughput_s: float
    wall_ms: float
    makespan_ms: float
    holder_preempted: int
    passivations: int
    suspensions: int
    spin_ms: float


def _throughput(app) -> float:
    return app.tasks_completed / (app.wall_time / 1e6)


def _sweep_cell(runs: Runs, args) -> LockSweepCell:
    """Sweep cell (module-level so it pickles for the process pool)."""
    arm, threads, preset, seed = args
    result = run_scenario(
        sweep_scenario(arm, threads, preset, seed), sanitize=runs.sanitize
    )
    app = result.apps["locks"]
    stats = result.locks["locks.lock"]
    return LockSweepCell(
        arm=arm,
        threads=threads,
        throughput_s=_throughput(app),
        wall_ms=app.wall_time / 1e3,
        spin_ms=app.spin_time / 1e3,
        holder_preempted=stats.holder_preempted_encounters,
        passivations=stats.passivations,
        readmissions=stats.readmissions,
        waiters_peak=stats.waiters_peak,
        handoff_mean_us=stats.handoff_latency_mean,
    )


def _head_to_head_cell(runs: Runs, args) -> LockHeadToHeadCell:
    arm, preset, seed = args
    result = run_scenario(
        head_to_head_scenario(arm, preset, seed), sanitize=runs.sanitize
    )
    app = result.apps["locks"]
    stats = result.locks["locks.lock"]
    return LockHeadToHeadCell(
        arm=arm,
        throughput_s=_throughput(app),
        wall_ms=app.wall_time / 1e3,
        makespan_ms=result.makespan / 1e3,
        holder_preempted=stats.holder_preempted_encounters,
        passivations=stats.passivations,
        suspensions=sum(a.suspensions for a in result.apps.values()),
        spin_ms=app.spin_time / 1e3,
    )


@dataclass
class LockCollapseResult:
    """Both measurements, plus the preset they ran at."""

    preset: str
    sweep: List[LockSweepCell]
    head_to_head: List[LockHeadToHeadCell]


def run_lock_collapse(
    preset: str = "quick",
    seed: int = 0,
    runs: Runs = Runs(),
    sweep_arms: Tuple[str, ...] = SWEEP_ARMS,
    head_arms: Tuple[str, ...] = HEAD_TO_HEAD_ARMS,
) -> LockCollapseResult:
    """Run the sweep and the head-to-head; cells fan out."""
    _, thread_counts, _ = _SIZES.get(preset, _SIZES["quick"])
    sweep = runs.map(
        _sweep_cell,
        [
            (arm, threads, preset, seed)
            for arm in sweep_arms
            for threads in thread_counts
        ],
    )
    head = runs.map(_head_to_head_cell, [(arm, preset, seed) for arm in head_arms])
    return LockCollapseResult(preset=preset, sweep=sweep, head_to_head=head)


def collapse_summary(sweep: List[LockSweepCell]) -> Dict[str, Dict[str, float]]:
    """Per-arm peak / past-knee-minimum / end-of-sweep throughput.

    The knee is where the *unrestricted* arm peaks: past it, adding
    threads should cost that arm throughput.  ``drop`` is the fraction
    lost from an arm's own peak to its worst past-knee cell -- the
    number the acceptance criteria bound (unrestricted >= 0.30 lost,
    restricted <= 0.10 lost).
    """
    unrestricted = [cell for cell in sweep if cell.arm == "none"]
    if not unrestricted:
        raise ValueError('collapse_summary needs the "none" arm')
    knee = max(unrestricted, key=lambda cell: cell.throughput_s).threads
    summary: Dict[str, Dict[str, float]] = {}
    for arm in {cell.arm for cell in sweep}:
        cells = sorted(
            (c for c in sweep if c.arm == arm), key=lambda c: c.threads
        )
        peak = max(c.throughput_s for c in cells)
        past_knee = [c.throughput_s for c in cells if c.threads > knee]
        floor = min(past_knee) if past_knee else peak
        summary[arm] = {
            "knee_threads": float(knee),
            "peak_s": peak,
            "past_knee_min_s": floor,
            "end_s": cells[-1].throughput_s,
            "drop": 1.0 - floor / peak,
        }
    return summary


def format_lock_collapse(result: LockCollapseResult) -> str:
    lines = [
        "Lock saturation sweep (16 CPUs, no overcommit): critical "
        "sections/sec vs threads",
        format_table(
            ["arm", "threads", "tput_s", "spin_ms", "holder_preempt",
             "passivated", "readmitted", "peak_waiters", "handoff_us"],
            [
                [
                    cell.arm,
                    cell.threads,
                    f"{cell.throughput_s:.0f}",
                    f"{cell.spin_ms:.1f}",
                    cell.holder_preempted,
                    cell.passivations,
                    cell.readmissions,
                    cell.waiters_peak,
                    f"{cell.handoff_mean_us:.0f}",
                ]
                for cell in sorted(
                    result.sweep, key=lambda c: (c.arm, c.threads)
                )
            ],
        ),
    ]
    summary = collapse_summary(result.sweep)
    none, restrict = summary.get("none"), summary.get("restrict")
    if none and restrict:
        lines.append(
            f"\ncollapse: unrestricted drops {100 * none['drop']:.0f}% from "
            f"its {none['peak_s']:.0f}/s peak past the "
            f"{none['knee_threads']:.0f}-thread knee; restricted holds "
            f"within {100 * restrict['drop']:.0f}% of its "
            f"{restrict['peak_s']:.0f}/s peak"
        )
    if result.head_to_head:
        lines.append(
            "\nOvercommit head-to-head (8 CPUs, "
            "lock tenant + background tenant):"
        )
        lines.append(
            format_table(
                ["arm", "tput_s", "wall_ms", "holder_preempt",
                 "passivated", "suspensions", "spin_ms"],
                [
                    [
                        cell.arm,
                        f"{cell.throughput_s:.0f}",
                        f"{cell.wall_ms:.1f}",
                        cell.holder_preempted,
                        cell.passivations,
                        cell.suspensions,
                        f"{cell.spin_ms:.1f}",
                    ]
                    for cell in result.head_to_head
                ],
            )
        )
        by_arm = {cell.arm: cell for cell in result.head_to_head}
        combined = by_arm.get("combined")
        if combined and "restrict" in by_arm and "control" in by_arm:
            best_single = max(
                by_arm["restrict"].throughput_s, by_arm["control"].throughput_s
            )
            lines.append(
                f"\ncomposition: combined {combined.throughput_s:.0f}/s vs "
                f"best single remedy {best_single:.0f}/s "
                f"({combined.throughput_s / best_single:.1f}x) -- waiter "
                "control and processor control fix different pathologies"
            )
    return "\n".join(lines)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_lock_collapse(run_lock_collapse(preset, runs=runs)))
