"""Allocation policies under overload: equipartition vs demand feedback.

The paper's server divides processors *equally* among applications, capped
only by each application's process count.  That cap is static: an
application that started 12 workers keeps claiming 12-worth of share even
while its task queue holds 4 tasks, and the surplus workers burn their
share busy-waiting on the empty queue (the Section 2 point-2
producer/consumer waste).  The ``demand`` policy closes the loop with the
backlog figure the threads package piggybacks on every poll, capping each
application's share at what it can actually use and water-filling the
slack to applications that can.

This experiment builds exactly that adversarial regime -- two wide
applications (12 workers each, 16 processors) whose phases carry only 4
tasks -- and compares the machine's cycle ledger under each policy.  Under
``equal`` the extra granted workers show up as ``idle_poll`` waste; under
``demand`` the same workload runs with fewer runnable workers and the
idle-poll bucket shrinks.  ``weighted`` with no weight table is included
as a control: it must match ``equal`` (equal priorities degrade to
equipartition).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.analysis.waste import waste_breakdown
from repro.apps.synthetic import BarrierHeavyApp
from repro.experiments.parallel import Runs
from repro.machine import MachineConfig
from repro.metrics import format_table
from repro.sim import TraceLog, units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Policies the sweep compares (registry names).
SWEEP_POLICIES: Tuple[str, ...] = ("equal", "weighted", "demand")


def overload_scenario(
    policy: str, preset: str = "quick", seed: int = 0
) -> Scenario:
    """Two 12-worker applications with 4-task phases on 16 processors.

    Every application is overprovisioned threefold relative to its
    per-phase parallelism, so a backlog-blind policy grants share that can
    only be spent busy-waiting.  Exposed separately so tests can replay
    the exact runs the experiment measures.
    """
    phases = 40 if preset == "paper" else 12
    machine = MachineConfig(
        n_processors=16,
        quantum=units.ms(5),
        context_switch_cost=units.us(50),
        dispatch_latency=units.us(10),
        cache_cold_penalty=units.us(500),
        cache_warmup_time=units.ms(2),
        cache_purge_time=units.ms(4),
    )
    apps = [
        AppSpec(
            lambda name=name, offset=offset: BarrierHeavyApp(
                name,
                phases=phases,
                tasks_per_phase=4,
                task_cost=units.ms(2),
                seed=seed + offset,
            ),
            n_processes=12,
            arrival=offset * units.ms(1),
        )
        for offset, name in enumerate(("over-a", "over-b"))
    ]
    return Scenario(
        apps=apps,
        control="centralized",
        scheduler="fifo",
        machine=machine,
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        policy=policy,
        seed=seed,
        max_time=units.seconds(30),
    )


@dataclass
class PolicyCell:
    """One policy's outcome, reduced to the ledger the comparison needs."""

    policy: str
    makespan_ms: float
    useful_pct: float
    idle_poll_pct: float
    spin_pct: float
    overhead_pct: float
    idle_pct: float
    #: waste = idle_poll + spin + overhead, as a capacity fraction.
    waste_pct: float
    suspensions: int
    mean_target: float


def _policy_cell(runs: Runs, args) -> PolicyCell:
    """Sweep cell (module-level so it pickles for the process pool)."""
    policy, preset, seed = args
    result = run_scenario(
        overload_scenario(policy, preset, seed),
        trace=TraceLog(categories=("server.update",)),
        sanitize=runs.sanitize,
    )
    breakdown = waste_breakdown(result)
    pct = breakdown.as_percentages()
    # Mean granted target across all server updates: the direct view of
    # how much concurrency the policy let each application keep.
    total = 0
    count = 0
    for record in result.trace.records("server.update"):
        for target in record.data["targets"].values():
            total += target
            count += 1
    return PolicyCell(
        policy=policy,
        makespan_ms=result.makespan / 1e3,
        useful_pct=pct["useful"],
        idle_poll_pct=pct["idle_poll"],
        spin_pct=pct["spin"],
        overhead_pct=pct["overhead"],
        idle_pct=pct["idle"],
        waste_pct=round(100.0 * breakdown.waste / breakdown.capacity, 2)
        if breakdown.capacity
        else 0.0,
        suspensions=sum(app.suspensions for app in result.apps.values()),
        mean_target=total / count if count else 0.0,
    )


def run_policies(
    preset: str = "quick",
    seed: int = 0,
    runs: Runs = Runs(),
    policies: Tuple[str, ...] = SWEEP_POLICIES,
) -> List[PolicyCell]:
    """Run the overload workload once per policy (cells fan out)."""
    return runs.map(_policy_cell, [(policy, preset, seed) for policy in policies])


def format_policies(cells: List[PolicyCell]) -> str:
    headers = [
        "policy",
        "makespan_ms",
        "mean_target",
        "useful%",
        "idle_poll%",
        "spin%",
        "overhead%",
        "idle%",
        "waste%",
        "suspensions",
    ]
    rows = [
        [
            cell.policy,
            f"{cell.makespan_ms:.1f}",
            f"{cell.mean_target:.2f}",
            cell.useful_pct,
            cell.idle_poll_pct,
            cell.spin_pct,
            cell.overhead_pct,
            cell.idle_pct,
            cell.waste_pct,
            cell.suspensions,
        ]
        for cell in cells
    ]
    by_name: Dict[str, PolicyCell] = {cell.policy: cell for cell in cells}
    lines = [
        "Allocation policies under overload "
        "(2 apps x 12 workers, 4-task phases, 16 CPUs)",
        format_table(headers, rows),
    ]
    if "equal" in by_name and "demand" in by_name:
        equal, demand = by_name["equal"], by_name["demand"]
        lines.append(
            f"\ndemand vs equal: idle-poll waste "
            f"{equal.idle_poll_pct:.2f}% -> {demand.idle_poll_pct:.2f}%, "
            f"mean granted target {equal.mean_target:.2f} -> "
            f"{demand.mean_target:.2f}"
        )
    return "\n".join(lines)


def main(preset: str = "paper", runs: Runs = Runs()) -> None:  # pragma: no cover
    print(format_policies(run_policies(preset, runs=runs)))
