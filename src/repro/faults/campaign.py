"""ChaosCampaign: sweep seeds x injectors x schedulers under the sanitizer.

The campaign is the lockdown for the fault-injection subsystem: every cell
runs a small multiprogrammed workload with invariant checking forced on,
injects one named fault plan, and asserts

* zero invariant violations,
* no deadlock (every application finishes inside the time cap), and
* bounded completion-time inflation against the matching healthy baseline.

Cells fan out over :meth:`repro.experiments.parallel.Runs.map`, so the
sweep is order-stable and bit-identical whether it runs serially or on all
cores -- and :meth:`ChaosReport.format_report` is byte-identical for the
same seed set, which the determinism test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.synthetic import UniformApp
from repro.experiments.parallel import Runs
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Named fault plans the default campaign sweeps (>= 3 distinct injector
#: families; see :mod:`repro.faults.plan` for the grammar).
DEFAULT_INJECTORS: Dict[str, str] = {
    "cpu-churn": (
        "cpu-offline:cpu=1,at=5ms,duration=40ms;"
        "cpu-offline:cpu=2,at=20ms,duration=40ms"
    ),
    # The runner sizes the stale-target TTL at 4 x the 10ms intervals.
    # The crash lands at 25ms -- after every application's first poll, so
    # targets are *adopted* when the server dies -- and stamps an epoch
    # on the board: polls fail immediately and the TTL releases targets
    # at ~(crash + TTL) = 65ms, with the 120ms outage leaving room for
    # crash-safe re-registration after the restart.
    "server-crash": "server-crash:at=25ms,down=120ms",
    "poll-chaos": (
        "poll-drop:at=5ms,duration=50ms,p=0.9;"
        "poll-delay:at=60ms,duration=30ms,delay=4ms"
    ),
    "message-chaos": (
        "chan-drop:at=0,duration=20ms,p=0.5;"
        "chan-dup:at=20ms,duration=20ms,p=0.5;"
        "clock-jitter:at=5ms,duration=60ms,amp=3ms"
    ),
    "preempt-storm": "preempt-storm:at=5ms,duration=50ms,period=2ms",
}

#: Kernel policies the default campaign crosses the injectors with.
DEFAULT_SCHEDULERS = ("fifo", "decay", "partition")


def shard_injectors(shards: int) -> Dict[str, str]:
    """One shard-targeted crash plan per shard (``server-crash:shard=i``).

    For sharded campaigns: ``run_campaign(injectors=shard_injectors(2),
    shards=2)`` kills exactly one shard per cell and lets the assertion
    machinery verify the *other* region's applications ride through.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    return {
        f"shard{index}-crash": (
            f"server-crash:at=8ms,down=140ms,shard={index}"
        )
        for index in range(shards)
    }

#: Healthy-vs-faulted makespan ratio the campaign tolerates by default.
#: Taking processors away or killing the server for most of a short run
#: legitimately slows it down; what we bound is *graceful* degradation,
#: not zero-cost degradation.
DEFAULT_MAX_INFLATION = 10.0


def chaos_scenario(
    scheduler: str,
    seed: int,
    faults: Optional[str] = None,
    shards: int = 1,
) -> Scenario:
    """The campaign's workload: two controlled apps oversubscribing 8 CPUs.

    Small on purpose (a cell takes well under a second of host time) but
    structurally complete: centralized control, a poll/server interval the
    faults can race with, and enough oversubscription that targets bind.
    *shards* sizes the control plane.
    """
    machine = MachineConfig(
        n_processors=8,
        quantum=units.ms(5),
        context_switch_cost=units.us(50),
        dispatch_latency=units.us(10),
        cache_cold_penalty=units.us(500),
        cache_warmup_time=units.ms(2),
        cache_purge_time=units.ms(4),
    )
    return Scenario(
        apps=[
            AppSpec(
                lambda: UniformApp(
                    "chaos-a",
                    n_tasks=240,
                    task_cost=units.ms(2),
                    jitter=0.2,
                    seed=seed,
                ),
                n_processes=6,
            ),
            AppSpec(
                lambda: UniformApp(
                    "chaos-b",
                    n_tasks=240,
                    task_cost=units.ms(2),
                    jitter=0.2,
                    seed=seed,
                ),
                n_processes=6,
                arrival=units.ms(2),
            ),
        ],
        control="centralized",
        scheduler=scheduler,
        machine=machine,
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        seed=seed,
        max_time=units.seconds(5),
        faults=faults,
        shards=shards,
    )


@dataclass
class ChaosCell:
    """One campaign cell: (injector plan, scheduler, seed) -> outcome."""

    injector: str  # "baseline" for the healthy run
    scheduler: str
    seed: int
    completed: bool
    makespan: int
    sim_time: int
    violations: int
    faults_injected: int
    fault_events: int
    failed_polls: int
    target_expiries: int
    #: makespan / healthy-baseline makespan; 0.0 until the report fills it.
    inflation: float = 0.0


def _chaos_cell(runs: Runs, args) -> ChaosCell:
    """Sweep cell (module-level so it pickles for the process pool)."""
    injector, spec, scheduler, seed, shards = args
    scenario = chaos_scenario(scheduler, seed, faults=spec or None, shards=shards)
    result = run_scenario(scenario, sanitize=runs.sanitize)
    completed = all(
        package.finished_at is not None and package.finished_at >= 0
        for package in result.apps.values()
    ) and result.sim_time < scenario.max_time
    return ChaosCell(
        injector=injector,
        scheduler=scheduler,
        seed=seed,
        completed=completed,
        makespan=result.makespan if completed else scenario.max_time,
        sim_time=result.sim_time,
        violations=result.sanitizer_violations,
        faults_injected=result.faults_injected,
        fault_events=len(result.fault_events),
        failed_polls=sum(app.failed_polls for app in result.apps.values()),
        target_expiries=sum(
            app.target_expiries for app in result.apps.values()
        ),
    )


@dataclass
class ChaosReport:
    """Everything a campaign run produced, reduced for assertion/printing."""

    cells: List[ChaosCell]
    baselines: Dict[Tuple[str, int], int]  # (scheduler, seed) -> makespan
    injectors: Dict[str, str]
    schedulers: Tuple[str, ...]
    seeds: Tuple[int, ...]
    sanitize: str = "record"
    failures: List[str] = field(default_factory=list)

    @property
    def total_violations(self) -> int:
        return sum(cell.violations for cell in self.cells)

    @property
    def deadlocks(self) -> int:
        return sum(1 for cell in self.cells if not cell.completed)

    @property
    def max_inflation(self) -> float:
        return max((cell.inflation for cell in self.cells), default=0.0)

    def check(self, max_inflation: float = DEFAULT_MAX_INFLATION) -> List[str]:
        """All acceptance failures (empty list = clean campaign)."""
        failures: List[str] = []
        for cell in self.cells:
            where = f"{cell.injector}/{cell.scheduler}/seed={cell.seed}"
            if not cell.completed:
                failures.append(f"deadlock: {where} missed the time cap")
            if cell.violations:
                failures.append(
                    f"invariants: {where} logged {cell.violations} violations"
                )
            if cell.inflation > max_inflation:
                failures.append(
                    f"inflation: {where} ran {cell.inflation:.2f}x the "
                    f"healthy baseline (cap {max_inflation:.2f}x)"
                )
        return failures

    def assert_clean(
        self, max_inflation: float = DEFAULT_MAX_INFLATION
    ) -> None:
        """Raise AssertionError listing every acceptance failure."""
        failures = self.check(max_inflation)
        if failures:
            raise AssertionError(
                "chaos campaign failed:\n  " + "\n  ".join(failures)
            )

    def format_report(self) -> str:
        """Deterministic text report (byte-identical across reruns)."""
        lines = [
            "ChaosCampaign: "
            f"{len(self.injectors)} injector plans x "
            f"{len(self.schedulers)} schedulers x {len(self.seeds)} seeds "
            f"(sanitize={self.sanitize})",
            "",
            f"{'injector':<14} {'scheduler':<10} {'seed':>4} "
            f"{'makespan_us':>12} {'inflation':>9} {'viol':>4} "
            f"{'events':>6} {'expiries':>8} {'ok':>3}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.injector:<14} {cell.scheduler:<10} {cell.seed:>4} "
                f"{cell.makespan:>12} {cell.inflation:>9.3f} "
                f"{cell.violations:>4} {cell.fault_events:>6} "
                f"{cell.target_expiries:>8} "
                f"{'yes' if cell.completed else 'NO':>3}"
            )
        lines.append("")
        lines.append(
            f"violations={self.total_violations} deadlocks={self.deadlocks} "
            f"max_inflation={self.max_inflation:.3f}"
        )
        failures = self.check()
        if failures:
            lines.append("FAILURES:")
            lines.extend(f"  {failure}" for failure in failures)
        else:
            lines.append("clean")
        return "\n".join(lines)


def run_campaign(
    injectors: Optional[Dict[str, str]] = None,
    schedulers: Sequence[str] = DEFAULT_SCHEDULERS,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    runs: Runs = Runs(),
    shards: int = 1,
) -> ChaosReport:
    """Run the full sweep: baselines + every injector plan per cell.

    The campaign always runs checked: in ``"record"`` mode unless *runs*
    sets one.  *shards* sizes every cell's control plane; the fault plans
    then hit every shard.
    """
    if injectors is None:
        injectors = dict(DEFAULT_INJECTORS)
    runs = replace(runs, sanitize=runs.sanitize or "record")
    schedulers = tuple(schedulers)
    seeds = tuple(seeds)

    cells_args = []
    for scheduler in schedulers:
        for seed in seeds:
            cells_args.append(("baseline", "", scheduler, seed, shards))
            for name, spec in injectors.items():
                cells_args.append((name, spec, scheduler, seed, shards))
    cells: List[ChaosCell] = runs.map(_chaos_cell, cells_args)

    baselines: Dict[Tuple[str, int], int] = {
        (cell.scheduler, cell.seed): cell.makespan
        for cell in cells
        if cell.injector == "baseline"
    }
    for cell in cells:
        base = baselines.get((cell.scheduler, cell.seed), 0)
        cell.inflation = cell.makespan / base if base else 0.0
    return ChaosReport(
        cells=cells,
        baselines=baselines,
        injectors=injectors,
        schedulers=schedulers,
        seeds=seeds,
        sanitize=runs.sanitize,
    )


def main(preset: str = "quick", runs: Runs = Runs()) -> None:  # pragma: no cover
    """CLI entry (``python -m repro.experiments chaos``): run + assert."""
    seeds = (0, 1, 2) if preset == "quick" else (0, 1, 2, 3, 4)
    report = run_campaign(seeds=seeds, runs=runs)
    print(report.format_report())
    report.assert_clean()
