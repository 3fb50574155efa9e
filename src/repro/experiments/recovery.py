"""Recovery sweep: supervised vs TTL-only control-plane failure handling.

The self-healing claim is quantitative: a watchdog that restarts (and
eventually fails over) dead control-server shards should beat the passive
fallback -- the threads package's stale-target TTL releasing every
orphaned application to full parallelism -- because released applications
oversubscribe the machine for the rest of the run, which is precisely the
Section 2 waste the control plane exists to prevent.

This experiment injects three failure patterns into a lock-heavy
workload (two 6-worker applications with a 15% critical-section
fraction on 8 processors, 2-shard control plane) and runs each one
twice -- supervised and unsupervised -- against a healthy baseline,
reporting:

* **inflation** -- makespan over the healthy baseline's (the acceptance
  metric: the supervised arm must be at or below the unsupervised arm in
  every cell);
* **time-to-reconverge** -- from the first injected crash until every
  application has re-adopted a fresh server target (``-`` = never, the
  unsupervised degraded mode);
* **idle-poll waste** -- the busy-wait share of machine capacity, which
  balloons when TTL release hands workers back to an overloaded machine;
* watchdog action counters (restarts, failovers, expiries).

Failure patterns:

* ``shard-dead`` -- one shard silently dies and never comes back: the
  watchdog restart path, vs TTL release of half the applications.
* ``shard-flap`` -- the same shard is re-killed every 20 ms: the restart
  budget (3 attempts) drains and the watchdog *fails over* the shard's
  region and applications to the survivor.
* ``total-outage`` -- every shard dies at once: supervised runs restart
  the whole plane; unsupervised runs degrade to full parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.waste import waste_breakdown
from repro.apps.synthetic import UniformApp
from repro.experiments.parallel import Runs
from repro.machine import MachineConfig
from repro.metrics import format_table
from repro.sim import TraceLog, units
from repro.workloads import AppSpec, Scenario, run_scenario

#: Failure patterns swept by the recovery experiment (fault-plan specs
#: against a 2-shard plane; see :mod:`repro.faults.plan` for the grammar).
RECOVERY_PATTERNS: Dict[str, str] = {
    # Crashes land at >= 25ms so every application has adopted a target
    # first: the unsupervised arm then walks the full degradation path
    # (failed polls -> TTL expiry -> full parallelism).
    "shard-dead": "server-crash:shard=1,at=25ms",
    "shard-flap": (
        "server-crash:shard=1,at=25ms;"
        "server-crash:shard=1,at=45ms;"
        "server-crash:shard=1,at=65ms;"
        "server-crash:shard=1,at=85ms"
    ),
    "total-outage": "server-crash:at=25ms",
}

#: Shard count every cell runs with (patterns name shard 1, so >= 2).
RECOVERY_SHARDS = 2

#: Fraction of each task spent inside a spinlock.  This is what makes the
#: sweep decisive: with pure compute, TTL release to full parallelism is
#: nearly free (the machine stays busy either way), but with critical
#: sections the preempted-lock-holder waste of Section 2 makes the
#: uncontrolled 12-on-8 oversubscription measurably slower than the
#: equipartition a restarted server restores (~1.25x at this fraction).
RECOVERY_CRITICAL_FRACTION = 0.15


def recovery_scenario(seed: int) -> Scenario:
    """The sweep's workload: two lock-heavy apps oversubscribing 8 CPUs.

    The same shape as :func:`repro.faults.campaign.chaos_scenario` (two
    6-worker applications, 10ms intervals, 2-shard plane) but with a
    critical-section fraction so losing control has a real cost.
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
                    "recovery-a",
                    n_tasks=240,
                    task_cost=units.ms(2),
                    critical_fraction=RECOVERY_CRITICAL_FRACTION,
                    jitter=0.2,
                    seed=seed,
                ),
                n_processes=6,
            ),
            AppSpec(
                lambda: UniformApp(
                    "recovery-b",
                    n_tasks=240,
                    task_cost=units.ms(2),
                    critical_fraction=RECOVERY_CRITICAL_FRACTION,
                    jitter=0.2,
                    seed=seed,
                ),
                n_processes=6,
                arrival=units.ms(2),
            ),
        ],
        control="centralized",
        scheduler="fifo",
        machine=machine,
        server_interval=units.ms(10),
        poll_interval=units.ms(10),
        seed=seed,
        max_time=units.seconds(5),
        shards=RECOVERY_SHARDS,
    )


@dataclass
class RecoveryCell:
    """One (pattern, arm, seed) outcome."""

    pattern: str  # "baseline" for the healthy run
    supervised: bool
    seed: int
    completed: bool
    makespan: int
    violations: int
    #: us from the first injected crash to the last application's first
    #: fresh re-poll; None = some application never reconverged.
    reconverge: Optional[int]
    failed_polls: int
    target_expiries: int
    restarts: int
    failovers: int
    idle_poll_pct: float
    #: makespan / healthy-baseline makespan; 0.0 until the report fills it.
    inflation: float = 0.0


def _reconverge_time(result) -> Optional[int]:
    """us from the first applied crash until every app re-polled fresh."""
    crashes = [
        time
        for time, kind, details in result.fault_events
        if kind == "server_crash" and details.get("applied")
    ]
    if not crashes:
        return None
    first_crash = min(crashes)
    latest: Dict[str, int] = {}
    for record in result.trace.records("pc.poll"):
        app_id = record.data["app_id"]
        if record.time >= first_crash and app_id not in latest:
            latest[app_id] = record.time
    if set(latest) != set(result.apps):
        return None
    return max(latest.values()) - first_crash


def _recovery_cell(runs: Runs, args) -> RecoveryCell:
    """Sweep cell (module-level so it pickles for the process pool)."""
    pattern, spec, supervised, seed = args
    scenario = recovery_scenario(seed).with_(
        supervise=supervised, faults=spec or None
    )
    result = run_scenario(
        scenario,
        trace=TraceLog(categories=("pc.poll",)),
        sanitize=runs.sanitize,
    )
    completed = all(
        app.finished_at is not None and app.finished_at >= 0
        for app in result.apps.values()
    ) and result.sim_time < scenario.max_time
    counters = result.watchdog_counters or {}
    return RecoveryCell(
        pattern=pattern,
        supervised=supervised,
        seed=seed,
        completed=completed,
        makespan=result.makespan if completed else scenario.max_time,
        violations=result.sanitizer_violations,
        reconverge=_reconverge_time(result) if spec else None,
        failed_polls=sum(app.failed_polls for app in result.apps.values()),
        target_expiries=sum(
            app.target_expiries for app in result.apps.values()
        ),
        restarts=counters.get("restarts", 0),
        failovers=counters.get("failovers", 0),
        idle_poll_pct=waste_breakdown(result).as_percentages()["idle_poll"],
    )


@dataclass
class RecoveryReport:
    """The sweep's cells plus the acceptance logic."""

    cells: List[RecoveryCell]
    baselines: Dict[int, int]  # seed -> healthy makespan
    patterns: Dict[str, str]
    seeds: Tuple[int, ...]
    sanitize: str = "record"
    failures: List[str] = field(default_factory=list)

    def cell(
        self, pattern: str, supervised: bool, seed: int
    ) -> Optional[RecoveryCell]:
        for cell in self.cells:
            if (
                cell.pattern == pattern
                and cell.supervised == supervised
                and cell.seed == seed
            ):
                return cell
        return None

    @property
    def total_violations(self) -> int:
        return sum(cell.violations for cell in self.cells)

    @property
    def deadlocks(self) -> int:
        return sum(1 for cell in self.cells if not cell.completed)

    def check(self) -> List[str]:
        """All acceptance failures (empty list = clean sweep)."""
        failures: List[str] = []
        for cell in self.cells:
            arm = "supervised" if cell.supervised else "unsupervised"
            where = f"{cell.pattern}/{arm}/seed={cell.seed}"
            if not cell.completed:
                failures.append(f"deadlock: {where} missed the time cap")
            if cell.violations:
                failures.append(
                    f"invariants: {where} logged {cell.violations} violations"
                )
        for pattern in self.patterns:
            for seed in self.seeds:
                sup = self.cell(pattern, True, seed)
                unsup = self.cell(pattern, False, seed)
                if sup is None or unsup is None:
                    continue
                if sup.inflation > unsup.inflation:
                    failures.append(
                        f"recovery: {pattern}/seed={seed} supervised "
                        f"inflation {sup.inflation:.3f}x exceeds the "
                        f"unsupervised {unsup.inflation:.3f}x"
                    )
        return failures

    def assert_clean(self) -> None:
        """Raise AssertionError listing every acceptance failure."""
        failures = self.check()
        if failures:
            raise AssertionError(
                "recovery sweep failed:\n  " + "\n  ".join(failures)
            )

    def format_report(self) -> str:
        """Deterministic text report (byte-identical across reruns)."""
        headers = [
            "pattern",
            "arm",
            "seed",
            "makespan_us",
            "inflation",
            "reconverge_us",
            "expiries",
            "restarts",
            "failovers",
            "idle_poll%",
            "ok",
        ]
        rows = []
        for cell in self.cells:
            rows.append(
                [
                    cell.pattern,
                    "supervised" if cell.supervised else "ttl-only",
                    cell.seed,
                    cell.makespan,
                    f"{cell.inflation:.3f}",
                    cell.reconverge if cell.reconverge is not None else "-",
                    cell.target_expiries,
                    cell.restarts,
                    cell.failovers,
                    f"{cell.idle_poll_pct:.2f}",
                    "yes" if cell.completed else "NO",
                ]
            )
        lines = [
            "Recovery sweep: supervised watchdog vs TTL-only degradation "
            f"({len(self.patterns)} failure patterns x {len(self.seeds)} "
            f"seeds, shards={RECOVERY_SHARDS}, sanitize={self.sanitize})",
            format_table(headers, rows),
            "",
            f"violations={self.total_violations} deadlocks={self.deadlocks}",
        ]
        failures = self.check()
        if failures:
            lines.append("FAILURES:")
            lines.extend(f"  {failure}" for failure in failures)
        else:
            lines.append("clean: supervision beat TTL-only in every cell")
        return "\n".join(lines)


def run_recovery(
    preset: str = "quick",
    seeds: Optional[Tuple[int, ...]] = None,
    runs: Runs = Runs(),
    patterns: Optional[Dict[str, str]] = None,
) -> RecoveryReport:
    """Run the sweep: healthy baselines + each pattern, both arms.

    The sweep always runs checked: in ``"record"`` mode unless *runs*
    sets one.
    """
    if seeds is None:
        seeds = (0, 1, 2) if preset == "quick" else (0, 1, 2, 3, 4)
    if patterns is None:
        patterns = dict(RECOVERY_PATTERNS)
    runs = replace(runs, sanitize=runs.sanitize or "record")
    seeds = tuple(seeds)

    cells_args = []
    for seed in seeds:
        cells_args.append(("baseline", "", False, seed))
    for pattern, spec in patterns.items():
        for supervised in (False, True):
            for seed in seeds:
                cells_args.append((pattern, spec, supervised, seed))
    cells: List[RecoveryCell] = runs.map(_recovery_cell, cells_args)

    baselines: Dict[int, int] = {
        cell.seed: cell.makespan
        for cell in cells
        if cell.pattern == "baseline"
    }
    for cell in cells:
        base = baselines.get(cell.seed, 0)
        cell.inflation = cell.makespan / base if base else 0.0
    return RecoveryReport(
        cells=cells,
        baselines=baselines,
        patterns=patterns,
        seeds=seeds,
        sanitize=runs.sanitize,
    )


def main(preset: str = "quick", runs: Runs = Runs()) -> None:  # pragma: no cover
    """CLI entry (``python -m repro.experiments recovery``): run + assert."""
    report = run_recovery(preset, runs=runs)
    print(report.format_report())
    report.assert_clean()
