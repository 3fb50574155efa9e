"""The one catalog runner.

``run_case`` executes a single :class:`~repro.scenarios.spec.ScenarioCase`
and checks its declared invariants; ``run_catalog`` fans a case list out
over the parallel sweep harness (:meth:`repro.experiments.parallel.
Runs.map`).  The pytest parametrization, the ``python -m repro
scenarios`` CLI, and the CI ``scenario-corpus`` job all execute corpus
entries through these two functions -- one construction path, one
checking path, three front ends.

Digest pins live in a :class:`~repro.scenarios.golden.GoldenStore`
(``tests/golden/scenario_digests.json`` in a source checkout) and are
compared post-hoc in the parent process, so the parallel path never
touches the store concurrently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from repro.experiments.parallel import Runs
from repro.scenarios.golden import GoldenStore
from repro.scenarios.spec import ScenarioCase
from repro.sim import TraceLog, dispatch_digest
from repro.workloads.runner import run_scenario

#: Where a source checkout keeps the corpus digest pins (runner.py sits at
#: src/repro/scenarios/, three levels below the repo root).
DEFAULT_GOLDEN_PATH = (
    Path(__file__).resolve().parents[3] / "tests" / "golden" / "scenario_digests.json"
)

#: The command that regenerates the corpus pins.
GOLDEN_REGEN_HINT = (
    "PYTHONPATH=src python -m pytest tests/test_scenarios_catalog.py -q"
)


def open_golden_store(path: Optional[Path] = None) -> GoldenStore:
    """The corpus digest store (shared by tests, CLI, and CI)."""
    return GoldenStore(path or DEFAULT_GOLDEN_PATH, GOLDEN_REGEN_HINT)


@dataclass
class CaseOutcome:
    """Plain-data result of one corpus case (picklable for the sweep)."""

    name: str
    family: str
    violations: List[str] = field(default_factory=list)
    completed: bool = False
    makespan: int = 0
    sim_time: int = 0
    events_fired: int = 0
    tasks_completed: int = 0
    suspensions: int = 0
    target_expiries: int = 0
    sanitizer_violations: int = 0
    faults_injected: int = 0
    #: Service-workload figures (zero / None when no app carries an
    #: open-arrival request stream).  The percentile and violation-rate
    #: figures are worst-per-app, matching the band semantics.
    requests_completed: int = 0
    p99_us: Optional[int] = None
    violation_rate: Optional[float] = None
    #: Runtime-compliance figures (all zero when no runtime ever adopted
    #: a target).  ``adoption_lag_max_us`` is worst-per-app, matching the
    #: band semantics.
    adoptions: int = 0
    adoption_lag_max_us: int = 0
    #: Lock-restriction census: total waiters culled across every lock
    #: (zero when no lock has an admission limit).
    passivations: int = 0
    #: Dispatch digest (collected only for digest-pinned cases).
    digest: Optional[str] = None
    #: Fault-free twin makespan and the resulting inflation factor
    #: (``None`` unless the case declares ``max_inflation``).
    baseline_makespan: Optional[int] = None
    inflation: Optional[float] = None
    wall_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def run_case(
    case: ScenarioCase,
    sanitize: Optional[str] = None,
    collect_digest: bool = True,
) -> CaseOutcome:
    """Execute one case and check every declared invariant.

    *sanitize* is the sanitizer mode (``None``: off).  Never raises for an
    expectation failure -- failures are returned in ``outcome.violations``
    so corpus sweeps always report per-case.
    """
    expect = case.expect
    scenario = case.scenario
    want_digest = collect_digest and expect.pin_digest
    trace = TraceLog(categories=("kernel.dispatch",)) if want_digest else None
    started = time.perf_counter()
    result = run_scenario(scenario, trace=trace, sanitize=sanitize)
    outcome = CaseOutcome(name=case.name, family=case.family)
    outcome.sim_time = result.sim_time
    outcome.events_fired = result.events_fired
    outcome.sanitizer_violations = result.sanitizer_violations
    outcome.faults_injected = result.faults_injected
    outcome.tasks_completed = sum(
        app.tasks_completed for app in result.apps.values()
    )
    outcome.suspensions = sum(app.suspensions for app in result.apps.values())
    outcome.target_expiries = sum(
        app.target_expiries for app in result.apps.values()
    )
    outcome.adoptions = sum(app.adoptions for app in result.apps.values())
    outcome.passivations = sum(
        stats.passivations for stats in result.locks.values()
    )
    outcome.adoption_lag_max_us = max(
        (app.adoption_lag_max for app in result.apps.values()), default=0
    )
    if result.service:
        stats = list(result.service.values())
        outcome.requests_completed = sum(s.count for s in stats)
        outcome.p99_us = max(s.p99 for s in stats)
        outcome.violation_rate = max(s.violation_rate for s in stats)
    outcome.completed = (
        all(app.finished_at is not None for app in result.apps.values())
        and result.sim_time < scenario.max_time
    )
    if not outcome.completed:
        outcome.violations.append(
            "deadlock: at least one application missed the time cap "
            f"({scenario.max_time} us)"
        )
        outcome.makespan = scenario.max_time
    else:
        outcome.makespan = result.makespan

    if want_digest:
        outcome.digest = dispatch_digest(trace)

    if expect.sanitizer_clean and result.sanitizer_violations:
        outcome.violations.append(
            f"sanitizer: {result.sanitizer_violations} invariant violation(s)"
        )
    if expect.require_all_tasks and outcome.completed:
        for app_id, expected in case.expected_census().items():
            done = result.apps[app_id].tasks_completed
            if expected is not None and done != expected:
                outcome.violations.append(
                    f"census: {app_id} completed {done}/{expected} tasks"
                )
            elif expected is None and done < 1:
                outcome.violations.append(
                    f"census: {app_id} completed no tasks"
                )
    if outcome.suspensions < expect.min_total_suspensions:
        outcome.violations.append(
            f"control never engaged: {outcome.suspensions} suspension(s), "
            f"expected >= {expect.min_total_suspensions}"
        )
    if expect.max_makespan is not None and outcome.makespan > expect.max_makespan:
        outcome.violations.append(
            f"latency band: makespan {outcome.makespan} us > "
            f"bound {expect.max_makespan} us"
        )
    if (
        expect.max_target_expiries is not None
        and outcome.target_expiries > expect.max_target_expiries
    ):
        outcome.violations.append(
            f"target expiries {outcome.target_expiries} > "
            f"bound {expect.max_target_expiries}"
        )
    if outcome.target_expiries < expect.min_target_expiries:
        outcome.violations.append(
            f"TTL release never engaged: {outcome.target_expiries} "
            f"expiries, expected >= {expect.min_target_expiries}"
        )
    if outcome.requests_completed < expect.min_requests:
        outcome.violations.append(
            f"request census: {outcome.requests_completed} completed, "
            f"expected >= {expect.min_requests}"
        )
    if (
        expect.max_p99 is not None
        and (outcome.p99_us is None or outcome.p99_us > expect.max_p99)
    ):
        outcome.violations.append(
            f"latency band: p99 {outcome.p99_us} us > bound "
            f"{expect.max_p99} us"
        )
    if (
        expect.max_violation_rate is not None
        and (
            outcome.violation_rate is None
            or outcome.violation_rate > expect.max_violation_rate
        )
    ):
        outcome.violations.append(
            f"SLO band: violation rate {outcome.violation_rate} > bound "
            f"{expect.max_violation_rate}"
        )

    if outcome.adoptions < expect.min_adoptions:
        outcome.violations.append(
            f"adoption census: {outcome.adoptions} completed adoption(s), "
            f"expected >= {expect.min_adoptions}"
        )
    if (
        expect.max_adoption_lag is not None
        and outcome.adoption_lag_max_us > expect.max_adoption_lag
    ):
        outcome.violations.append(
            f"adoption-lag band: {outcome.adoption_lag_max_us} us > "
            f"bound {expect.max_adoption_lag} us"
        )
    if outcome.passivations < expect.min_passivations:
        outcome.violations.append(
            f"restriction never engaged: {outcome.passivations} "
            f"passivation(s), expected >= {expect.min_passivations}"
        )

    if expect.max_inflation is not None and outcome.completed:
        baseline = run_scenario(scenario.with_(faults=None))
        outcome.baseline_makespan = baseline.makespan
        outcome.inflation = outcome.makespan / max(baseline.makespan, 1)
        if outcome.inflation > expect.max_inflation:
            outcome.violations.append(
                f"inflation band: {outcome.inflation:.2f}x over the "
                f"fault-free twin > bound {expect.max_inflation:.2f}x"
            )

    outcome.wall_ms = (time.perf_counter() - started) * 1000.0
    return outcome


def _sweep_cell(runs: Runs, case: ScenarioCase) -> CaseOutcome:
    """Module-level cell for the process-pool path (must be picklable)."""
    return run_case(case, sanitize=runs.sanitize)


def apply_golden(
    outcomes: Sequence[CaseOutcome], store: GoldenStore
) -> None:
    """Check (or, under ``REPRO_UPDATE_GOLDEN``, record) digest pins.

    Runs in the parent process after a sweep, appending any divergence to
    the outcome's violation list with the shared golden-mismatch message.
    """
    for outcome in outcomes:
        if outcome.digest is None:
            continue
        message = store.compare(
            outcome.name,
            {"dispatch_digest": outcome.digest, "sim_time": outcome.sim_time},
        )
        if message:
            outcome.violations.append(message)
    store.save()


@dataclass
class CatalogReport:
    """Aggregate of one corpus sweep."""

    outcomes: List[CaseOutcome]

    @property
    def failed(self) -> List[CaseOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    @property
    def ok(self) -> bool:
        return not self.failed

    def format_report(self, verbose: bool = False) -> str:
        lines = []
        families = sorted({o.family for o in self.outcomes})
        for family in families:
            members = [o for o in self.outcomes if o.family == family]
            bad = sum(1 for o in members if not o.ok)
            lines.append(
                f"{family:<10} {len(members) - bad:3d}/{len(members):<3d} ok"
                + (f"  ({bad} FAILED)" if bad else "")
            )
        for outcome in self.outcomes:
            if verbose or not outcome.ok:
                status = "ok" if outcome.ok else "FAIL"
                lines.append(
                    f"  [{status}] {outcome.name}: makespan={outcome.makespan}us "
                    f"events={outcome.events_fired} "
                    f"suspensions={outcome.suspensions} "
                    f"wall={outcome.wall_ms:.0f}ms"
                )
                for violation in outcome.violations:
                    lines.append(f"      - {violation}")
        total_bad = len(self.failed)
        lines.append(
            f"total: {len(self.outcomes) - total_bad}/{len(self.outcomes)} cases ok"
        )
        return "\n".join(lines)

    def assert_clean(self) -> None:
        if not self.ok:
            raise AssertionError(
                f"{len(self.failed)} corpus case(s) failed:\n"
                + self.format_report()
            )


def run_catalog(
    cases: Sequence[ScenarioCase],
    runs: Runs = Runs(),
    golden: Optional[GoldenStore] = None,
    check_digests: bool = True,
) -> CatalogReport:
    """Run a case list through the parallel sweep harness.

    Cases are pure data and outcomes are plain dataclasses, so the fan-out
    is bit-identical to the serial loop (``Runs(jobs=1)``).  Digest pins are
    checked afterwards in the parent against *golden* (the default store
    when ``None``); pass ``check_digests=False`` to skip pin checking
    entirely (e.g. in an installed-package environment with no tests/
    directory).
    """
    outcomes = runs.map(_sweep_cell, cases)
    if check_digests:
        apply_golden(outcomes, golden or open_golden_store())
    return CatalogReport(outcomes=list(outcomes))
