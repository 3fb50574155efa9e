"""Declarative scenario-case records.

A :class:`ScenarioCase` is pure data: machine shape, application list,
scheduler x policy x shards x faults coordinates, a seed, and the
**expected invariants** (:class:`Expect`) the run must satisfy.  Cases
round-trip through plain dicts (and YAML when available), so growing the
corpus is an edit to data, not new code -- the pattern Libre-SOC uses for
its ISA test catalogs.

The executable form is :meth:`ScenarioCase.to_scenario`, which builds the
same :class:`~repro.workloads.scenario.Scenario` object every experiment
harness uses, via the shared builders in
:mod:`repro.scenarios.builders`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.core.allocation import POLICY_NAMES
from repro.faults.plan import parse_spec as parse_fault_spec
from repro.scenarios import builders
from repro.sim import units
from repro.threads import RUNTIME_NAMES
from repro.workloads.scenario import INHERIT_CONTROL, AppSpec, Scenario
from repro.workloads.schedulers import SCHEDULER_NAMES
from repro.workloads.service import SERVICE_TIERS

#: Families a case may belong to (used by filters and coverage reports).
FAMILIES = (
    "cross",
    "overload",
    "bursty",
    "gang",
    "hotplug",
    "failover",
    "storm",
    "service",
    "runtime",
    "locks",
    "fuzz",
)


@dataclass(frozen=True)
class CaseApp:
    """One application of a case, described as data.

    ``template`` names an entry of the shared registry
    (:data:`repro.scenarios.builders.TEMPLATE_NAMES`); ``n_tasks`` /
    ``task_cost`` parametrize the synthetic templates, ``scale`` the paper
    applications.  ``control`` follows the :class:`AppSpec` convention
    (``"inherit"`` / ``"off"`` / explicit mode).  ``runtime`` picks the
    threads-package runtime the application runs on
    (:data:`repro.threads.RUNTIME_NAMES`; the ``pipeline`` runtime needs
    a stage-declaring template like ``"pipeline"``).

    The ``service`` template reads the open-arrival fields instead:
    ``rate_per_s`` / ``n_requests`` parametrize the seeded arrival stream
    (``burst_factor`` switches it to the two-rate bursty wave),
    ``fanout`` / ``task_cost`` shape the per-request DAG (``task_cost``
    doubles as the stage cost), and ``slo_us`` / ``tier`` feed the
    latency objective the SLO-aware policy steers toward.

    The ``locks`` template reads the contention fields: ``task_cost``
    doubles as the per-iteration think time, ``cs_cost`` is the
    critical-section length, ``contention_penalty`` the per-spinner
    hand-off surcharge, ``admission`` the lock's concurrency-restriction
    limit, and ``blocking`` switches the shared lock from a spinlock to
    a mutex.  Other templates ignore these fields.
    """

    template: str
    n_processes: int
    arrival: int = 0
    name: Optional[str] = None
    n_tasks: Optional[int] = None
    task_cost: Optional[int] = None
    scale: Optional[float] = None
    control: str = INHERIT_CONTROL
    runtime: str = "taskqueue"
    rate_per_s: Optional[float] = None
    n_requests: Optional[int] = None
    fanout: Optional[int] = None
    slo_us: Optional[int] = None
    tier: Optional[str] = None
    burst_factor: Optional[float] = None
    cs_cost: Optional[int] = None
    contention_penalty: Optional[int] = None
    admission: Optional[int] = None
    blocking: bool = False

    def app_id(self, index: int) -> str:
        return self.name or f"{self.template}{index}"


@dataclass(frozen=True)
class Expect:
    """Expected invariants of one case.

    Attributes:
        sanitizer_clean: the run must produce zero sanitizer violations
            (checked whenever a sanitizer is attached).
        require_all_tasks: every application with a knowable task count
            must complete exactly that many tasks (the census band).
        pin_digest: the dispatch digest is pinned in the golden store;
            any drift fails the case (fault-free deterministic cases only).
        max_makespan: absolute latency band, in microseconds.
        max_inflation: for fault cases -- makespan may exceed the
            fault-free twin's by at most this factor (the bounded-inflation
            band the chaos campaign uses).
        min_total_suspensions: across all applications, at least this many
            process-control suspensions must have happened (a control-is-
            actually-engaging census check for overload cases).
        max_target_expiries: bound on stale-target TTL expiries (``None``
            = unchecked; 0 pins the healthy world).
        min_target_expiries: at least this many TTL expiries must have
            happened (server-crash cases use it to prove the degraded
            full-parallelism release path actually ran).
        min_requests: at least this many service requests must complete
            (the open-arrival census band; 0 = unchecked).
        max_p99: worst per-app p99 request latency band, microseconds
            (``None`` = unchecked; only meaningful for service cases).
        max_violation_rate: worst per-app SLO-violation-rate band, in
            [0, 1] (``None`` = unchecked).
        min_adoptions: across all applications, at least this many
            completed target adoptions (publish-to-conformance cycles)
            must have been recorded -- the runtime family's proof that
            deferred adoption actually engaged.
        max_adoption_lag: worst per-app adoption lag band, microseconds
            (``None`` = unchecked).  A fork-join runtime's lag is bounded
            by its phase length; the band pins that contract as data.
        min_passivations: across all locks, at least this many waiters
            must have been culled into a passivated set (the locks
            family's proof that concurrency restriction actually
            engaged, not just that the knob was set).
    """

    sanitizer_clean: bool = True
    require_all_tasks: bool = True
    pin_digest: bool = False
    max_makespan: Optional[int] = None
    max_inflation: Optional[float] = None
    min_total_suspensions: int = 0
    max_target_expiries: Optional[int] = None
    min_target_expiries: int = 0
    min_requests: int = 0
    max_p99: Optional[int] = None
    max_violation_rate: Optional[float] = None
    min_adoptions: int = 0
    max_adoption_lag: Optional[int] = None
    min_passivations: int = 0


@dataclass(frozen=True)
class ScenarioCase:
    """One corpus entry: coordinates + workload + expectations."""

    name: str
    family: str
    apps: Tuple[CaseApp, ...]
    n_processors: int = 8
    quantum: int = field(default_factory=lambda: units.ms(10))
    scheduler: str = "fifo"
    policy: Optional[str] = None
    shards: int = 1
    control: Optional[str] = "centralized"
    lock_admission: Optional[int] = None
    faults: Optional[str] = None
    supervise: bool = False
    server_interval: int = field(default_factory=lambda: units.ms(40))
    poll_interval: int = field(default_factory=lambda: units.ms(40))
    seed: int = 0
    max_time: int = field(default_factory=lambda: units.seconds(600))
    idle_spin: bool = True
    expect: Expect = field(default_factory=Expect)
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError(f"case {self.name!r} has no applications")
        if self.family not in FAMILIES:
            raise ValueError(
                f"case {self.name!r}: unknown family {self.family!r}; "
                f"expected one of {FAMILIES}"
            )
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"case {self.name!r}: unknown scheduler {self.scheduler!r}"
            )
        if self.policy is not None and self.policy not in POLICY_NAMES + ("space",):
            raise ValueError(
                f"case {self.name!r}: unknown policy {self.policy!r}"
            )
        if self.shards < 1:
            raise ValueError(f"case {self.name!r}: shards must be >= 1")
        for app in self.apps:
            if app.template not in builders.TEMPLATE_NAMES:
                raise ValueError(
                    f"case {self.name!r}: unknown template {app.template!r}"
                )
            if app.tier is not None and app.tier not in SERVICE_TIERS:
                raise ValueError(
                    f"case {self.name!r}: unknown service tier {app.tier!r}; "
                    f"expected one of {SERVICE_TIERS}"
                )
            if app.runtime not in RUNTIME_NAMES:
                raise ValueError(
                    f"case {self.name!r}: unknown runtime {app.runtime!r}; "
                    f"expected one of {RUNTIME_NAMES}"
                )
            if app.admission is not None and app.admission < 1:
                raise ValueError(
                    f"case {self.name!r}: admission must be >= 1"
                )
        if self.lock_admission is not None and self.lock_admission < 1:
            raise ValueError(
                f"case {self.name!r}: lock_admission must be >= 1"
            )
        if self.faults:
            # Validate the plan grammar eagerly: a corpus entry with a typo
            # must fail at catalog-build time, not silently run fault-free.
            parse_fault_spec(self.faults)

    # -- derived coordinates ------------------------------------------------

    @property
    def fault_kinds(self) -> Tuple[str, ...]:
        """Injector kinds named by the fault spec (empty when healthy)."""
        if not self.faults:
            return ()
        kinds = []
        for item in self.faults.split(";"):
            item = item.strip()
            if item:
                kinds.append(item.partition(":")[0].strip())
        return tuple(kinds)

    @property
    def policy_label(self) -> str:
        """Printable policy coordinate (``"default"`` for ``None``)."""
        return self.policy or "default"

    def expected_census(self) -> Dict[str, Optional[int]]:
        """app_id -> knowable completed-task count (None = unknowable)."""
        return {
            app.app_id(index): builders.expected_tasks(
                app.template,
                app.n_tasks,
                n_requests=app.n_requests,
                fanout=app.fanout,
            )
            for index, app in enumerate(self.apps)
        }

    # -- execution ----------------------------------------------------------

    def to_scenario(self) -> Scenario:
        """Build the executable :class:`Scenario` for this case."""
        specs: List[AppSpec] = []
        for index, app in enumerate(self.apps):
            app_id = app.app_id(index)
            specs.append(
                AppSpec(
                    factory=builders.make_app_factory(
                        app.template,
                        app_id,
                        n_tasks=app.n_tasks,
                        task_cost=app.task_cost,
                        scale=app.scale,
                        seed=self.seed + index,
                        rate_per_s=app.rate_per_s,
                        n_requests=app.n_requests,
                        fanout=app.fanout,
                        slo_us=app.slo_us,
                        tier=app.tier,
                        burst_factor=app.burst_factor,
                        cs_cost=app.cs_cost,
                        contention_penalty=app.contention_penalty,
                        admission=app.admission,
                        blocking=app.blocking,
                    ),
                    n_processes=app.n_processes,
                    arrival=app.arrival,
                    control=app.control,
                    runtime=app.runtime,
                    app_id=app_id,
                )
            )
        return Scenario(
            apps=specs,
            control=self.control,
            lock_admission=self.lock_admission,
            scheduler=self.scheduler,
            machine=builders.small_machine(
                self.n_processors, quantum=self.quantum
            ),
            server_interval=self.server_interval,
            poll_interval=self.poll_interval,
            policy=self.policy,
            shards=self.shards,
            seed=self.seed,
            max_time=self.max_time,
            idle_spin=self.idle_spin,
            faults=self.faults,
            supervise=self.supervise,
        )

    def with_(self, **overrides: Any) -> "ScenarioCase":
        """A copy with fields replaced (fault-free twins, ablations)."""
        return replace(self, **overrides)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-data record (picklable, YAML/JSON-serializable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ScenarioCase":
        record = dict(record)
        record["apps"] = tuple(
            CaseApp(**app) if isinstance(app, dict) else app
            for app in record.get("apps", ())
        )
        expect = record.get("expect")
        if isinstance(expect, dict):
            record["expect"] = Expect(**expect)
        return cls(**record)


def load_cases_yaml(path: str) -> List[ScenarioCase]:
    """Load extra corpus entries from a YAML file (a list of case records).

    YAML support is optional -- the container may not ship ``pyyaml`` --
    so the import is local and a missing module raises a clear error only
    when the feature is actually used.
    """
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "loading YAML corpora requires pyyaml; express the cases as "
            "dicts and use ScenarioCase.from_dict instead"
        ) from exc
    with open(path, "r", encoding="utf-8") as handle:
        records = yaml.safe_load(handle) or []
    return [ScenarioCase.from_dict(record) for record in records]


def dump_cases_yaml(cases: List[ScenarioCase], path: str) -> None:
    """Write cases to a YAML file (the inverse of :func:`load_cases_yaml`)."""
    try:
        import yaml
    except ImportError as exc:  # pragma: no cover - environment-dependent
        raise RuntimeError("dumping YAML corpora requires pyyaml") from exc
    with open(path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(
            [case.to_dict() for case in cases], handle, sort_keys=False
        )
