"""Declarative scenario-case records.

A :class:`ScenarioCase` is pure data: a name, a family, the
:class:`~repro.workloads.scenario.Scenario` it runs -- the same record
every experiment harness runs, with each application an
:class:`~repro.apps.templates.AppTemplate` -- and the **expected
invariants** (:class:`Expect`) the run must satisfy.  Cases round-trip
through plain dicts (and YAML when available), so growing the corpus is
an edit to data, not new code -- the pattern Libre-SOC uses for its ISA
test catalogs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.apps.templates import AppTemplate
from repro.kernel import KernelConfig
from repro.machine import MachineConfig
from repro.workloads.scenario import AppSpec, Scenario, UncontrolledSpec

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
    """One corpus entry: a named run and the invariants it must satisfy.

    ``scenario`` is the whole run description.  Every application in it
    is built by an :class:`~repro.apps.templates.AppTemplate` and
    declares its ``app_id``, the policy is a name (or ``None``) and no
    watchdog config is set, so the case round-trips through plain dicts
    (:meth:`to_dict` / :meth:`from_dict`) and YAML.
    """

    name: str
    family: str
    scenario: Scenario
    expect: Expect = field(default_factory=Expect)
    notes: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(
                f"case {self.name!r}: unknown family {self.family!r}; "
                f"expected one of {FAMILIES}"
            )
        scenario = self.scenario
        for index, spec in enumerate(scenario.apps):
            if not isinstance(spec.factory, AppTemplate) or spec.app_id is None:
                raise ValueError(
                    f"case {self.name!r}: apps[{index}] must be built by an "
                    "AppTemplate and declare its app_id"
                )
        if not isinstance(scenario.policy, (str, type(None))):
            raise ValueError(
                f"case {self.name!r}: the policy must be a name, got "
                f"{scenario.policy!r}"
            )
        if scenario.watchdog is not None:
            raise ValueError(
                f"case {self.name!r}: a watchdog config does not round-trip; "
                f"got {scenario.watchdog!r}"
            )

    # -- derived coordinates ------------------------------------------------

    @property
    def fault_kinds(self) -> Tuple[str, ...]:
        """Injector kinds named by the fault spec (empty when healthy)."""
        if not self.scenario.faults:
            return ()
        kinds = []
        for item in self.scenario.faults.split(";"):
            item = item.strip()
            if item:
                kinds.append(item.partition(":")[0].strip())
        return tuple(kinds)

    @property
    def policy_label(self) -> str:
        """Printable policy coordinate (``"default"`` for ``None``)."""
        return self.scenario.policy or "default"

    def expected_census(self) -> Dict[str, Optional[int]]:
        """app_id -> knowable completed-task count (None = unknowable)."""
        return {
            spec.app_id: spec.factory.expected_tasks()
            for spec in self.scenario.apps
        }

    def with_(self, **overrides: Any) -> "ScenarioCase":
        """A copy with fields replaced."""
        return replace(self, **overrides)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A plain-data record (picklable, YAML/JSON-serializable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ScenarioCase":
        record = dict(record)
        run = dict(record["scenario"])
        run["apps"] = [
            AppSpec(**{**app, "factory": AppTemplate(**app["factory"])})
            for app in run["apps"]
        ]
        run["machine"] = MachineConfig(**run["machine"])
        run["kernel"] = KernelConfig(**run["kernel"])
        run["uncontrolled"] = [UncontrolledSpec(**u) for u in run["uncontrolled"]]
        record["scenario"] = Scenario(**run)
        record["expect"] = Expect(**record["expect"])
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
