"""Pluggable allocation policies: the server's decision rule, behind a
typed protocol.

The paper's Section 5 server bakes in one rule -- water-filled
equipartition: subtract uncontrollable load, water-fill the rest
equally, cap each application at its process count, guarantee one.
This module splits that *policy* from the server's *mechanism*
(scanning the table, posting targets) the same way
``repro.workloads.schedulers`` splits kernel policies from the kernel:
a small protocol class, concrete instances, and a ``make_policy``
registry mirroring ``make_scheduler``.

Every named policy is that one rule with adjusted inputs.  A
:class:`WaterFillPolicy` round starts from the process-count caps and a
static weight table, runs the name's stages -- each adjusts caps,
weights, floors or charged load -- and then water-fills once and
restores floors once.  The registry names list their stages:

* ``"equal"`` -- no stages: the paper's rule verbatim.
* ``"weighted"`` -- no stages, a weight table: the paper's "given that
  all three have the same priority" aside, generalized to relative
  priority shares.
* ``"demand"`` -- the demand cap (:func:`_demand_cap`): demand-aware
  feedback in the spirit of Dice & Kogan's concurrency restriction,
  capping each application at the task-queue backlog its threads package
  reports, so the slack an idle-wide application cannot use water-fills
  to the applications that can.
* ``"slo"`` -- the QoS pressure boost (:func:`_qos_pressure`), the
  demand cap with interactive tenants exempt, and reservation floors
  (:func:`_reservation_floors`): latency-objective feedback that lets
  interactive tenants missing their slowdown target pull processors from
  batch tenants.
* ``"compliance"`` -- the demand cap and the runtime-compliance stage
  (:func:`_runtime_compliance`): charges processors a tenant never
  releases as uncontrolled load, stops growing such a tenant's grant,
  discounts slow compliers' weights and reserves structural floors
  (uncontrolled load is the zero-compliance end of the same continuum).

:class:`SpaceAwarePolicy` -- the Section 7 integration -- is not a
water-fill: when the kernel runs the ``partition`` space scheduler, each
application's target is the size of its processor group, so a
controlled application is not starved by greedy uncontrolled load the
partition already isolates.  It needs the live scheduler instance, so
it is not constructible by bare name.

``allocate`` maps an :class:`AllocationRequest` snapshot to
per-application targets.  A policy may keep cross-round memory (the
demand and pressure EWMAs), so the control plane gives every shard its
own :meth:`AllocationPolicy.clone`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Set, Tuple

from repro.core.policy import partition_processors

#: Environment knob consulted by ``run_scenario`` when the scenario leaves
#: ``policy`` unset (the experiments CLI sets it from ``--policy``).
POLICY_ENV_VAR = "REPRO_POLICY"

#: Environment knob holding a per-application weight table (the experiments
#: CLI sets it from ``--weights``); ``run_scenario`` hands it to the
#: environment's policy as ``weights=`` (``weighted`` when no name is set).
WEIGHTS_ENV_VAR = "REPRO_WEIGHTS"


def parse_weights(spec: str) -> Dict[str, float]:
    """Parse a weight-table spec like ``"fft=2,sort=0.5"``.

    Each comma-separated entry is ``app_id=weight`` with a positive float
    weight; whitespace around entries is tolerated.  Raises ``ValueError``
    on malformed entries, duplicates, or non-positive weights.
    """
    weights: Dict[str, float] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        app_id, sep, raw = entry.partition("=")
        app_id = app_id.strip()
        if not sep or not app_id:
            raise ValueError(
                f"malformed weight entry {entry!r}; expected app=weight"
            )
        try:
            weight = float(raw)
        except ValueError:
            raise ValueError(
                f"weight for {app_id!r} is not a number: {raw.strip()!r}"
            ) from None
        if weight <= 0:
            raise ValueError(f"weight for {app_id!r} must be positive")
        if app_id in weights:
            raise ValueError(f"duplicate weight entry for {app_id!r}")
        weights[app_id] = weight
    if not weights:
        raise ValueError("empty weight table")
    return weights


@dataclass(frozen=True)
class AllocationRequest:
    """One round's input snapshot, as the server sees it.

    Attributes:
        n_processors: processors this server is responsible for (the whole
            machine, or one shard's region).
        uncontrolled_runnable: runnable processes of uncontrollable
            applications charged against this server's pool.
        app_totals: total (alive) process count per controllable
            application -- the hard cap on what each can use.
        demands: last task-queue backlog each application reported
            (queued + in-execution tasks); applications that never
            reported are absent, meaning "demand unknown".
        demand_reported_at: when each backlog figure was written (board
            timestamp); absent = never reported.  Lets policies age the
            telemetry instead of trusting a dead application's last word.
        qos: latency telemetry service applications piggyback on their
            polls: ``app_id -> (slowdown estimate, tier tag, reported
            at)``.  Slowdown is observed request latency over the
            application's nominal zero-load latency; applications that
            never reported are absent.
        published: the targets currently in force on the board (last
            round's decision), so a policy can see what each application
            was *asked* to run and compare it with what it reports.
        runnable: runnable process count per application, from the
            kernel census the server already scans.  The server-side
            ground truth for residual overshoot: ``runnable - published``
            is what a tenant is actually holding *right now*, while the
            board's compliance report only reflects its last safe point.
        compliance: runtime-compliance telemetry the runtimes piggyback on
            their polls: ``app_id ->`` a duck-typed
            :class:`repro.threads.compliance.ComplianceReport` (the core
            layer reads its fields via ``getattr`` and must not import
            the threads layer).  Applications that never reported are
            absent.
        now: the server's scan time, for aging the telemetry.
    """

    n_processors: int
    uncontrolled_runnable: int
    app_totals: Mapping[str, int]
    demands: Mapping[str, int] = field(default_factory=dict)
    demand_reported_at: Mapping[str, int] = field(default_factory=dict)
    qos: Mapping[str, Tuple[float, str, int]] = field(default_factory=dict)
    published: Mapping[str, int] = field(default_factory=dict)
    runnable: Mapping[str, int] = field(default_factory=dict)
    compliance: Mapping[str, Any] = field(default_factory=dict)
    now: int = 0


class AllocationPolicy:
    """Protocol for the server's partitioning rule.

    Implementations provide :meth:`allocate`; everything else (scan
    cadence, board posting, sharding) is the server's mechanism.  The
    contract mirrors :func:`~repro.core.policy.partition_processors`:
    every application in ``request.app_totals`` appears in the result with
    ``1 <= target <= total``.
    """

    #: Registry name (``make_policy(name)``); also used in reports.
    name: str = "policy"

    #: True when :meth:`allocate` is exactly unweighted water-filling over
    #: the process-count caps, so the server may answer from its
    #: incremental filler instead.
    equipartition: bool = False

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        """Map one snapshot to per-application runnable-process targets."""
        raise NotImplementedError

    def clone(self) -> "AllocationPolicy":
        """A same-configuration instance with empty cross-round memory,
        for another shard (a policy without memory may return ``self``)."""
        return self


class _Fill:
    """One round's water-fill inputs, as the stages adjust them."""

    __slots__ = ("caps", "weights", "floors", "charged", "interactive")

    def __init__(self, caps: Dict[str, int], weights: Dict[str, float]):
        self.caps = caps
        self.weights = weights
        self.floors: Dict[str, int] = {}
        self.charged = 0
        self.interactive: Set[str] = set()

    def reserve(self, app_id: str, floor: int) -> None:
        """Reserve *floor* processors for *app_id*.

        The cap rises to the floor so the capacity it reserves exists
        inside the fill.  Water-filling only guarantees a fair share,
        which may sit below the floor, so :func:`_restore_floors` then
        tops the target up from the applications with the most headroom,
        preserving the total grant.
        """
        self.caps[app_id] = max(self.caps[app_id], floor)
        self.floors[app_id] = floor


class _Ewma:
    """Cross-round feedback memory: ``s = alpha*x + (1-alpha)*s`` per
    ``(signal, application)``.

    The one place a policy keeps state between rounds.  Entries are
    pruned as applications vanish, so an id that leaves and returns
    starts fresh instead of inheriting its predecessor's figure.  Shards
    see disjoint application sets, so two shards sharing one tracker
    would evict each other's entries every round -- the control plane
    hands each shard its own :meth:`WaterFillPolicy.clone`.
    """

    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: Dict[Tuple[str, str], float] = {}

    def update(
        self, key: Tuple[str, str], sample: float, alpha: float
    ) -> float:
        previous = self.values.get(key)
        if previous is not None:
            sample = alpha * sample + (1.0 - alpha) * previous
        self.values[key] = sample
        return sample

    def drop(self, key: Tuple[str, str]) -> None:
        self.values.pop(key, None)

    def prune(self, live: Mapping[str, int]) -> None:
        for key in [key for key in self.values if key[1] not in live]:
            del self.values[key]


#: Tier tag carried in QoS reports that marks a latency-sensitive tenant
#: (mirrors ``repro.workloads.service.TIER_INTERACTIVE``; duplicated here
#: because the core layer must not import the workloads layer).
_INTERACTIVE_TIER = "interactive"

#: Every water-fill keyword: its default, whether a value is valid, and
#: the error an invalid one raises.
_KNOBS: Dict[str, Tuple[Any, Callable[[Any], bool], str]] = {
    "weights": (None, lambda v: True, ""),
    "smoothing": (
        None,
        lambda v: v is None or 0.0 < v <= 1.0,
        "demand smoothing must be in (0, 1], got {}",
    ),
    "report_ttl": (
        None,
        lambda v: v is None or v > 0,
        "demand report_ttl must be positive, got {}",
    ),
    "target_slowdown": (
        2.0, lambda v: v > 0, "target_slowdown must be positive, got {}"
    ),
    "boost_cap": (8.0, lambda v: v >= 1.0, "boost_cap must be >= 1, got {}"),
    "pressure_smoothing": (
        0.5,
        lambda v: 0.0 < v <= 1.0,
        "pressure_smoothing must be in (0, 1], got {}",
    ),
    "floors": (None, lambda v: True, ""),
    # Default: the paper's 6-second poll interval -- a runtime cannot be
    # expected to adopt a target faster than it polls.
    "lag_grace": (
        6_000_000, lambda v: v > 0, "lag_grace must be positive, got {}"
    ),
    "discount_cap": (
        4.0, lambda v: v >= 1.0, "discount_cap must be >= 1, got {}"
    ),
}


def _stage(*knobs: str):
    """Mark a function as a water-fill stage reading the keywords *knobs*."""

    def mark(function):
        function.knobs = knobs
        return function

    return mark


@_stage("smoothing", "report_ttl")
def _demand_cap(policy, request: AllocationRequest, fill: _Fill) -> None:
    """Never grant beyond measured backlog.

    An application whose task queue holds fewer tasks than it has worker
    processes cannot use its full equipartition share -- the extra
    workers would only busy-wait on the empty queue (the Section 2
    point-2 waste; Dice & Kogan's concurrency restriction).  Each cap
    drops to the reported backlog (floored at one, the starvation
    guarantee), so the released slack water-fills to applications whose
    backlog can absorb it.  Applications that never reported keep their
    full cap: unknown demand is unbounded, which degrades to
    equipartition -- exactly the pre-feedback behaviour.

    ``smoothing`` caps on an EWMA of the backlog instead (rounded up, so
    a single-task burst is never smoothed below one grantable slot),
    damping target jitter under bursty phase structure; ``1.0`` equals
    no smoothing.  ``report_ttl`` stops trusting an unrefreshed report:
    the application reverts to "demand unknown" and its EWMA entry is
    dropped.  This mirrors the threads package's stale-target TTL in the
    opposite direction, so a dead application's last backlog cannot pin
    machine shares forever.

    Interactive tenants (see :func:`_qos_pressure`) are exempt: a backlog
    snapshot taken between open arrivals says nothing about the work the
    next instant will bring, and capping an open-arrival tenant at that
    snapshot starves it exactly when its queue is about to grow.  Batch
    tenants keep the cap -- their backlog is their demand, and the slack
    a drained batch job releases is what the boost redistributes.
    """
    for app_id in request.app_totals:
        key = ("backlog", app_id)
        demand = request.demands.get(app_id)
        stamp = request.demand_reported_at.get(app_id)
        if (
            demand is None
            or app_id in fill.interactive
            or not policy._fresh(stamp, request)
        ):
            policy._memory.drop(key)
            continue
        if policy.smoothing is not None:
            smoothed = policy._memory.update(key, demand, policy.smoothing)
            demand = math.ceil(smoothed)
        fill.caps[app_id] = max(1, min(fill.caps[app_id], demand))


@_stage("report_ttl", "target_slowdown", "boost_cap", "pressure_smoothing")
def _qos_pressure(policy, request: AllocationRequest, fill: _Fill) -> None:
    """Boost interactive tenants that miss their latency objective.

    Service applications piggyback ``(slowdown, tier)`` on their polls,
    where slowdown is observed request latency over the tenant's nominal
    zero-load latency.  An *interactive* tenant's water-filling weight is
    multiplied by its EWMA-smoothed pressure ``slowdown /
    target_slowdown`` when that exceeds 1, capped at ``boost_cap`` -- so
    a tenant missing its objective pulls processors from tenants that
    are not, and batch tenants (never boosted) absorb the slack.  Tenants
    with no fresh report keep their base weight.  The threads package
    announces a tenant's tier at registration, so the demand-cap
    exemption this stage records holds from the first round.
    """
    for app_id in request.app_totals:
        key = ("pressure", app_id)
        entry = request.qos.get(app_id)
        if entry is None or not policy._fresh(entry[2], request):
            policy._memory.drop(key)
            continue
        slowdown, tier, _ = entry
        if tier != _INTERACTIVE_TIER:
            continue
        fill.interactive.add(app_id)
        pressure = policy._memory.update(
            key, slowdown / policy.target_slowdown, policy.pressure_smoothing
        )
        boost = min(policy.boost_cap, max(1.0, pressure))
        fill.weights[app_id] = fill.weights.get(app_id, 1.0) * boost


@_stage("floors")
def _reservation_floors(
    policy, request: AllocationRequest, fill: _Fill
) -> None:
    """Reserve hard per-application processor minimums (e.g. a paid
    tier's reservation) at ``min(floor, own process count)``.

    Guarantee: every target is at least 1 always; and whenever there is
    no uncontrolled load and the machine has room for every floor
    (counting one processor for each unfloored application), every
    application meets its effective floor.
    """
    for app_id, floor in policy.floors.items():
        total = request.app_totals.get(app_id)
        if total is not None:
            fill.reserve(app_id, min(floor, total))


@_stage("report_ttl", "lag_grace", "discount_cap")
def _runtime_compliance(
    policy, request: AllocationRequest, fill: _Fill
) -> None:
    """Grant real processors, not virtual.

    The equipartition arithmetic assumes every application actually runs
    the target it is given.  A runtime that complies *slowly* (a
    fork-join package that can only shrink at the next phase barrier) or
    *partially* (a pipeline whose structural floor of one worker per
    stage exceeds its grant) keeps extra workers runnable, and granting
    those processors to someone else just recreates the Section 2
    time-slicing the control server exists to remove.  An uncontrolled
    tenant is the limit of that continuum -- permanently runnable, never
    adopting -- and the paper already *charges* it against the pool.
    This stage extends the same treatment to the partially-compliant
    middle, from the :class:`~repro.threads.compliance.ComplianceReport`
    the runtimes piggyback on their polls (read duck-typed: the core
    layer must not import the threads layer):

    * **charge residual overshoot**: workers held above the published
      target (beyond the structural floor) are load the machine already
      carries; they join the uncontrolled count, so compliant tenants
      are handed processors that exist;
    * **stop re-granting**: such a tenant is capped at its published
      target -- its grant can shrink with the pool but never grows while
      it sits on processors it was asked to release;
    * **discount slow compliers**: a last adoption lag above
      ``lag_grace`` divides the weight by ``lag / lag_grace`` (capped at
      ``discount_cap``), shifting share toward runtimes that hand
      processors back promptly;
    * **respect declared floors**: overshoot up to ``min(floor, process
      count)`` is physics, not misbehaviour -- punishing it only
      oscillates.  The floor is reserved instead, so the published target
      moves to where the runtime can follow it and the capacity it
      occupies is accounted inside the fill rather than double-charged.

    Tenants with no fresh report are treated as prompt compliers, which
    degrades to the demand caps.
    """
    for app_id, total in request.app_totals.items():
        report = request.compliance.get(app_id)
        if report is None or not policy._fresh(
            getattr(report, "reported_at", None), request
        ):
            continue
        floor = min(max(1, int(getattr(report, "floor", 1))), total)
        if floor > 1:
            fill.reserve(app_id, floor)
        published = request.published.get(app_id)
        overshoot = float(getattr(report, "overshoot", 0.0) or 0.0)
        runnable = request.runnable.get(app_id)
        if published is not None and runnable is not None:
            # The kernel census is fresher than the board report: a
            # deferred-adoption runtime only samples its overshoot at
            # safe points, so mid-phase holdouts never show up there.
            overshoot = max(overshoot, float(runnable - published))
        structural = floor if published is None else max(0, floor - published)
        excess = max(0.0, overshoot - structural)
        if excess > 0.0 and published is not None:
            # Rounded up: a fractional holdout still occupies a processor.
            fill.charged += math.ceil(excess)
            fill.caps[app_id] = min(fill.caps[app_id], max(published, floor))
        lag = getattr(report, "adoption_lag_us", None)
        if lag is not None and lag > policy.lag_grace:
            penalty = min(policy.discount_cap, lag / policy.lag_grace)
            fill.weights[app_id] = fill.weights.get(app_id, 1.0) / penalty


def _restore_floors(
    targets: Dict[str, int], floors: Mapping[str, int]
) -> Dict[str, int]:
    """Raise each floored application to its floor after water-filling,
    moving processors from the applications with the most headroom so
    the total grant is preserved; mutates and returns *targets*."""
    for app_id in sorted(floors):
        while targets[app_id] < floors[app_id]:
            donors = [
                other
                for other in targets
                if other != app_id
                and targets[other] > max(1, floors.get(other, 1))
            ]
            if not donors:
                break  # no headroom anywhere: floors oversubscribed
            donor = max(donors, key=lambda other: (targets[other], other))
            targets[donor] -= 1
            targets[app_id] += 1
    return targets


#: Each registered name: whether it takes a static ``weights`` table, and
#: the stages its rounds run, in order.
_REGISTRY: Dict[str, Tuple[bool, Tuple[Callable[..., None], ...]]] = {
    "equal": (False, ()),
    "weighted": (True, ()),
    "demand": (True, (_demand_cap,)),
    # _qos_pressure first: it marks the interactive tenants _demand_cap exempts.
    "slo": (True, (_qos_pressure, _demand_cap, _reservation_floors)),
    "compliance": (True, (_demand_cap, _runtime_compliance)),
}


class WaterFillPolicy(AllocationPolicy):
    """The paper's Section 5 rule, with stages adjusting its inputs.

    Each round starts from the process-count caps and the static weight
    table, lets the name's stages adjust caps, weights, floors and
    charged load, water-fills once, and restores floors once.
    Applications the weight table does not name weigh 1.0, and entries
    naming applications that are not running are ignored: the server
    knowingly holds weights for applications that come and go (the raw
    ``partition_processors`` rejects unknown names).  Build instances
    with :func:`make_policy`.
    """

    def __init__(self, name: str, **keywords: Any) -> None:
        self.name = name
        #: The keywords this policy was built with (``clone`` rebuilds
        #: from them).
        self.keywords = keywords
        self._stages = _REGISTRY[name][1]
        # Every knob becomes an attribute; each stage reads its own.
        for knob, (default, valid, error) in _KNOBS.items():
            value = keywords.get(knob, default)
            if not valid(value):
                raise ValueError(error.format(value))
            setattr(self, knob, value)
        self.weights: Dict[str, float] = dict(self.weights or {})
        self.floors: Dict[str, int] = dict(self.floors or {})
        for app_id, floor in self.floors.items():
            if floor < 1:
                raise ValueError(
                    f"floor for {app_id!r} must be >= 1, got {floor}"
                )
        self._memory = _Ewma()

    @property
    def equipartition(self) -> bool:
        return not self._stages and not self.weights

    def clone(self) -> "WaterFillPolicy":
        return WaterFillPolicy(self.name, **self.keywords)

    def _fresh(self, stamp: Optional[int], request: AllocationRequest) -> bool:
        """Whether telemetry stamped *stamp* is still trusted: without a
        ``report_ttl`` every report is, stamped or not."""
        ttl = self.report_ttl
        return ttl is None or (
            stamp is not None and request.now - stamp <= ttl
        )

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        live = request.app_totals
        self._memory.prune(live)
        fill = _Fill(
            dict(live),
            {app: w for app, w in self.weights.items() if app in live},
        )
        for stage in self._stages:
            stage(self, request, fill)
        weights: Optional[Dict[str, float]] = fill.weights
        if all(weight == 1.0 for weight in fill.weights.values()):
            # Equal weights: take the unweighted fill's exact tie-breaks.
            weights = None
        targets = partition_processors(
            request.n_processors,
            request.uncontrolled_runnable + fill.charged,
            fill.caps,
            weights=weights,
        )
        return _restore_floors(targets, fill.floors)


class SpaceAwarePolicy(AllocationPolicy):
    """Targets from the space partition's processor groups (Section 7).

    Wraps a scheduler exposing ``partition_of(app_id) -> [cpu, ...]``
    (:class:`~repro.kernel.scheduler.partition.SpacePartitionScheduler`):
    each application's target is the size of its group, capped by its
    process count and floored at one.  This replaces the untyped
    ``partition_policy`` escape hatch the server used to carry.
    """

    name = "space"

    def __init__(self, scheduler) -> None:
        if not hasattr(scheduler, "partition_of"):
            raise TypeError(
                "SpaceAwarePolicy needs a scheduler with partition_of(), "
                f"got {type(scheduler).__name__}"
            )
        self.scheduler = scheduler

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        return {
            app_id: max(1, min(total, len(self.scheduler.partition_of(app_id))))
            for app_id, total in request.app_totals.items()
        }


#: Names accepted by :func:`make_policy` / ``Scenario.policy`` / ``--policy``
#: (``"space"`` is additionally accepted by the scenario runner, which owns
#: the live partition scheduler the policy must wrap).
POLICY_NAMES = tuple(sorted(_REGISTRY))


def make_policy(name: str, **kwargs) -> AllocationPolicy:
    """Build a fresh allocation policy by name (mirrors ``make_scheduler``).

    ``kwargs`` set the policy's knobs (e.g. ``make_policy("weighted",
    weights={"a": 2.0})``).  Each name accepts ``weights`` (``equal``
    excepted) plus the keywords its stages read.  Unknown keywords raise
    a ``ValueError`` naming the offending keyword and the ones the
    policy actually accepts, so a typo'd experiment knob fails loudly
    instead of surfacing as a bare ``TypeError`` deep in a sweep.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown allocation policy {name!r}; valid names: "
            f"{', '.join(POLICY_NAMES)}"
        )
    takes_weights, stages = _REGISTRY[name]
    accepted = {knob for stage in stages for knob in stage.knobs}
    if takes_weights:
        accepted.add("weights")
    for keyword in kwargs:
        if keyword not in accepted:
            valid = ", ".join(sorted(accepted)) or "(none)"
            raise ValueError(
                f"policy {name!r} got an unknown keyword {keyword!r}; "
                f"accepted keywords: {valid}"
            )
    return WaterFillPolicy(name, **kwargs)
