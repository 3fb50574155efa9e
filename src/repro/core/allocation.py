"""Pluggable allocation policies: the server's decision rule, behind a
typed protocol.

The paper's Section 5 server bakes in one rule -- water-filled
equipartition.  This module splits that *policy* from the server's
*mechanism* (scanning the table, posting targets) the same way
``repro.workloads.schedulers`` splits kernel policies from the kernel:
a small protocol class, concrete instances, and a ``make_policy`` registry
mirroring ``make_scheduler``.

Policies:

* :class:`EquipartitionPolicy` (``"equal"``) -- the paper's rule verbatim:
  subtract uncontrollable load, water-fill the rest equally, cap at each
  application's process count, guarantee one.
* :class:`WeightedPolicy` (``"weighted"``) -- the paper's "given that all
  three have the same priority" aside, generalized: water-filling under
  relative priority shares.
* :class:`DemandPolicy` (``"demand"``) -- demand-aware feedback in the
  spirit of Dice & Kogan's concurrency restriction: each application's
  target is additionally capped at its *measured* task-queue backlog
  (reported by the threads package at registration and every poll), and
  the slack an idle-wide application cannot use water-fills to the
  applications that can.
* :class:`SLOPolicy` (``"slo"``) -- latency-objective feedback on top of
  the demand caps: service applications piggyback a latency-slowdown
  estimate and a tier tag on their polls, and interactive tenants whose
  slowdown exceeds the target get their water-filling weight boosted (up
  to a cap), so batch tenants absorb the slack.  Optional per-application
  processor floors are restored after water-filling.
* :class:`CompliancePolicy` (``"compliance"``) -- runtime-compliance
  feedback on top of the demand caps: runtimes piggyback adoption-lag /
  residual-overshoot / structural-floor telemetry on their polls, and
  the policy charges processors a tenant never releases as uncontrolled
  load, stops growing such a tenant's grant, and discounts slow
  compliers' water-filling weights (uncontrolled load is the
  zero-compliance end of the same continuum).
* :class:`SpaceAwarePolicy` -- the Section 7 integration: when the kernel
  runs the ``partition`` space scheduler, each application's target is the
  size of its processor group, so a controlled application is not starved
  by greedy uncontrolled load the partition already isolates.  Not
  constructible by bare name (it needs the live scheduler instance).

Policies are pure unless marked ``stateful``: ``allocate`` maps an
:class:`AllocationRequest` snapshot to per-application targets, and a
stateless instance may serve several sharded servers.  Stateful policies
(cross-round feedback memory) override :meth:`AllocationPolicy.clone`,
and the scenario runner gives each shard its own clone -- the per-shard
weight tables the sharding work left open.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.core.policy import partition_processors

#: Environment knob consulted by ``run_scenario`` when the scenario leaves
#: ``policy`` unset (the experiments CLI sets it from ``--policy``).
POLICY_ENV_VAR = "REPRO_POLICY"

#: Environment knob holding a per-application weight table (the experiments
#: CLI sets it from ``--weights``); consulted by ``run_scenario`` when no
#: explicit policy wins the resolution.
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

    #: Whether the policy keeps cross-round feedback memory that must not
    #: be shared between sharded servers.  Shards see disjoint application
    #: sets, and a stateful policy prunes its memory against whatever set
    #: it saw last -- two shards sharing one instance would evict each
    #: other's entries every round.  Stateful policies override
    #: :meth:`clone`; the scenario runner hands each shard its own clone.
    stateful: bool = False

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        """Map one snapshot to per-application runnable-process targets."""
        raise NotImplementedError

    def clone(self) -> "AllocationPolicy":
        """A same-configuration instance safe to hand another shard.

        Stateless policies return ``self``; stateful ones return a fresh
        instance with the same knobs and empty cross-round memory.
        """
        return self

    def describe(self) -> str:
        """Human-readable label for experiment reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()!r}>"


class EquipartitionPolicy(AllocationPolicy):
    """The paper's Section 5 rule: equal shares, water-filled."""

    name = "equal"

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        return partition_processors(
            request.n_processors,
            request.uncontrolled_runnable,
            request.app_totals,
        )


class WeightedPolicy(AllocationPolicy):
    """Water-filling under relative priority shares.

    ``weights`` is a global priority table; applications it does not name
    default to weight 1.0, and entries naming applications that are not
    currently running are ignored (the raw ``partition_processors``
    function, by contrast, rejects unknown names -- the server knowingly
    holds weights for applications that come and go).
    """

    name = "weighted"

    def __init__(self, weights: Optional[Mapping[str, float]] = None) -> None:
        self.weights: Dict[str, float] = dict(weights) if weights else {}

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        known = {
            app_id: weight
            for app_id, weight in self.weights.items()
            if app_id in request.app_totals
        }
        return partition_processors(
            request.n_processors,
            request.uncontrolled_runnable,
            request.app_totals,
            weights=known or None,
        )

    def describe(self) -> str:
        if not self.weights:
            return self.name
        shares = ",".join(
            f"{app}={weight:g}" for app, weight in sorted(self.weights.items())
        )
        return f"{self.name}({shares})"


class DemandPolicy(AllocationPolicy):
    """Demand-aware water-filling: never grant beyond measured backlog.

    An application whose task queue holds fewer tasks than it has worker
    processes cannot use its full equipartition share -- the extra workers
    would only busy-wait on the empty queue (the Section 2 point-2 waste).
    This policy caps each application's effective process count at its
    reported backlog (floored at one, the starvation guarantee), then
    water-fills, so the released slack flows to applications whose backlog
    can absorb it.  Applications that never reported keep their full cap:
    unknown demand is treated as unbounded, which degrades to
    equipartition and is exactly the pre-feedback behaviour.

    Two robustness knobs (both off by default, preserving bit-identical
    behaviour for existing runs):

    * ``smoothing`` -- EWMA coefficient in ``(0, 1]``.  Each round the
      policy tracks ``s = alpha*report + (1-alpha)*s`` per application and
      caps on the *smoothed* backlog (rounded up, so a single-task burst
      is never smoothed below one grantable slot).  Damps target jitter
      under bursty phase structure.  ``1.0`` is equivalent to no
      smoothing; ``None`` disables the tracker entirely.
    * ``report_ttl`` -- microseconds after which an unrefreshed backlog
      report stops being trusted: the application reverts to "demand
      unknown" (full cap) and its EWMA state is dropped.  Mirrors the
      threads package's stale-target TTL in the opposite direction, so a
      dead application's last backlog cannot pin machine shares forever.

    The EWMA tracker is the one place a policy keeps per-round state; it
    is keyed by application id and pruned as applications vanish, so a
    single instance still serves several sharded servers (shards see
    disjoint application sets).
    """

    name = "demand"

    def __init__(
        self,
        weights: Optional[Mapping[str, float]] = None,
        smoothing: Optional[float] = None,
        report_ttl: Optional[int] = None,
    ) -> None:
        if smoothing is not None and not 0.0 < smoothing <= 1.0:
            raise ValueError(
                f"demand smoothing must be in (0, 1], got {smoothing}"
            )
        if report_ttl is not None and report_ttl <= 0:
            raise ValueError(
                f"demand report_ttl must be positive, got {report_ttl}"
            )
        self.weights: Dict[str, float] = dict(weights) if weights else {}
        self.smoothing = smoothing
        self.report_ttl = report_ttl
        self._smoothed: Dict[str, float] = {}

    def _effective_demand(
        self, app_id: str, request: AllocationRequest
    ) -> Optional[int]:
        """The backlog figure to cap on, or ``None`` for "unknown"."""
        demand = request.demands.get(app_id)
        if demand is not None and self.report_ttl is not None:
            reported_at = request.demand_reported_at.get(app_id)
            if (
                reported_at is None
                or request.now - reported_at > self.report_ttl
            ):
                demand = None  # report went stale: back to unbounded
        if demand is None:
            self._smoothed.pop(app_id, None)
            return None
        if self.smoothing is None:
            return demand
        alpha = self.smoothing
        previous = self._smoothed.get(app_id)
        smoothed = (
            float(demand)
            if previous is None
            else alpha * demand + (1.0 - alpha) * previous
        )
        self._smoothed[app_id] = smoothed
        # Round up: a fractional smoothed backlog still needs a slot.
        return int(smoothed) + (smoothed > int(smoothed))

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        for app_id in list(self._smoothed):
            if app_id not in request.app_totals:
                del self._smoothed[app_id]
        caps: Dict[str, int] = {}
        for app_id, total in request.app_totals.items():
            demand = self._effective_demand(app_id, request)
            if demand is None:
                caps[app_id] = total
            else:
                caps[app_id] = max(1, min(total, demand))
        known = {
            app_id: weight
            for app_id, weight in self.weights.items()
            if app_id in caps
        }
        return partition_processors(
            request.n_processors,
            request.uncontrolled_runnable,
            caps,
            weights=known or None,
        )

    def describe(self) -> str:
        knobs = []
        if self.smoothing is not None:
            knobs.append(f"ewma={self.smoothing:g}")
        if self.report_ttl is not None:
            knobs.append(f"report_ttl={self.report_ttl}us")
        return f"{self.name}({','.join(knobs)})" if knobs else self.name


#: Tier tag carried in QoS reports that marks a latency-sensitive tenant
#: (mirrors ``repro.workloads.service.TIER_INTERACTIVE``; duplicated here
#: because the core layer must not import the workloads layer).
_INTERACTIVE_TIER = "interactive"


def _restore_floors(
    targets: Dict[str, int], effective: Mapping[str, int]
) -> Dict[str, int]:
    """Raise each floored application to its *effective* floor after
    water-filling, moving processors from the applications with the most
    headroom so the total grant is preserved.  Shared by the SLO policy's
    reservation floors and the compliance policy's structural runtime
    floors; mutates and returns *targets*."""
    for app_id in sorted(effective):
        while targets[app_id] < effective[app_id]:
            donors = [
                other
                for other in targets
                if other != app_id
                and targets[other] > max(1, effective.get(other, 1))
            ]
            if not donors:
                break  # no headroom anywhere: floors oversubscribed
            donor = max(donors, key=lambda other: (targets[other], other))
            targets[donor] -= 1
            targets[app_id] += 1
    return targets


class SLOPolicy(DemandPolicy):
    """Latency-objective feedback: boost starving interactive tenants.

    Extends the demand caps with the QoS reverse channel: service
    applications piggyback ``(slowdown, tier)`` on their polls, where
    slowdown is observed request latency over the tenant's nominal
    zero-load latency.  Each round, an *interactive* tenant whose fresh
    slowdown estimate exceeds ``target_slowdown`` has its water-filling
    weight multiplied by the (EWMA-smoothed) pressure ratio
    ``slowdown / target_slowdown``, capped at ``boost_cap`` -- so a
    tenant missing its objective pulls processors from tenants that are
    not, and batch tenants (weight never boosted) absorb the slack.
    Tenants with no fresh QoS report keep their base weight, which
    degrades to plain demand-aware behaviour.

    Interactive tenants are exempt from the demand cap entirely: a
    backlog snapshot taken between open arrivals says nothing about the
    work the next instant will bring, and capping an open-arrival tenant
    at that snapshot starves it exactly when its queue is about to grow
    (the threads package announces a tenant's tier at registration, so
    the exemption holds from the first round).  Batch tenants and
    ordinary applications keep the demand caps -- their backlog is their
    demand, and the slack a drained batch job releases is what the boost
    redistributes.

    ``floors`` optionally names hard per-application processor minimums
    (e.g. a paid tier's reservation).  Floors are restored *after*
    water-filling by moving processors from the applications with the
    most headroom, preserving the total grant.  Guarantee: every target
    is at least 1 always; and whenever there is no uncontrolled load and
    the machine has room for every floor (counting one processor for
    each unfloored application), every application meets its effective
    floor ``min(floor, own process count)``.

    The pressure EWMA is cross-round feedback memory, so the policy is
    ``stateful``: the scenario runner hands each shard its own
    :meth:`clone` rather than sharing one instance -- the per-shard
    weight tables realized.
    """

    name = "slo"
    stateful = True

    def __init__(
        self,
        weights: Optional[Mapping[str, float]] = None,
        smoothing: Optional[float] = None,
        report_ttl: Optional[int] = None,
        target_slowdown: float = 2.0,
        boost_cap: float = 8.0,
        pressure_smoothing: float = 0.5,
        floors: Optional[Mapping[str, int]] = None,
    ) -> None:
        super().__init__(
            weights=weights, smoothing=smoothing, report_ttl=report_ttl
        )
        if target_slowdown <= 0:
            raise ValueError(
                f"target_slowdown must be positive, got {target_slowdown}"
            )
        if boost_cap < 1.0:
            raise ValueError(f"boost_cap must be >= 1, got {boost_cap}")
        if not 0.0 < pressure_smoothing <= 1.0:
            raise ValueError(
                f"pressure_smoothing must be in (0, 1], got {pressure_smoothing}"
            )
        self.floors: Dict[str, int] = dict(floors) if floors else {}
        for app_id, floor in self.floors.items():
            if floor < 1:
                raise ValueError(
                    f"floor for {app_id!r} must be >= 1, got {floor}"
                )
        self.target_slowdown = target_slowdown
        self.boost_cap = boost_cap
        self.pressure_smoothing = pressure_smoothing
        self._pressure: Dict[str, float] = {}

    def clone(self) -> "SLOPolicy":
        return type(self)(
            weights=self.weights,
            smoothing=self.smoothing,
            report_ttl=self.report_ttl,
            target_slowdown=self.target_slowdown,
            boost_cap=self.boost_cap,
            pressure_smoothing=self.pressure_smoothing,
            floors=self.floors,
        )

    def _fresh_qos(
        self, app_id: str, request: AllocationRequest
    ) -> Optional[Tuple[float, str]]:
        """The usable QoS report for *app_id*, or ``None`` when absent/stale."""
        entry = request.qos.get(app_id)
        if entry is None:
            return None
        slowdown, tier, reported_at = entry
        if (
            self.report_ttl is not None
            and request.now - reported_at > self.report_ttl
        ):
            return None
        return slowdown, tier

    def _boosted_weights(
        self, request: AllocationRequest
    ) -> Tuple[Optional[Dict[str, float]], set]:
        """Per-app water-filling weights and the interactive-tenant set."""
        weights: Dict[str, float] = {}
        interactive = set()
        for app_id in request.app_totals:
            weight = self.weights.get(app_id, 1.0)
            qos = self._fresh_qos(app_id, request)
            if qos is None:
                self._pressure.pop(app_id, None)
            else:
                slowdown, tier = qos
                if tier == _INTERACTIVE_TIER:
                    interactive.add(app_id)
                    pressure = slowdown / self.target_slowdown
                    alpha = self.pressure_smoothing
                    previous = self._pressure.get(app_id)
                    if previous is not None:
                        pressure = alpha * pressure + (1.0 - alpha) * previous
                    self._pressure[app_id] = pressure
                    weight *= min(self.boost_cap, max(1.0, pressure))
            weights[app_id] = weight
        if all(weight == 1.0 for weight in weights.values()):
            # Equal weights: take the unweighted fill's exact tie-breaks.
            return None, interactive
        return weights, interactive

    def _apply_floors(
        self, targets: Dict[str, int], request: AllocationRequest
    ) -> Dict[str, int]:
        if not self.floors:
            return targets
        effective = {
            app_id: min(floor, request.app_totals[app_id])
            for app_id, floor in self.floors.items()
            if app_id in targets
        }
        return _restore_floors(targets, effective)

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        for app_id in list(self._pressure):
            if app_id not in request.app_totals:
                del self._pressure[app_id]
        weights, interactive = self._boosted_weights(request)
        caps: Dict[str, int] = {}
        for app_id, total in request.app_totals.items():
            if app_id in interactive:
                # Open arrivals: the snapshot backlog is not a demand
                # signal, so interactive tenants are never demand-capped.
                self._smoothed.pop(app_id, None)
                demand = None
            else:
                demand = self._effective_demand(app_id, request)
            if demand is None:
                caps[app_id] = total
            else:
                caps[app_id] = max(1, min(total, demand))
            # A floor raises the cap so the capacity it reserves exists.
            floor = self.floors.get(app_id)
            if floor is not None:
                caps[app_id] = max(caps[app_id], min(floor, total))
        targets = partition_processors(
            request.n_processors,
            request.uncontrolled_runnable,
            caps,
            weights=weights,
        )
        return self._apply_floors(targets, request)

    def describe(self) -> str:
        knobs = [f"target={self.target_slowdown:g}x"]
        if self.smoothing is not None:
            knobs.append(f"ewma={self.smoothing:g}")
        if self.report_ttl is not None:
            knobs.append(f"report_ttl={self.report_ttl}us")
        if self.floors:
            floors = ";".join(
                f"{app}>={floor}" for app, floor in sorted(self.floors.items())
            )
            knobs.append(floors)
        return f"{self.name}({','.join(knobs)})"


class CompliancePolicy(DemandPolicy):
    """Compliance-aware water-filling: grant real processors, not virtual.

    The equipartition arithmetic assumes every application actually runs
    the target it is given.  A runtime that complies *slowly* (a
    fork-join package that can only shrink at the next phase barrier) or
    *partially* (a pipeline whose structural floor of one worker per
    stage exceeds its grant) keeps extra workers runnable, and granting
    those processors to someone else just recreates the Section 2
    time-slicing the control server exists to remove.  An uncontrolled
    tenant is the limit of that continuum -- permanently runnable,
    never adopting -- and the paper already *charges* it against the
    pool instead of allocating around it.  This policy extends the same
    treatment to the partially-compliant middle, using the
    :class:`~repro.threads.compliance.ComplianceReport` telemetry the
    threads-package runtimes piggyback on their polls:

    * **charge residual overshoot**: workers a tenant reports runnable
      above its published target (beyond its structural floor) are load
      the machine already carries; they are added (rounded up) to the
      uncontrolled count before water-filling, so compliant tenants are
      handed processors that exist rather than shares of an
      overcommitted machine;
    * **stop re-granting**: a tenant holding such *non-structural*
      overshoot is capped at its currently-published target -- its
      grant can shrink with the pool but never grows while it sits on
      processors it was already asked to release;
    * **discount slow compliers**: a tenant whose last adoption lag
      exceeded ``lag_grace`` has its water-filling weight divided by the
      pressure ratio ``lag / lag_grace`` (capped at ``discount_cap``),
      shifting share toward runtimes that hand processors back promptly;
    * **respect declared floors**: overshoot up to a runtime's declared
      structural floor (``min(floor, process count)``) is never capped
      or discounted -- the pipeline cannot run below one worker per
      stage, and punishing physics only oscillates.  The floor is
      instead *reserved*: the tenant's cap rises to it and the target is
      restored to it after water-filling (the SLO policy's reservation
      mechanism), so the published target moves to where the runtime can
      actually follow it and the capacity it occupies is accounted
      inside the fill rather than double-charged.

    Tenants that report no compliance telemetry (or whose report went
    stale past ``report_ttl``) are treated like prompt compliers, which
    degrades to plain demand-aware behaviour -- exactly how unknown
    demand degrades to equipartition.  The policy keeps no cross-round
    state of its own, so a single instance may serve several shards.
    """

    name = "compliance"

    #: Default adoption-lag grace: the paper's 6-second poll interval --
    #: a runtime cannot be expected to adopt faster than it polls.
    DEFAULT_LAG_GRACE = 6_000_000

    def __init__(
        self,
        weights: Optional[Mapping[str, float]] = None,
        smoothing: Optional[float] = None,
        report_ttl: Optional[int] = None,
        lag_grace: int = DEFAULT_LAG_GRACE,
        discount_cap: float = 4.0,
    ) -> None:
        super().__init__(
            weights=weights, smoothing=smoothing, report_ttl=report_ttl
        )
        if lag_grace <= 0:
            raise ValueError(f"lag_grace must be positive, got {lag_grace}")
        if discount_cap < 1.0:
            raise ValueError(f"discount_cap must be >= 1, got {discount_cap}")
        self.lag_grace = lag_grace
        self.discount_cap = discount_cap

    def _fresh_report(
        self, app_id: str, request: AllocationRequest
    ) -> Optional[Any]:
        """The usable compliance report for *app_id* (duck-typed), or
        ``None`` when the tenant never reported or the report went stale."""
        report = request.compliance.get(app_id)
        if report is None:
            return None
        if self.report_ttl is not None:
            reported_at = getattr(report, "reported_at", None)
            if (
                reported_at is None
                or request.now - reported_at > self.report_ttl
            ):
                return None
        return report

    def allocate(self, request: AllocationRequest) -> Dict[str, int]:
        for app_id in list(self._smoothed):
            if app_id not in request.app_totals:
                del self._smoothed[app_id]
        # Demand caps, exactly as DemandPolicy computes them.
        caps: Dict[str, int] = {}
        for app_id, total in request.app_totals.items():
            demand = self._effective_demand(app_id, request)
            if demand is None:
                caps[app_id] = total
            else:
                caps[app_id] = max(1, min(total, demand))
        weights = {
            app_id: weight
            for app_id, weight in self.weights.items()
            if app_id in caps
        }
        charged = 0
        floors: Dict[str, int] = {}
        for app_id, total in request.app_totals.items():
            report = self._fresh_report(app_id, request)
            if report is None:
                continue
            floor = min(max(1, int(getattr(report, "floor", 1))), total)
            if floor > 1:
                # Structural floor: reserve the capacity it will occupy
                # regardless, and restore it after water-filling.
                floors[app_id] = floor
                caps[app_id] = max(caps[app_id], floor)
            published = request.published.get(app_id)
            overshoot = float(getattr(report, "overshoot", 0.0) or 0.0)
            runnable = request.runnable.get(app_id)
            if published is not None and runnable is not None:
                # The kernel census is fresher than the board report: a
                # deferred-adoption runtime only samples its overshoot at
                # safe points, so mid-phase holdouts never show up there.
                overshoot = max(overshoot, float(runnable - published))
            structural = (
                max(0, floor - published) if published is not None else floor
            )
            excess = max(0.0, overshoot - structural)
            if excess > 0.0 and published is not None:
                # Workers held above the published grant (and above the
                # structural floor, which the reservation below already
                # accounts for) are load the rest of the machine sees;
                # charge them like uncontrolled processes (rounded up: a
                # fractional holdout still occupies a processor) and
                # never grow the grant of a tenant sitting on processors
                # it was asked to free.
                charged += int(excess) + (excess > int(excess))
                caps[app_id] = min(caps[app_id], max(published, floor))
            lag = getattr(report, "adoption_lag_us", None)
            if lag is not None and lag > self.lag_grace:
                penalty = min(self.discount_cap, lag / self.lag_grace)
                weights[app_id] = weights.get(app_id, 1.0) / penalty
        if all(weight == 1.0 for weight in weights.values()):
            # Equal weights: take the unweighted fill's exact tie-breaks.
            weights = None  # type: ignore[assignment]
        targets = partition_processors(
            request.n_processors,
            request.uncontrolled_runnable + charged,
            caps,
            weights=weights or None,
        )
        return _restore_floors(targets, floors)

    def describe(self) -> str:
        knobs = [f"grace={self.lag_grace}us", f"cap={self.discount_cap:g}"]
        if self.smoothing is not None:
            knobs.append(f"ewma={self.smoothing:g}")
        if self.report_ttl is not None:
            knobs.append(f"report_ttl={self.report_ttl}us")
        return f"{self.name}({','.join(knobs)})"


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


_FACTORIES: Dict[str, Callable[..., AllocationPolicy]] = {
    "equal": EquipartitionPolicy,
    "weighted": WeightedPolicy,
    "demand": DemandPolicy,
    "slo": SLOPolicy,
    "compliance": CompliancePolicy,
}

#: Names accepted by :func:`make_policy` / ``Scenario.policy`` / ``--policy``
#: (``"space"`` is additionally accepted by the scenario runner, which owns
#: the live partition scheduler the policy must wrap).
POLICY_NAMES = tuple(sorted(_FACTORIES))


def make_policy(name: str, **kwargs) -> AllocationPolicy:
    """Build a fresh allocation policy by name (mirrors ``make_scheduler``).

    ``kwargs`` are forwarded to the policy constructor (e.g.
    ``make_policy("weighted", weights={"a": 2.0})``).  Unknown keywords
    raise a ``ValueError`` naming the offending keyword and the ones the
    policy actually accepts, so a typo'd experiment knob fails loudly
    instead of surfacing as a bare ``TypeError`` deep in a sweep.
    """
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown allocation policy {name!r}; valid names: "
            f"{', '.join(POLICY_NAMES)}"
        )
    accepted = inspect.signature(factory).parameters
    for keyword in kwargs:
        if keyword not in accepted:
            valid = ", ".join(sorted(accepted)) or "(none)"
            raise ValueError(
                f"policy {name!r} got an unknown keyword {keyword!r}; "
                f"accepted keywords: {valid}"
            )
    return factory(**kwargs)
