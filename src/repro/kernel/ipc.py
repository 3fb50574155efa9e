"""Inter-process communication.

UMAX "provides interprocess communication through sockets" (Section 5); the
central server and the applications talk over them.  We model two pieces:

* :class:`Channel` -- a bounded FIFO message queue with blocking send (when
  full) and blocking receive (when empty).  Passive state, transitions by
  the kernel when servicing ``ChannelSend`` / ``ChannelReceive``.
* :class:`ControlBoard` -- the shared-memory bulletin board the server
  posts per-application process targets on.  On a shared-memory machine the
  server's replies are equivalent to writes that applications read at their
  next poll; the board keeps the same staleness semantics as the paper's
  socket polling (applications look at most once per poll interval) without
  simulating byte streams.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple


class Channel:
    """A bounded, FIFO, blocking message channel.

    Attributes:
        name: label for traces.
        capacity: maximum queued messages; ``None`` means unbounded.
        messages: queued payloads.
        recv_waiters / send_waiters: blocked processes (kernel-managed).
        fault_filter: fault-injection hook; maps an outgoing message to the
            sequence actually delivered (``[]`` drops it, ``[m, m]``
            duplicates it).  ``None`` (the default) delivers normally.
    """

    __slots__ = (
        "name",
        "capacity",
        "messages",
        "recv_waiters",
        "send_waiters",
        "sends",
        "receives",
        "fault_filter",
    )

    def __init__(self, name: str = "channel", capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"channel capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self.messages: Deque[Any] = deque()
        self.recv_waiters: List[Any] = []
        # send_waiters holds (process, message) pairs awaiting space.
        self.send_waiters: List[Tuple[Any, Any]] = []
        self.sends = 0
        self.receives = 0
        self.fault_filter = None

    @property
    def full(self) -> bool:
        """True when a send would block."""
        return self.capacity is not None and len(self.messages) >= self.capacity

    @property
    def empty(self) -> bool:
        """True when a receive would block."""
        return not self.messages

    def __len__(self) -> int:
        return len(self.messages)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Channel {self.name!r} queued={len(self.messages)}>"


class ControlBoard:
    """Shared-memory cell holding the server's per-application targets.

    The server writes ``targets[app_id] -> allowed runnable processes``
    whenever it recomputes the partition; applications read their entry at
    safe suspension points, at most once per poll interval.  ``version``
    increments on every server update so readers (and tests) can tell stale
    data from fresh.

    The board also carries the *reverse* channel of the demand-aware
    policies: applications piggyback their task-queue backlog on each poll
    (and on registration) via :meth:`report_demand` -- another free
    shared-memory write on the simulated machine -- and the server's
    ``demand`` policy reads the accumulated snapshot when partitioning.
    """

    def __init__(self) -> None:
        self.targets: Dict[str, int] = {}
        self.version = 0
        #: Per-application dirty tracking: the board version at which each
        #: application's target last *changed value* (not merely was
        #: re-posted unchanged).  Readers remember the version they last
        #: acted on and skip work when their entry has not moved.
        self.app_version: Dict[str, int] = {}
        self.updated_at: Optional[int] = None
        #: Last backlog each application reported (queued + in-execution
        #: tasks), and when; consumed by demand-aware allocation policies.
        self.demands: Dict[str, int] = {}
        self.demand_reported_at: Dict[str, int] = {}
        #: QoS telemetry service tenants piggyback on the same polls:
        #: ``app_id -> (slowdown estimate, tier tag, reported at)``.
        #: Slowdown is observed latency over the tenant's nominal
        #: zero-load latency; tier is ``"interactive"`` or ``"batch"``.
        #: Consumed by the SLO-aware allocation policy; applications
        #: without a service profile never write here, so the channel is
        #: free for every pre-existing workload.
        self.qos: Dict[str, Tuple[float, str, int]] = {}
        #: Compliance telemetry the runtimes piggyback on their polls:
        #: ``app_id -> ComplianceReport`` (see
        #: :mod:`repro.threads.compliance`).  Records how promptly the
        #: tenant's runtime adopts published targets (adoption lag), how
        #: many workers it keeps runnable above its target (residual
        #: overshoot), and how often it reaches a safe suspension point.
        #: Consumed by the compliance-aware allocation policy; free
        #: shared-memory writes, so the channel costs nothing when unused.
        self.compliance: Dict[str, Any] = {}
        #: When each application's *current* target value was first
        #: posted (used by the runtimes to measure adoption lag from the
        #: server's publish instant rather than from their own read).
        self.target_posted_at: Dict[str, int] = {}
        #: Liveness word: the owning server stamps the board every scan
        #: (see :meth:`beat`); a watchdog that sees the stamp stop aging
        #: declares the server suspect.  Free shared-memory traffic.
        self.heartbeat_at: Optional[int] = None
        self.heartbeat_seq = 0
        #: Crash epoch: when the owning server dies *detectably* (killed
        #: by an injector, not merely wedged) the kernel-side teardown
        #: stamps the time here, so readers age the stale targets from
        #: the crash instant rather than from the last write.
        self.crashed_at: Optional[int] = None

    def post(self, targets: Dict[str, int], now: int) -> None:
        """Publish a new target map (server side)."""
        for app_id, target in targets.items():
            if target < 0:
                raise ValueError(
                    f"negative target {target} for application {app_id!r}"
                )
        old = self.targets
        self.version += 1
        version = self.version
        app_version = self.app_version
        posted_at = self.target_posted_at
        for app_id, target in targets.items():
            if old.get(app_id) != target:
                app_version[app_id] = version
                posted_at[app_id] = now
        for app_id in old:
            if app_id not in targets:
                app_version.pop(app_id, None)
                posted_at.pop(app_id, None)
        self.targets = dict(targets)
        self.updated_at = now
        # A live post supersedes any recorded crash of a prior incarnation.
        self.crashed_at = None

    def post_delta(
        self,
        changes: Dict[str, int],
        removals: Tuple[str, ...],
        now: int,
    ) -> None:
        """Patch the target map in place (server side, sparse path).

        Equivalent to :meth:`post` of the full map with *changes* applied
        and *removals* dropped, but the cost is proportional to what
        actually changed -- the write the incremental control server emits
        when only a handful of the 10k applications moved this scan.
        """
        for app_id, target in changes.items():
            if target < 0:
                raise ValueError(
                    f"negative target {target} for application {app_id!r}"
                )
        targets = self.targets
        self.version += 1
        version = self.version
        app_version = self.app_version
        posted_at = self.target_posted_at
        for app_id, target in changes.items():
            if targets.get(app_id) != target:
                targets[app_id] = target
                app_version[app_id] = version
                posted_at[app_id] = now
        for app_id in removals:
            if targets.pop(app_id, None) is not None:
                app_version.pop(app_id, None)
                posted_at.pop(app_id, None)
        self.updated_at = now
        self.crashed_at = None

    def read_app(self, app_id: str) -> Tuple[Optional[int], int]:
        """Read ``(target, dirty version)`` for *app_id* (application side).

        The second element is the board version at which the entry last
        changed (0 when never posted); a reader that remembers the version
        it last honoured can skip its adjustment logic entirely when the
        entry is clean.
        """
        return self.targets.get(app_id), self.app_version.get(app_id, 0)

    def beat(self, now: int) -> None:
        """Stamp the liveness word (server side, once per scan)."""
        self.heartbeat_at = now
        self.heartbeat_seq += 1

    def mark_crashed(self, now: int) -> None:
        """Record the owning server's death (kernel/injector side)."""
        self.crashed_at = now

    def read(self, app_id: str) -> Optional[int]:
        """Read the current target for *app_id* (application side).

        Returns ``None`` when the server has not yet published a target for
        this application, in which case the application leaves its process
        count alone.
        """
        return self.targets.get(app_id)

    def report_demand(self, app_id: str, backlog: int, now: int) -> None:
        """Record *app_id*'s task-queue backlog (application side)."""
        if backlog < 0:
            raise ValueError(
                f"negative backlog {backlog} for application {app_id!r}"
            )
        self.demands[app_id] = backlog
        self.demand_reported_at[app_id] = now

    def demand_snapshot(self) -> Dict[str, int]:
        """The reported backlogs (server side; absent = never reported)."""
        return dict(self.demands)

    def report_qos(
        self, app_id: str, slowdown: float, tier: str, now: int
    ) -> None:
        """Record *app_id*'s latency-slowdown estimate (application side)."""
        if slowdown < 0:
            raise ValueError(
                f"negative slowdown {slowdown} for application {app_id!r}"
            )
        self.qos[app_id] = (slowdown, tier, now)

    def qos_snapshot(self) -> Dict[str, Tuple[float, str, int]]:
        """The reported QoS estimates (server side; absent = no report)."""
        return dict(self.qos)

    def report_compliance(self, app_id: str, report: Any) -> None:
        """Record *app_id*'s runtime-compliance report (application side).

        *report* is a :class:`repro.threads.compliance.ComplianceReport`
        (kept duck-typed here: the kernel layer must not import the
        threads layer).
        """
        self.compliance[app_id] = report

    def compliance_snapshot(self) -> Dict[str, Any]:
        """The reported compliance telemetry (server side)."""
        return dict(self.compliance)

    def posted_at(self, app_id: str) -> Optional[int]:
        """When *app_id*'s current target value was first published."""
        return self.target_posted_at.get(app_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ControlBoard v{self.version} {self.targets}>"
