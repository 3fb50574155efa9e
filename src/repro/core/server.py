"""The process-control server (Section 5), shardable.

A user-level daemon process that, every ``interval`` (6 seconds in the
paper), scans the kernel's process table, determines the runnable load of
uncontrollable applications, asks its :class:`~repro.core.allocation.
AllocationPolicy` to partition the remaining processors among the
controllable applications, and publishes the per-application targets on a
:class:`~repro.kernel.ipc.ControlBoard`.  Applications poll the board
(through their threads package) and suspend or resume their own worker
processes to match; the same polls piggyback each application's task-queue
backlog back onto the board, which demand-aware policies consume.

Applications announce themselves by sending a registration message with
their root pid (and initial backlog) on the server's channel; the server
keeps a registry (used for reporting and for the paper's parent-pid
bookkeeping) but derives its load information from the process table each
round, so it also notices applications that vanish without deregistering.

A server normally owns the whole machine.  Under a
:class:`~repro.core.plane.ControlPlane` it is *bound to a shard*: it then
considers only the applications the plane routes to it, against the
processor region and uncontrolled-load share the plane assigns it -- the
mechanism by which the paper's centralized bottleneck scales out.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core.allocation import (
    AllocationPolicy,
    AllocationRequest,
    make_policy,
)
from repro.core.policy import IncrementalWaterFiller, partition_processors
from repro.kernel import Kernel
from repro.kernel import syscalls as sc
from repro.kernel.ipc import Channel, ControlBoard
from repro.kernel.process import Process
from repro.sim import units


class ProcessControlServer:
    """One process-control server (the whole machine, or one shard).

    Create it, then call :meth:`start` to spawn the server process.  Pass
    :attr:`board` (and optionally :attr:`channel`) to each application's
    :class:`~repro.threads.package.ThreadsPackageConfig`.

    Args:
        kernel: the simulated kernel to scan and spawn on.
        interval: update period (paper: 6 s); must be positive.
        compute_cost: CPU cost of one partitioning decision (>= 0).
        name: process name (and registration-channel prefix).
        policy: the :class:`~repro.core.allocation.AllocationPolicy`
            deciding each round's targets; defaults to the paper's
            ``make_policy("equal")``.
    """

    #: Use :class:`~repro.kernel.syscalls.GetLoadSummary` + journal replay
    #: instead of a full :class:`GetProcessTable` scan.  Same simulated
    #: cost and bit-identical targets; host-side work per scan becomes
    #: O(changes since the last scan) instead of O(processes).  A class
    #: attribute so tests can flip every server back to the legacy table
    #: scan (the differential baseline) in one place; instances may also
    #: override it individually.
    fast_scan = True

    def __init__(
        self,
        kernel: Kernel,
        interval: Optional[int] = None,
        compute_cost: int = 500,
        name: str = "pc-server",
        policy: Optional[AllocationPolicy] = None,
    ) -> None:
        self.kernel = kernel
        self.interval = interval if interval is not None else units.seconds(6)
        if self.interval <= 0:
            raise ValueError("server interval must be positive")
        if compute_cost < 0:
            raise ValueError("server compute_cost must be >= 0")
        self.compute_cost = compute_cost
        self.name = name
        #: The allocation rule this server applies each round.
        self.policy: AllocationPolicy = (
            policy if policy is not None else make_policy("equal")
        )
        self.board = ControlBoard()
        self.channel = Channel(f"{name}.register")
        self.pid: Optional[int] = None
        self.updates = 0
        self.registered: Dict[str, int] = {}
        #: (time, targets) after every update -- experiment diagnostics.
        self.history: List[Tuple[int, Dict[str, int]]] = []
        #: Fault-injection hook: when set, called once per round and the
        #: returned offset (us, may be negative) is added to the sleep
        #: interval.  ``None`` (the default) sleeps exactly ``interval``.
        self.interval_jitter = None
        self.crashes = 0
        self.restarts = 0
        #: When :meth:`set_policy` last swapped the rule (``None`` = never);
        #: the sanitizer reads this to open its transition window.
        self.policy_swapped_at: Optional[int] = None
        self.policy_swaps = 0
        # Shard binding (None = this server owns the whole machine).
        self._plane: Optional[Any] = None
        self._shard_index: int = 0
        # --- Sparse-census scan state (see the fast_scan class attr) ----
        self._census_cursor = 0
        #: Machine-wide alive process totals per controllable application,
        #: as of this server's journal cursor.
        self._alive_view: Dict[str, int] = {}
        #: The slice of ``_alive_view`` routed to this shard (aliases the
        #: full view on an unsharded server).
        self._my_apps: Dict[str, int] = self._alive_view
        #: Applications seen in the journal before the plane routed them
        #: (sharded only); reconciled -- in first-spawn order, matching
        #: the table scan's assignment order -- at each scan.
        self._unassigned: Dict[str, int] = {}
        #: Sorted-cap structure mirroring ``_my_apps``; gives policies
        #: that are plain equipartition O(log n) updates per application
        #: change.
        self._filler = IncrementalWaterFiller()
        #: Under REPRO_SANITIZE, re-derive every fast-scan round from
        #: first principles (batch water-filling over a fresh snapshot)
        #: and fail loudly on any divergence.
        self._check_scans = bool(os.environ.get("REPRO_SANITIZE"))

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------

    def bind_shard(self, plane: Any, index: int) -> None:
        """Attach this server to *plane* as shard *index*.

        A bound server partitions only the plane's processor region for
        this shard, among the applications the plane routes here, and
        excludes every sibling server from the uncontrolled load.
        """
        self._plane = plane
        self._shard_index = index
        # A bound server's shard slice is a proper subset of the machine
        # view, so it needs its own dict (unsharded servers alias them).
        self._my_apps = {}

    @property
    def shard_index(self) -> int:
        """This server's shard number (0 for an unbound server)."""
        return self._shard_index

    @property
    def boards(self) -> List[ControlBoard]:
        """Uniform multi-shard surface (fault injectors iterate this)."""
        return [self.board]

    @property
    def channels(self) -> List[Channel]:
        """Uniform multi-shard surface (fault injectors iterate this)."""
        return [self.channel]

    def published_targets(self) -> Dict[str, int]:
        """The targets currently in force (what the sanitizer audits)."""
        return dict(self.board.targets)

    def set_policy(self, policy: AllocationPolicy) -> AllocationPolicy:
        """Hot-swap the allocation rule; returns the one replaced.

        Safe at any instant: the running scan loop re-reads
        ``self.policy`` each round, so the swap takes effect at the next
        scan boundary.  Targets on the board stay whatever the *old*
        policy posted until then -- the one-scan transition window the
        sanitizer's share-overrun check is taught to tolerate (it reads
        :attr:`policy_swapped_at`).
        """
        previous = self.policy
        self.policy = policy
        self.policy_swapped_at = self.kernel.now
        self.policy_swaps += 1
        self.kernel.trace.emit(
            self.kernel.now,
            "pc.policy_swap",
            server=self.name,
            shard=self._shard_index,
            old=getattr(previous, "name", type(previous).__name__),
            new=getattr(policy, "name", type(policy).__name__),
        )
        return previous

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> Process:
        """Spawn the server process (daemon: it never exits by itself)."""
        if self.pid is not None:
            raise RuntimeError("server already started")
        process = self.kernel.spawn(
            self._program(), name=self.name, daemon=True, controllable=False
        )
        self.pid = process.pid
        return process

    def crash(self) -> bool:
        """Kill the server process in place (fault injection).

        The board deliberately keeps its now-stale targets: applications
        discover the outage through their stale-target TTL, not through
        the crash itself -- exactly the partial-failure mode a silent
        server death produces.  Returns ``False`` if not running.
        """
        if self.pid is None:
            return False
        killed = self.kernel.kill(self.pid)
        self.kernel.trace.emit(self.kernel.now, "server.crash", pid=self.pid)
        # Stamp the crash epoch: the targets stay readable, but readers
        # (and the watchdog) can now age them from the death instant
        # instead of from whenever the server last wrote.
        self.board.mark_crashed(self.kernel.now)
        self.pid = None
        self.crashes += 1
        return killed

    def restart(self) -> Process:
        """Restart after a crash, rebuilding the registry from the process
        table (the crash-safe re-registration the module docstring
        promises: registration is a courtesy, the table is the truth)."""
        if self.pid is not None:
            raise RuntimeError("server is already running")
        rebuilt: Dict[str, int] = {}
        for process in self.kernel.processes.values():
            if process.alive and process.controllable and process.app_id:
                root = rebuilt.get(process.app_id)
                # The root is the first-spawned (lowest-pid) live worker.
                if root is None or process.pid < root:
                    rebuilt[process.app_id] = process.pid
        self.registered = rebuilt
        process = self.kernel.spawn(
            self._program(), name=self.name, daemon=True, controllable=False
        )
        self.pid = process.pid
        # The new incarnation owns the board again; its first post would
        # clear the epoch anyway, but readers should not treat the
        # restart window as an ongoing crash.
        self.board.crashed_at = None
        self.restarts += 1
        self.kernel.trace.emit(
            self.kernel.now,
            "server.restart",
            pid=self.pid,
            reregistered=sorted(rebuilt),
        )
        return process

    # ------------------------------------------------------------------
    # Sparse-census scanning (journal replay)
    # ------------------------------------------------------------------

    def _replay_census(self, journal_len: int) -> None:
        """Fold kernel census-journal entries ``[cursor, journal_len)``
        into this server's views.  O(changes since the last scan)."""
        entries = self.kernel.census_journal_entries(
            self._census_cursor, journal_len
        )
        self._census_cursor = journal_len
        plane = self._plane
        if plane is None:
            # Unsharded: _my_apps aliases _alive_view; one pass updates
            # both, plus the sorted-cap structure.
            view = self._alive_view
            filler = self._filler
            for app_id, total in entries:
                if total > 0:
                    view[app_id] = total
                    filler.set_cap(app_id, total)
                else:
                    view.pop(app_id, None)
                    filler.remove(app_id)
            return
        index = self._shard_index
        assignment = plane.assignment
        view = self._alive_view
        mine = self._my_apps
        unassigned = self._unassigned
        filler = self._filler
        for app_id, total in entries:
            if total > 0:
                view[app_id] = total
            else:
                view.pop(app_id, None)
            shard = assignment.get(app_id)
            if shard == index:
                if total > 0:
                    mine[app_id] = total
                    filler.set_cap(app_id, total)
                else:
                    mine.pop(app_id, None)
                    filler.remove(app_id)
            elif shard is None:
                if total > 0:
                    unassigned[app_id] = total
                else:
                    unassigned.pop(app_id, None)

    def _reconcile_unassigned(self, plane: Any) -> None:
        """Route applications that appeared in the journal before the
        plane assigned them a shard.

        The table-scan path assigns unrouted applications as a side
        effect of filtering each scan, in table (first-spawn) order; the
        journal inserts them into ``_unassigned`` in the same order, so
        replaying the round-robin here keeps the plane's assignment
        sequence -- and therefore every shard's application set --
        bit-identical to the legacy scan's.
        """
        if not self._unassigned:
            return
        index = self._shard_index
        mine = self._my_apps
        filler = self._filler
        for app_id, total in list(self._unassigned.items()):
            shard = plane.assignment.get(app_id)
            if shard is None:
                shard = plane.shard_of(app_id)
            if shard == index:
                mine[app_id] = total
                filler.set_cap(app_id, total)
            del self._unassigned[app_id]

    def note_routing_moves(self, moves: Mapping[str, int]) -> None:
        """Plane callback: applications were re-routed (rebalance,
        failover, restart).  Patch this shard's views in place; totals
        come from *this server's* journal cursor, so the views stay
        internally consistent however far each shard's replay has got."""
        if self._plane is None:
            return
        index = self._shard_index
        mine = self._my_apps
        filler = self._filler
        for app_id, target in moves.items():
            if target == index:
                self._unassigned.pop(app_id, None)
                total = self._alive_view.get(app_id)
                if total:
                    mine[app_id] = total
                    filler.set_cap(app_id, total)
            elif app_id in mine:
                del mine[app_id]
                filler.remove(app_id)

    def _targets_from_summary(
        self, summary: sc.LoadSummary, now: int
    ) -> Dict[str, int]:
        """One partitioning decision from a :class:`GetLoadSummary` reply
        (the sparse sibling of :meth:`compute_targets`)."""
        self._replay_census(summary.journal_len)
        plane = self._plane
        if plane is not None:
            self._reconcile_unassigned(plane)
            index = self._shard_index
            capacity = plane.shard_capacity(index)
            uncontrolled = plane.shard_uncontrolled(
                index, summary.uncontrolled_runnable
            )
        else:
            capacity = self.kernel.online_processor_count()
            uncontrolled = summary.uncontrolled_runnable
        if self.policy.equipartition:
            # The paper's rule: O(log n) incremental water-filling against
            # the sorted-cap structure the replay maintains.
            targets = self._filler.targets(capacity, uncontrolled)
        else:
            targets = self.policy.allocate(
                self._request(
                    capacity,
                    uncontrolled,
                    dict(self._my_apps),
                    dict(summary.runnable_by_app),
                    now,
                )
            )
        if self._check_scans:
            self._check_fast_scan(targets, capacity, uncontrolled)
        return targets

    def _check_fast_scan(
        self, targets: Dict[str, int], capacity: int, uncontrolled: int
    ) -> None:
        """REPRO_SANITIZE oracle: the incremental allocation must equal the
        batch rule on the same inputs, and the replayed views must equal
        the filler's.  (The census counters themselves are cross-checked
        against a real table walk inside the kernel's syscall handler,
        where both sides see the same instant.)"""
        if self.policy.equipartition:
            batch = partition_processors(
                capacity, uncontrolled, dict(self._my_apps)
            )
            if batch != targets:
                raise AssertionError(
                    "incremental water-filling diverged from the batch "
                    f"oracle: incremental={targets} batch={batch} "
                    f"caps={dict(self._my_apps)} capacity={capacity} "
                    f"uncontrolled={uncontrolled}"
                )
        if self._filler.caps() != dict(self._my_apps):
            raise AssertionError(
                "sorted-cap structure diverged from the replayed census "
                f"view: filler={self._filler.caps()} view={dict(self._my_apps)}"
            )

    # ------------------------------------------------------------------
    # The partitioning round
    # ------------------------------------------------------------------

    def _request(
        self,
        capacity: int,
        uncontrolled: int,
        app_totals: Dict[str, int],
        runnable: Dict[str, int],
        now: int,
    ) -> AllocationRequest:
        """The policy's snapshot: this round's load plus the board's
        telemetry and currently published targets."""
        board = self.board
        return AllocationRequest(
            n_processors=capacity,
            uncontrolled_runnable=uncontrolled,
            app_totals=app_totals,
            demands=board.demand_snapshot(),
            demand_reported_at=dict(board.demand_reported_at),
            qos=board.qos_snapshot(),
            published=dict(board.targets),
            runnable=runnable,
            compliance=board.compliance_snapshot(),
            now=now,
        )

    def compute_targets(
        self, table: List[sc.Syscall], now: int
    ) -> Dict[str, int]:
        """One partitioning decision from a process-table snapshot.

        Split out of the server loop so tests can drive it directly with a
        synthetic table.
        """
        plane = self._plane
        if plane is not None:
            # Sibling shard servers are system daemons too; none of them
            # is load the applications should be charged for.
            own_pids = plane.server_pids()
        else:
            own_pids = {self.pid}
        uncontrolled = sum(
            1
            for row in table
            if row.runnable and not row.controllable and row.pid not in own_pids
        )
        app_totals: Dict[str, int] = {}
        app_runnable: Dict[str, int] = {}
        for row in table:
            if row.controllable and row.app_id is not None:
                app_totals[row.app_id] = app_totals.get(row.app_id, 0) + 1
                if row.runnable:
                    app_runnable[row.app_id] = (
                        app_runnable.get(row.app_id, 0) + 1
                    )
        if plane is not None:
            index = self._shard_index
            app_totals = {
                app_id: total
                for app_id, total in app_totals.items()
                if plane.shard_of(app_id) == index
            }
            capacity = plane.shard_capacity(index)
            uncontrolled = plane.shard_uncontrolled(index, uncontrolled)
        else:
            # Only the processors that are actually in service: the
            # water-filling policy's >=1-per-application floor then keeps
            # every application alive even under CPU loss (the starvation
            # floor holds because it is computed against real capacity).
            capacity = self.kernel.online_processor_count()
        return self.policy.allocate(
            self._request(capacity, uncontrolled, app_totals, app_runnable, now)
        )

    def _program(self):
        while True:
            # Drain registration messages without blocking: on a
            # shared-memory machine peeking at the queue depth is free;
            # each actual receive is charged normally.
            while len(self.channel):
                message = yield sc.ChannelReceive(self.channel)
                if len(message) != 4 or message[0] != "register":
                    raise ValueError(
                        f"{self.name}: malformed message {message!r}; "
                        "expected ('register', app_id, root_pid, backlog)"
                    )
                _, app_id, root_pid, backlog = message
                self.registered[app_id] = root_pid
                self.board.report_demand(app_id, backlog, self.kernel.now)
                self.kernel.trace.emit(
                    self.kernel.now,
                    "server.register",
                    app_id=app_id,
                    root_pid=root_pid,
                )
            if self.fast_scan:
                # Same snapshot instant and same simulated cost as the
                # table scan below; the reply is O(1) counters plus a
                # journal watermark, so the host-side round costs
                # O(changes) instead of O(processes).
                plane = self._plane
                own_pids = (
                    plane.server_pids() if plane is not None else {self.pid}
                )
                summary = yield sc.GetLoadSummary(
                    exclude_pids=tuple(
                        pid for pid in own_pids if pid is not None
                    )
                )
                targets = self._targets_from_summary(summary, self.kernel.now)
                # Not held across the sleep: the reply carries a
                # machine-wide runnable_by_app copy, one per shard.
                del summary
            else:
                table = yield sc.GetProcessTable()
                targets = self.compute_targets(table, self.kernel.now)
            yield sc.Compute(self.compute_cost)
            if self.fast_scan:
                # Sparse publish: patch only the entries that moved, so a
                # quiet scan bumps no per-application dirty versions and
                # readers can tell their entry did not change.
                board_targets = self.board.targets
                changes = {
                    app_id: target
                    for app_id, target in targets.items()
                    if board_targets.get(app_id) != target
                }
                removals = tuple(
                    app_id for app_id in board_targets if app_id not in targets
                )
                self.board.post_delta(changes, removals, self.kernel.now)
            else:
                self.board.post(targets, self.kernel.now)
            # Liveness word for the watchdog: a free shared-memory stamp
            # once per scan (never an event, so golden traces hold).
            self.board.beat(self.kernel.now)
            self.updates += 1
            self.history.append((self.kernel.now, dict(targets)))
            self.kernel.trace.emit(
                self.kernel.now, "server.update", targets=dict(targets)
            )
            sleep_for = self.interval
            if self.interval_jitter is not None:
                sleep_for = max(1, sleep_for + int(self.interval_jitter()))
            yield sc.Sleep(sleep_for)
