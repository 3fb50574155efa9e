"""The process-control server (Section 5): one shard of a control plane.

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

Every server is one shard of a :class:`~repro.core.plane.ControlPlane`,
which builds it: it considers only the applications the plane routes to
it, against the processor region and uncontrolled-load share the plane
assigns it.  The paper's single daemon is the one-shard plane, whose
only shard owns every processor and every application.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Mapping, Optional

from repro.core.allocation import (
    AllocationPolicy,
    AllocationRequest,
    make_policy,
)
from repro.core.policy import IncrementalWaterFiller
from repro.kernel import syscalls as sc
from repro.kernel.ipc import Channel, ControlBoard
from repro.kernel.process import Process
from repro.sim import units

if TYPE_CHECKING:
    from repro.core.plane import ControlPlane


class ProcessControlServer:
    """One process-control server: shard *index* of *plane*.

    The plane builds its shards and starts them; each application's
    :class:`~repro.threads.package.ThreadsPackageConfig` takes the board
    and channel the plane routes it to.

    Args:
        plane: the :class:`~repro.core.plane.ControlPlane` this server is
            a shard of; the kernel to scan and spawn on is the plane's.
        index: this server's shard number in *plane*.
        interval: update period (paper: 6 s); must be positive.
        compute_cost: CPU cost of one partitioning decision (>= 0).
        name: process name (and registration-channel prefix).
        policy: the :class:`~repro.core.allocation.AllocationPolicy`
            deciding each round's targets; defaults to the paper's
            ``make_policy("equal")``.
    """

    def __init__(
        self,
        plane: "ControlPlane",
        index: int,
        interval: Optional[int] = None,
        compute_cost: int = 500,
        name: str = "pc-server",
        policy: Optional[AllocationPolicy] = None,
    ) -> None:
        self.plane = plane
        self.shard_index = index
        self.kernel = plane.kernel
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
        # --- Sparse-census scan state (see _scan) ---------------------
        self._census_cursor = 0
        #: Machine-wide alive process totals per controllable application,
        #: as of this server's journal cursor.
        self._alive_view: Dict[str, int] = {}
        #: Applications seen in the journal before the plane routed them;
        #: reconciled -- in first-spawn order, matching the table scan's
        #: assignment order -- at each scan.
        self._unassigned: Dict[str, int] = {}
        #: The caps of the slice of ``_alive_view`` the plane routes to
        #: this shard, sorted; gives policies that are plain equipartition
        #: O(log n) updates per application change.
        self._filler = IncrementalWaterFiller()

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------

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
            shard=self.shard_index,
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
        index = self.shard_index
        assignment = self.plane.assignment
        view = self._alive_view
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
                    filler.set_cap(app_id, total)
                else:
                    filler.remove(app_id)
            elif shard is None:
                if total > 0:
                    unassigned[app_id] = total
                else:
                    unassigned.pop(app_id, None)

    def _reconcile_unassigned(self) -> None:
        """Route applications that appeared in the journal before the
        plane assigned them a shard.

        The reference table scan assigns unrouted applications as a side
        effect of filtering each scan, in table (first-spawn) order; the
        journal inserts them into ``_unassigned`` in the same order, so
        replaying the round-robin here keeps the plane's assignment
        sequence -- and therefore every shard's application set --
        bit-identical to the table scan's.
        """
        if not self._unassigned:
            return
        plane = self.plane
        index = self.shard_index
        filler = self._filler
        for app_id, total in list(self._unassigned.items()):
            shard = plane.assignment.get(app_id)
            if shard is None:
                shard = plane.shard_of(app_id)
            if shard == index:
                filler.set_cap(app_id, total)
            del self._unassigned[app_id]

    def note_routing_moves(self, moves: Mapping[str, int]) -> None:
        """Plane callback: applications were re-routed (rebalance,
        failover, restart).  Patch this shard's views in place; totals
        come from *this server's* journal cursor, so the views stay
        internally consistent however far each shard's replay has got."""
        index = self.shard_index
        filler = self._filler
        for app_id, target in moves.items():
            if target == index:
                self._unassigned.pop(app_id, None)
                total = self._alive_view.get(app_id)
                if total:
                    filler.set_cap(app_id, total)
            else:
                filler.remove(app_id)

    def _scan(self):
        """One round's load query and decision (a sub-program of the
        server loop); returns this round's targets.

        The load summary is taken at the instant, and charged the cost, of
        a process-table read, but the host-side round costs O(changes
        since the last scan), not O(processes).  The literal table scan
        is :class:`repro.sanitize.reference.TableScanServer`.
        """
        plane = self.plane
        summary = yield sc.GetLoadSummary(
            exclude_pids=tuple(
                pid for pid in plane.server_pids() if pid is not None
            )
        )
        self._replay_census(summary.journal_len)
        self._reconcile_unassigned()
        index = self.shard_index
        return self._allocate(
            plane.shard_capacity(index),
            plane.shard_uncontrolled(index, summary.uncontrolled_runnable),
            summary.runnable_by_app,
            self.kernel.now,
        )

    def _allocate(
        self, capacity: int, uncontrolled: int, runnable: Mapping[str, int], now: int
    ) -> Dict[str, int]:
        """The allocation step: targets for the replayed census view."""
        if self.policy.equipartition:
            # The paper's rule: O(log n) incremental water-filling against
            # the sorted-cap structure the replay maintains.
            return self._filler.targets(capacity, uncontrolled)
        return self.policy.allocate(
            self._request(
                capacity, uncontrolled, self._filler.caps(), dict(runnable), now
            )
        )

    def _publish(self, targets: Dict[str, int]) -> None:
        """Sparse publish: patch only the board entries that moved, so a
        quiet scan bumps no per-application dirty versions and readers
        can tell their entry did not change."""
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
            targets = yield from self._scan()
            yield sc.Compute(self.compute_cost)
            self._publish(targets)
            # Liveness word for the watchdog: a free shared-memory stamp
            # once per scan (never an event, so golden traces hold).
            self.board.beat(self.kernel.now)
            self.updates += 1
            # Every scan returns a fresh map, so the record can keep it.
            self.kernel.trace.emit(
                self.kernel.now, "server.update", targets=targets
            )
            sleep_for = self.interval
            if self.interval_jitter is not None:
                sleep_for = max(1, sleep_for + int(self.interval_jitter()))
            yield sc.Sleep(sleep_for)
