"""ControlPlane: a thin router over sharded process-control servers.

The paper's Section 5 server is a single daemon -- a centralized
bottleneck once applications and processors grow.  The control plane
scales it horizontally: N :class:`~repro.core.server.ProcessControlServer`
instances, each owning a processor *region* (an equal slice of the online
processors, recomputed every round so CPU hot-plug rebalances
automatically), with applications routed to shards round-robin in arrival
order.  Every shard runs its own clone of one :class:`~repro.core.
allocation.AllocationPolicy` over its own region and its own
applications, so the aggregate allocation converges to the single-server
one while each server's scan/partition work shrinks by the shard count.

With ``shards=1`` (the default everywhere) the plane degenerates to
exactly the paper's single server -- same process name, same spawn, same
syscall sequence -- so default runs stay bit-identical to the unsharded
implementation.

Failure handling mirrors the single server's: shard crashes leave their
boards stale (applications degrade through the threads package's
stale-target TTL), and :meth:`rebalance` re-routes the dead shard's
applications to live shards; a restart re-spreads them.  The plane also
exposes the single-server fault surface (``crash``/``restart``/``pid``/
``interval_jitter``/``boards``/``channels``), so every fault injector
works unchanged against every shard.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.allocation import AllocationPolicy
from repro.core.server import ProcessControlServer
from repro.kernel import Kernel
from repro.kernel.ipc import Channel, ControlBoard
from repro.kernel.process import Process

#: Environment knob consulted by ``run_scenario`` when the scenario leaves
#: ``shards`` unset (the experiments CLI sets it from ``--shards``).
SHARDS_ENV_VAR = "REPRO_SHARDS"


class _RoutedBoard:
    """A per-application view that follows the plane's shard routing.

    Threads packages hold one board reference for the whole run; routing
    reads through the plane keeps that reference valid across rebalances
    (the view always delegates to the application's *current* shard), and
    keeps fault shims effective (they wrap the underlying shard boards,
    which the view resolves on every access).
    """

    __slots__ = ("_plane", "_app_id")

    def __init__(self, plane: "ControlPlane", app_id: str) -> None:
        self._plane = plane
        self._app_id = app_id

    @property
    def _board(self) -> ControlBoard:
        return self._plane.shard_server(self._app_id).board

    def read(self, app_id: str) -> Optional[int]:
        return self._board.read(app_id)

    def read_app(self, app_id: str):
        return self._board.read_app(app_id)

    def report_demand(self, app_id: str, backlog: int, now: int) -> None:
        self._board.report_demand(app_id, backlog, now)

    def report_qos(
        self, app_id: str, slowdown: float, tier: str, now: int
    ) -> None:
        self._board.report_qos(app_id, slowdown, tier, now)

    def report_compliance(self, app_id: str, report: object) -> None:
        self._board.report_compliance(app_id, report)

    def posted_at(self, app_id: str) -> Optional[int]:
        return self._board.posted_at(app_id)

    @property
    def updated_at(self) -> Optional[int]:
        return self._board.updated_at

    @property
    def crashed_at(self) -> Optional[int]:
        return self._board.crashed_at

    @property
    def heartbeat_at(self) -> Optional[int]:
        return self._board.heartbeat_at

    @property
    def heartbeat_seq(self) -> int:
        return self._board.heartbeat_seq

    @property
    def targets(self) -> Dict[str, int]:
        return self._board.targets

    @property
    def version(self) -> int:
        return self._board.version

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RoutedBoard {self._app_id!r} -> {self._board!r}>"


class ControlPlane:
    """Router + lifecycle manager for N sharded control servers.

    Args:
        kernel: the simulated kernel.
        shards: server count; 1 reproduces the paper's single server
            bit-identically.
        interval / compute_cost: forwarded to every
            :class:`ProcessControlServer`.
        policy: the allocation rule; every shard gets its own
            :meth:`~repro.core.allocation.AllocationPolicy.clone`, because
            a policy's cross-round memory is pruned against the
            applications it last saw and shards see disjoint sets.
            ``None`` runs the paper's equipartition.
        name: base process name; shard *i* of a multi-shard plane is
            ``f"{name}-{i}"``.
    """

    def __init__(
        self,
        kernel: Kernel,
        shards: int = 1,
        interval: Optional[int] = None,
        compute_cost: int = 500,
        policy: Optional[AllocationPolicy] = None,
        name: str = "pc-server",
    ) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.kernel = kernel
        self.n_shards = shards
        self.name = name
        self.servers: List[ProcessControlServer] = []
        for index in range(shards):
            server = ProcessControlServer(
                kernel,
                interval=interval,
                compute_cost=compute_cost,
                name=name if shards == 1 else f"{name}-{index}",
                policy=None if policy is None else policy.clone(),
            )
            if shards > 1:
                server.bind_shard(self, index)
            self.servers.append(server)
        #: app_id -> shard index (first-seen round-robin; rebalanced on
        #: shard failure/recovery).
        self.assignment: Dict[str, int] = {}
        self._assign_order: List[str] = []
        self._next_shard = 0
        #: Shards still owning a processor region.  ``None`` (the normal
        #: state) means *all* of them -- kept as a sentinel rather than a
        #: full set so the default capacity math is byte-for-byte the
        #: legacy formula.  :meth:`fail_over` shrinks it; restarts grow
        #: it back and restore the sentinel at full strength.
        self._active: Optional[Set[int]] = None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, app_id: str) -> int:
        """The shard responsible for *app_id* (assigning round-robin on
        first sight, so arrival order fully determines the routing)."""
        index = self.assignment.get(app_id)
        if index is None:
            index = self._next_shard % self.n_shards
            self._next_shard += 1
            self.assignment[app_id] = index
            self._assign_order.append(app_id)
        return index

    def shard_server(self, app_id: str) -> ProcessControlServer:
        """The server instance currently responsible for *app_id*."""
        return self.servers[self.shard_of(app_id)]

    def board_for(self, app_id: str) -> Any:
        """The board *app_id*'s threads package should poll.

        Single-shard planes hand out the raw board (the exact legacy
        object); multi-shard planes hand out a routed view that follows
        rebalances.
        """
        if self.n_shards == 1:
            self.shard_of(app_id)  # record the assignment anyway
            return self.servers[0].board
        return _RoutedBoard(self, app_id)

    def channel_for(self, app_id: str) -> Channel:
        """The registration channel for *app_id*'s shard."""
        return self.shard_server(app_id).channel

    def active_shards(self) -> List[int]:
        """Shards currently owning a processor region, ascending."""
        if self._active is None:
            return list(range(self.n_shards))
        return sorted(self._active)

    def shard_capacity(self, index: int) -> int:
        """Processors shard *index* is responsible for right now.

        The online processors are sliced into near-equal regions over the
        *active* shards each round, so CPU hot-plug -- and shard failover,
        which removes a shard from the active set and lets the survivors
        absorb its region -- rebalances capacity automatically.  Floored
        at 1: a shard that lost its whole region (or was failed over but
        somehow still scans) still honours the starvation guarantee for
        any application routed to it.
        """
        active = self.active_shards()
        if index not in active:
            return 1
        online = len(self.kernel.online_cpus())
        base, extra = divmod(online, len(active))
        position = active.index(index)
        return max(1, base + (1 if position < extra else 0))

    def shard_uncontrolled(self, index: int, total: int) -> int:
        """Shard *index*'s slice of the machine-wide uncontrolled load."""
        active = self.active_shards()
        if index not in active:
            return 0
        base, extra = divmod(total, len(active))
        position = active.index(index)
        return base + (1 if position < extra else 0)

    def server_pids(self) -> Set[Optional[int]]:
        """Live pids of every shard server (excluded from uncontrolled
        load -- the control plane must not charge itself to the apps)."""
        return {server.pid for server in self.servers}

    def rebalance(self, spread: bool = False) -> Dict[str, int]:
        """Re-route applications after a shard failure or recovery.

        With *spread* false (the post-crash mode), only applications whose
        shard is dead move, round-robin onto the live shards.  With
        *spread* true (the post-restart mode), every application is
        re-routed round-robin over the live shards in first-assignment
        order, restoring the balanced routing.  Returns the moves
        (``app_id -> new shard``); no live shard means nothing to do --
        the stale-target TTL in the threads package owns a total outage.
        """
        active = set(self.active_shards())
        live = [
            index
            for index, server in enumerate(self.servers)
            if server.pid is not None and index in active
        ]
        if not live:
            return {}
        moves: Dict[str, int] = {}
        cursor = 0
        for app_id in self._assign_order:
            current = self.assignment[app_id]
            if spread or current not in live:
                target = live[cursor % len(live)]
                cursor += 1
                if target != current:
                    self.assignment[app_id] = target
                    moves[app_id] = target
        if moves:
            # Invalidate the shards' sparse-census views: the moved
            # applications change which server's scan must count them.
            for server in self.servers:
                server.note_routing_moves(moves)
            self.kernel.trace.emit(
                self.kernel.now, "plane.rebalance", moves=dict(moves)
            )
        return moves

    # ------------------------------------------------------------------
    # Lifecycle (single-server fault surface, fanned out)
    # ------------------------------------------------------------------

    def start(self) -> List[Process]:
        """Spawn every shard server."""
        return [server.start() for server in self.servers]

    @property
    def pid(self) -> Optional[int]:
        """A live shard's pid, or ``None`` when the whole plane is down
        (the shape fault injectors probe before crash/restart)."""
        for server in self.servers:
            if server.pid is not None:
                return server.pid
        return None

    def crash(self) -> bool:
        """Crash every live shard (total control-plane outage)."""
        crashed = False
        for server in self.servers:
            if server.pid is not None:
                crashed = server.crash() or crashed
        self.rebalance()
        return crashed

    def crash_shard(self, index: int) -> bool:
        """Crash one shard and re-route its applications to the others."""
        crashed = self.servers[index].crash()
        if crashed:
            self.rebalance()
        return crashed

    def restart(self) -> Process:
        """Restart every dead shard and re-spread the routing."""
        restarted: List[Process] = []
        for server in self.servers:
            if server.pid is None:
                restarted.append(server.restart())
        if not restarted:
            raise RuntimeError("server is already running")
        self._active = None  # full strength: every region owned again
        self.rebalance(spread=True)
        return restarted[0]

    def restart_shard(self, index: int) -> Process:
        """Restart one dead shard, return its region, re-spread routing."""
        process = self.servers[index].restart()
        if self._active is not None:
            self._active.add(index)
            if len(self._active) == self.n_shards:
                self._active = None
        self.rebalance(spread=True)
        return process

    def fail_over(self, index: int) -> Dict[str, int]:
        """Write shard *index* off: give its region and apps to survivors.

        The shard leaves the active set (so :meth:`shard_capacity` splits
        the online processors over the remaining shards -- the survivors
        absorb the orphaned region) and its applications are re-routed to
        live active shards.  If no survivor exists the routing is left
        alone and the returned move map is empty: the plane is *degraded*,
        and the threads package's stale-target TTL owns recovery.  A later
        :meth:`restart_shard`/:meth:`restart` returns the shard to
        service.
        """
        if self._active is None:
            self._active = set(range(self.n_shards))
        self._active.discard(index)
        server = self.servers[index]
        if server.pid is not None:
            server.crash()
        moves = self.rebalance()
        self.kernel.trace.emit(
            self.kernel.now,
            "plane.failover",
            shard=index,
            active=self.active_shards(),
            moves=dict(moves),
        )
        return moves

    def set_policy(
        self, policy: AllocationPolicy, shard: Optional[int] = None
    ) -> None:
        """Hot-swap the allocation rule on one shard (or all of them)."""
        targets = self.servers if shard is None else [self.servers[shard]]
        for server in targets:
            server.set_policy(policy)

    @property
    def interval_jitter(self):
        return self.servers[0].interval_jitter

    @interval_jitter.setter
    def interval_jitter(self, fn) -> None:
        for server in self.servers:
            server.interval_jitter = fn

    # ------------------------------------------------------------------
    # Aggregated diagnostics (single-server report surface)
    # ------------------------------------------------------------------

    @property
    def board(self) -> ControlBoard:
        """Shard 0's board (single-shard compatibility surface)."""
        return self.servers[0].board

    @property
    def channel(self) -> Channel:
        """Shard 0's channel (single-shard compatibility surface)."""
        return self.servers[0].channel

    @property
    def boards(self) -> List[ControlBoard]:
        return [server.board for server in self.servers]

    @property
    def channels(self) -> List[Channel]:
        return [server.channel for server in self.servers]

    @property
    def updates(self) -> int:
        return sum(server.updates for server in self.servers)

    @property
    def crashes(self) -> int:
        return sum(server.crashes for server in self.servers)

    @property
    def restarts(self) -> int:
        return sum(server.restarts for server in self.servers)

    @property
    def registered(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for server in self.servers:
            merged.update(server.registered)
        return merged

    @property
    def history(self) -> List[Tuple[int, Dict[str, int]]]:
        """Every shard's update history, merged in time order."""
        merged: List[Tuple[int, Dict[str, int]]] = []
        for server in self.servers:
            merged.extend(server.history)
        merged.sort(key=lambda entry: entry[0])
        return merged

    def published_targets(self) -> Dict[str, int]:
        """Targets in force across all shards (what the sanitizer audits).

        Shards own disjoint application sets under the current routing;
        after a rebalance both the old and new shard may list an
        application, in which case the *current* shard's word wins.
        """
        merged: Dict[str, int] = {}
        for server in self.servers:
            merged.update(server.board.targets)
        for app_id, index in self.assignment.items():
            target = self.servers[index].board.targets.get(app_id)
            if target is not None:
                merged[app_id] = target
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(1 for s in self.servers if s.pid is not None)
        return f"<ControlPlane shards={self.n_shards} live={live}>"
