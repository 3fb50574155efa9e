"""The control-plane watchdog: detect dead shards, drive recovery.

Failure detection is *pull*: every control server stamps a heartbeat word
on its shard board once per scan (a free shared-memory write), and the
watchdog -- an ordinary seeded calendar actor, exactly like the fault
injectors -- samples those words every ``check_period``.  A shard whose
word has not advanced within ``deadline`` (or whose board carries a crash
epoch, the simulated SIGCHLD) is declared **suspect**, and recovery
escalates deterministically:

1. **restart with exponential backoff** -- up to ``max_restarts``
   attempts, spaced ``restart_backoff * backoff_factor**attempt`` apart;
   a shard that then stays healthy for ``reset_after`` earns its retry
   budget back.  A *wedged* server (process alive, heartbeat stale) is
   killed first, then respawned.
2. **failover** -- once the budget is exhausted the shard is written off:
   :meth:`~repro.core.plane.ControlPlane.fail_over` removes it from the
   active set, so the survivors absorb its processor region and its
   applications are re-routed to live shards (the idle-region case of
   ROADMAP's cross-shard work stealing).
3. **degraded mode** -- when no shard survives, the watchdog emits one
   terminal ``watchdog.degraded`` record and stands down; the threads
   package's stale-target TTL then releases every orphaned application
   to full parallelism, which is the best the machine can do without a
   control plane.

Optionally (``policy_cold_ttl``) the watchdog also guards the *demand*
feedback loop: a shard running a demand-aware policy whose newest backlog
report has gone cold is hot-swapped to equipartition via
:meth:`~repro.core.server.ProcessControlServer.set_policy`, and swapped
back once telemetry warms up -- allocation should never follow telemetry
that nobody is producing.

Everything the watchdog does is a pure function of (scenario, seed,
fault plan): its randomness is one phase-offset draw from its own named
stream, and its actions are calendar events, so supervised runs replay
bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.core.allocation import AllocationPolicy, make_policy
from repro.sim.rand import RandomStreams

#: Environment knob consulted by ``run_scenario`` when the scenario leaves
#: ``supervise`` unset (the experiments CLI sets it from ``--supervise``).
SUPERVISE_ENV_VAR = "REPRO_SUPERVISE"


@dataclass
class WatchdogConfig:
    """Supervision timings, all in microseconds (``None`` = derived).

    Attributes:
        check_period: how often the watchdog samples the heartbeat words;
            defaults to half the server scan interval.
        deadline: heartbeat age past which a shard is suspect; defaults
            to ``deadline_factor`` scan intervals *plus* two scheduling
            quanta of dispatch slack.  A scan may legitimately land late
            under load -- a woken server waits behind CPU-bound workers
            for up to a full time slice per processor, so on a paper-era
            100ms-quantum machine an interval-only deadline would restart
            perfectly healthy servers.  (Crash detection does not wait
            for the deadline: a board crash epoch is suspect on the very
            next check.)
        deadline_factor: multiplier for the derived deadline.
        restart_backoff: base delay between restart attempts; defaults to
            ``check_period``.
        backoff_factor: exponential growth of the restart delay.
        max_restarts: restart attempts per shard before failover.
        reset_after: healthy time after which a shard's attempt counter
            resets; defaults to ``4 * deadline``.
        policy_cold_ttl: when set, a shard running a demand-aware policy
            whose newest backlog report is older than this is swapped to
            equipartition until telemetry warms up again.
    """

    check_period: Optional[int] = None
    deadline: Optional[int] = None
    deadline_factor: int = 3
    restart_backoff: Optional[int] = None
    backoff_factor: int = 2
    max_restarts: int = 3
    reset_after: Optional[int] = None
    policy_cold_ttl: Optional[int] = None

    def resolve(self, interval: int, slack: int = 0) -> "WatchdogConfig":
        """A fully-concrete copy, derived from the server scan interval.

        *slack* is the machine's worst-case dispatch delay (the watchdog
        passes two scheduling quanta); it widens only the *derived*
        deadline -- an explicit ``deadline`` is taken at face value.
        """
        check = self.check_period
        if check is None:
            check = max(1, interval // 2)
        deadline = self.deadline
        if deadline is None:
            deadline = self.deadline_factor * interval + max(0, slack)
        backoff = self.restart_backoff
        if backoff is None:
            backoff = check
        reset_after = self.reset_after
        if reset_after is None:
            reset_after = 4 * deadline
        if check <= 0 or deadline <= 0 or backoff <= 0 or reset_after <= 0:
            raise ValueError("watchdog timings must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        return WatchdogConfig(
            check_period=check,
            deadline=deadline,
            deadline_factor=self.deadline_factor,
            restart_backoff=backoff,
            backoff_factor=self.backoff_factor,
            max_restarts=self.max_restarts,
            reset_after=reset_after,
            policy_cold_ttl=self.policy_cold_ttl,
        )


@dataclass
class _ShardHealth:
    """The watchdog's private view of one shard."""

    state: str = "healthy"  # healthy | suspect | restarting | failed
    #: Grace anchor for a shard that has never beaten (startup, or just
    #: restarted): its deadline ages from here, not from epoch 0.
    watch_since: int = 0
    suspected_at: Optional[int] = None
    restarts_attempted: int = 0
    last_restart_at: Optional[int] = None
    next_restart_at: Optional[int] = None
    #: The policy displaced by a cold-telemetry swap (restored on warmth).
    saved_policy: Optional[AllocationPolicy] = None


class Watchdog:
    """Supervise a :class:`~repro.core.plane.ControlPlane` (or one bare
    :class:`~repro.core.server.ProcessControlServer`).

    Create, then :meth:`start`; the watchdog lives on the calendar until
    :meth:`stop` or until it enters degraded mode (terminal -- with no
    control plane left there is nothing to supervise).

    *config* is either one :class:`WatchdogConfig` shared by every shard,
    or a mapping ``{shard_index: WatchdogConfig}`` giving individual
    shards their own timings (a latency-critical shard can carry a tight
    deadline while a batch shard keeps the lenient default).  Shards
    absent from the mapping get the global default config.  The sampling
    tick runs at the *fastest* per-shard ``check_period``; each shard is
    still judged against its own deadline and backoff.
    """

    def __init__(
        self,
        kernel: Any,
        plane: Any,
        config: Union[WatchdogConfig, Mapping[int, WatchdogConfig], None] = None,
        seed: int = 0,
    ) -> None:
        self.kernel = kernel
        self.plane = plane
        self.servers: List[Any] = list(getattr(plane, "servers", [plane]))
        if not self.servers:
            raise ValueError("nothing to supervise: plane has no servers")
        interval = self.servers[0].interval
        machine_config = getattr(getattr(kernel, "machine", None), "config", None)
        slack = 2 * machine_config.quantum if machine_config is not None else 0
        if isinstance(config, Mapping):
            for index in config:
                if not 0 <= index < len(self.servers):
                    raise ValueError(
                        f"watchdog config for unknown shard {index!r} "
                        f"(plane has {len(self.servers)} shard(s))"
                    )
            default = WatchdogConfig().resolve(interval, slack)
            self.configs: List[WatchdogConfig] = [
                (
                    config[index].resolve(interval, slack)
                    if index in config
                    else default
                )
                for index in range(len(self.servers))
            ]
        else:
            shared = (config or WatchdogConfig()).resolve(interval, slack)
            self.configs = [shared] * len(self.servers)
        #: Back-compat alias: the first shard's resolved config (identical
        #: to every other shard's unless a per-shard mapping was given).
        self.config = self.configs[0]
        #: The supervision tick runs at the fastest requested cadence.
        self.check_period = min(c.check_period for c in self.configs)
        self.rng = RandomStreams(seed).get("watchdog")
        self.health: List[_ShardHealth] = [
            _ShardHealth() for _ in self.servers
        ]
        self.degraded = False
        self.counters: Dict[str, int] = {
            "ticks": 0,
            "suspects": 0,
            "restarts": 0,
            "recoveries": 0,
            "failovers": 0,
            "policy_swaps": 0,
            "policy_restores": 0,
            "degraded": 0,
        }
        #: (time, kind, details) for every action -- report/replay checks.
        self.events: List[Tuple[int, str, Dict[str, Any]]] = []
        self._repeat = None
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Arm the supervision loop (idempotent-hostile: once only)."""
        if self._started:
            raise RuntimeError("watchdog already started")
        self._started = True
        now = self.kernel.now
        for health in self.health:
            health.watch_since = now
        # A deterministic phase offset desynchronizes the watchdog from
        # the servers' scan boundaries (and from sibling watchdogs in
        # multi-plane rigs): same seed, same phase, bit-identical run.
        offset = 1 + self.rng.randrange(self.check_period)
        self.kernel.engine.schedule(offset, self._first_tick, "watchdog-start")

    def _first_tick(self) -> None:
        if self._repeat is None and not self.degraded:
            self._tick()
        if not self.degraded:
            self._repeat = self.kernel.engine.schedule_every(
                self.check_period, self._tick, "watchdog-tick"
            )

    def config_for(self, index: int) -> WatchdogConfig:
        """The resolved supervision config governing shard *index*."""
        return self.configs[index]

    def stop(self) -> None:
        """Cancel the supervision loop."""
        if self._repeat is not None:
            self._repeat.cancel()
            self._repeat = None

    # ------------------------------------------------------------------
    # The supervision tick
    # ------------------------------------------------------------------

    def _log(self, kind: str, **details: Any) -> None:
        now = self.kernel.now
        self.events.append((now, kind, details))
        self.kernel.trace.emit(now, f"watchdog.{kind}", **details)

    def _tick(self) -> None:
        if self.degraded:
            return
        self.counters["ticks"] += 1
        now = self.kernel.now
        for index, server in enumerate(self.servers):
            health = self.health[index]
            if health.state == "failed":
                continue
            self._check_shard(index, server, health, now)
        if any(c.policy_cold_ttl is not None for c in self.configs):
            self._check_telemetry(now)

    def _heartbeat_age(self, server: Any, health: _ShardHealth, now: int) -> int:
        beat = server.board.heartbeat_at
        anchor = health.watch_since
        if beat is not None and beat > anchor:
            anchor = beat
        return now - anchor

    def _check_shard(
        self, index: int, server: Any, health: _ShardHealth, now: int
    ) -> None:
        config = self.configs[index]
        crashed_at = server.board.crashed_at
        age = self._heartbeat_age(server, health, now)
        suspect = crashed_at is not None or age > config.deadline
        if not suspect:
            if health.state != "healthy":
                health.state = "healthy"
                health.suspected_at = None
                health.next_restart_at = None
                self.counters["recoveries"] += 1
                self._log("recovered", shard=index, heartbeat_age=age)
            if (
                health.restarts_attempted
                and health.last_restart_at is not None
                and now - health.last_restart_at >= config.reset_after
            ):
                # Stable long enough: earn the retry budget back, so a
                # once-flaky shard is not one crash from failover forever.
                health.restarts_attempted = 0
            return
        if health.state == "healthy":
            health.state = "suspect"
            health.suspected_at = now
            self.counters["suspects"] += 1
            self._log(
                "suspect",
                shard=index,
                crashed=crashed_at is not None,
                heartbeat_age=age,
            )
        if health.restarts_attempted >= config.max_restarts:
            self._fail_over(index, server, health)
            return
        due = health.next_restart_at
        if due is None:
            due = health.suspected_at if health.suspected_at is not None else now
        if now < due:
            return
        self._restart_shard(index, server, health, now)

    def _restart_shard(
        self, index: int, server: Any, health: _ShardHealth, now: int
    ) -> None:
        config = self.configs[index]
        if server.pid is not None:
            # Alive but not beating: a wedged scan loop.  Kill it -- a
            # respawn is the only lever a supervisor has.
            server.crash()
        restart_shard = getattr(self.plane, "restart_shard", None)
        if restart_shard is not None and self.plane is not server:
            process = restart_shard(index)
        else:
            process = server.restart()
        health.restarts_attempted += 1
        health.last_restart_at = now
        health.next_restart_at = now + config.restart_backoff * (
            config.backoff_factor ** (health.restarts_attempted - 1)
        )
        health.state = "restarting"
        health.watch_since = now  # fresh deadline for the new incarnation
        self.counters["restarts"] += 1
        self._log(
            "restart",
            shard=index,
            pid=process.pid,
            attempt=health.restarts_attempted,
            next_retry_at=health.next_restart_at,
        )

    def _fail_over(self, index: int, server: Any, health: _ShardHealth) -> None:
        health.state = "failed"
        self.counters["failovers"] += 1
        fail_over = getattr(self.plane, "fail_over", None)
        if fail_over is not None and self.plane is not server:
            moves = fail_over(index)
        else:
            # Bare single server: nothing to fail over onto.
            if server.pid is not None:
                server.crash()
            moves = {}
        self._log("failover", shard=index, moves=dict(moves))
        if all(h.state == "failed" for h in self.health):
            self._enter_degraded()

    def _enter_degraded(self) -> None:
        self.degraded = True
        self.counters["degraded"] = 1
        self._log("degraded", shards=len(self.servers))
        # Terminal: the TTL in every threads package owns recovery now.
        self.stop()

    # ------------------------------------------------------------------
    # Demand-telemetry guard
    # ------------------------------------------------------------------

    def _check_telemetry(self, now: int) -> None:
        """Swap a demand policy out (and back) as its telemetry cools."""
        for index, server in enumerate(self.servers):
            ttl = self.configs[index].policy_cold_ttl
            health = self.health[index]
            if ttl is None or server.pid is None or health.state == "failed":
                continue
            reported = server.board.demand_reported_at
            newest = max(reported.values()) if reported else None
            cold = newest is None or now - newest > ttl
            policy_name = getattr(server.policy, "name", "")
            if cold and health.saved_policy is None and policy_name == "demand":
                health.saved_policy = server.set_policy(make_policy("equal"))
                self.counters["policy_swaps"] += 1
                self._log(
                    "policy_swap",
                    shard=index,
                    reason="telemetry-cold",
                    newest_report=newest,
                )
            elif not cold and health.saved_policy is not None:
                server.set_policy(health.saved_policy)
                health.saved_policy = None
                self.counters["policy_restores"] += 1
                self._log("policy_swap", shard=index, reason="telemetry-warm")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """A copy of the action counters (for ``ScenarioResult``)."""
        return dict(self.counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ",".join(h.state for h in self.health)
        return f"<Watchdog shards=[{states}] degraded={self.degraded}>"
