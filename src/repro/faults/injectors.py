"""Deterministic fault injectors.

Each injector is a small, composable object that, given a
:class:`FaultContext`, schedules its misbehaviour on the simulation's event
calendar.  Everything is seed-driven (randomness comes from named
:class:`~repro.sim.rand.RandomStreams`) and wall-clock-free, so a fault
plan replays bit-identically: same seed, same spec, same run.

The catalog (spec names in parentheses; see :mod:`repro.faults.plan` for
the spec grammar):

* :class:`CpuOfflineFault` (``cpu-offline``) -- hot-unplug a processor at
  ``at``, optionally returning it after ``duration``.  The victim process
  is migrated by preemption; schedulers learn about the topology change
  through ``on_cpu_offline``/``on_cpu_online``.
* :class:`ServerCrashFault` (``server-crash``) -- kill the control plane
  (or one shard of it) at ``at``; the boards keep their stale targets.
  ``down`` schedules a restart with registry rebuilt from the process
  table.
* :class:`PollFault` (``poll-drop`` / ``poll-delay`` / ``poll-dup``) --
  interfere with the control board during a window: reads return nothing
  (drop, probability ``p``), posts are deferred by ``delay``, or reads are
  served the *previous* post's targets (a duplicated stale response).
* :class:`ChannelFault` (``chan-drop`` / ``chan-dup``) -- drop or
  duplicate registration-channel messages with probability ``p``.
* :class:`ClockJitterFault` (``clock-jitter``) -- perturb the server's
  scan interval by a seeded uniform offset in ``[-amp, +amp]``.
* :class:`PreemptStormFault` (``preempt-storm``) -- force-preempt every
  online processor every ``period`` during the window.

Every injector pairs with a graceful-degradation mechanism elsewhere in
the tree (stale-target TTL + poll backoff in the threads package, crash
re-registration and the starvation floor in the server, online-set-aware
dispatch in the kernel); ``docs/FAULTS.md`` has the catalog-to-mechanism
map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.core.plane import ControlPlane


@dataclass
class FaultContext:
    """Everything an injector may touch, plus the shared event log.

    ``server`` is the run's control plane (``None`` when no tenant is
    centrally controlled).  ``events`` accumulates ``(time, event, data)``
    tuples in injection order -- the deterministic record the chaos
    campaign folds into its report.
    """

    kernel: Any
    rng: Any  # RandomStreams
    server: Optional["ControlPlane"] = None
    events: List[Tuple[int, str, Dict[str, Any]]] = field(default_factory=list)

    def log(self, event: str, **data: Any) -> None:
        now = self.kernel.engine.now
        self.events.append((now, event, data))
        self.kernel.trace.emit(now, f"fault.{event}", **data)


class FaultInjector:
    """Base class: a named fault with an installation hook."""

    #: Spec name, e.g. ``"cpu-offline"`` (set by subclasses).
    kind: str = "fault"

    def install(self, ctx: FaultContext) -> None:
        """Schedule this fault's events on ``ctx.kernel.engine``."""
        raise NotImplementedError

    def params(self) -> Dict[str, Any]:
        """Canonical parameter map (for specs and reports)."""
        return {}

    def describe(self) -> str:
        """Canonical one-item spec string, round-trippable by the parser."""
        params = {k: v for k, v in self.params().items() if v is not None}
        if not params:
            return self.kind
        body = ",".join(f"{key}={params[key]}" for key in sorted(params))
        return f"{self.kind}:{body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


class CpuOfflineFault(FaultInjector):
    """Hot-unplug processor ``cpu`` at ``at``; re-plug after ``duration``."""

    kind = "cpu-offline"

    def __init__(self, cpu: int = 1, at: int = 0, duration: Optional[int] = None):
        self.cpu = cpu
        self.at = at
        self.duration = duration

    def params(self) -> Dict[str, Any]:
        return {"cpu": self.cpu, "at": self.at, "duration": self.duration}

    def install(self, ctx: FaultContext) -> None:
        engine = ctx.kernel.engine

        def go_offline() -> None:
            applied = ctx.kernel.cpu_offline(self.cpu)
            ctx.log("cpu_offline", cpu=self.cpu, applied=applied)
            if applied and self.duration is not None:
                engine.schedule(self.duration, come_back, "fault-cpu-online")

        def come_back() -> None:
            ctx.kernel.cpu_online(self.cpu)
            ctx.log("cpu_online", cpu=self.cpu)

        engine.schedule_at(self.at, go_offline, "fault-cpu-offline")


class ServerCrashFault(FaultInjector):
    """Crash the control plane at ``at``; restart after ``down`` (if set).

    With ``shard`` set, kill exactly that shard of the
    :class:`~repro.core.plane.ControlPlane` instead of the whole plane --
    the other regions' servers keep scanning and their applications keep
    fresh targets.  A shard index out of the plane's range logs an
    unapplied fault rather than failing the run: a chaos plan is a
    hypothesis, not a precondition.
    """

    kind = "server-crash"

    def __init__(
        self,
        at: int = 0,
        down: Optional[int] = None,
        shard: Optional[int] = None,
    ):
        self.at = at
        self.down = down
        self.shard = shard

    def params(self) -> Dict[str, Any]:
        return {"at": self.at, "down": self.down, "shard": self.shard}

    def install(self, ctx: FaultContext) -> None:
        plane = ctx.server
        engine = ctx.kernel.engine
        shard = self.shard

        def crash() -> None:
            if plane is None or plane.pid is None:
                ctx.log("server_crash", applied=False, shard=shard)
                return
            if shard is None:
                plane.crash()
            elif (
                0 <= shard < len(plane.servers)
                and plane.servers[shard].pid is not None
            ):
                plane.crash_shard(shard)
            else:
                ctx.log("server_crash", applied=False, shard=shard)
                return
            ctx.log("server_crash", applied=True, shard=shard)
            if self.down is not None:
                engine.schedule(self.down, restart, "fault-server-restart")

        def restart() -> None:
            # Someone (the watchdog) may already have restarted it.
            if shard is None:
                if plane.pid is not None:
                    return
                process = plane.restart()
            else:
                if plane.servers[shard].pid is not None:
                    return
                process = plane.restart_shard(shard)
            ctx.log("server_restart", pid=process.pid, shard=shard)

        engine.schedule_at(self.at, crash, "fault-server-crash")


class PollFault(FaultInjector):
    """Interfere with :class:`~repro.kernel.ipc.ControlBoard` traffic.

    Modes:

    * ``drop``: during the window each ``read`` returns ``None`` with
      probability ``p`` (the application's poll response is lost);
    * ``delay``: each post during the window lands ``delay`` later
      (the server's update is in flight);
    * ``dup``: reads are served the *previous* post's targets -- the
      duplicated, stale response of a retransmitting transport.

    Posts are shimmed at :meth:`~repro.kernel.ipc.ControlBoard.post_delta`,
    the board's one write path (the full-map ``post`` goes through it).

    Overlapping windows on the same board chain their shims; the inner
    window then effectively extends to the outer restore.
    """

    kind = "poll-fault"

    def __init__(
        self,
        mode: str = "drop",
        at: int = 0,
        duration: int = 0,
        p: float = 1.0,
        delay: int = 0,
    ):
        if mode not in ("drop", "delay", "dup"):
            raise ValueError(f"unknown poll fault mode {mode!r}")
        if duration <= 0:
            raise ValueError("poll fault duration must be positive")
        self.mode = mode
        self.at = at
        self.duration = duration
        self.p = p
        self.delay = delay

    @property
    def _spec_kind(self) -> str:
        return f"poll-{self.mode}"

    def describe(self) -> str:
        params = {k: v for k, v in self.params().items() if v is not None}
        body = ",".join(f"{key}={params[key]}" for key in sorted(params))
        return f"{self._spec_kind}:{body}"

    def params(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"at": self.at, "duration": self.duration}
        if self.mode == "drop":
            out["p"] = self.p
        if self.mode == "delay":
            out["delay"] = self.delay
        return out

    def install(self, ctx: FaultContext) -> None:
        if ctx.server is None:
            ctx.kernel.engine.schedule_at(
                self.at,
                lambda: ctx.log(f"poll_{self.mode}_skipped", reason="no server"),
                "fault-poll",
            )
            return
        # Shim every shard's board so no shard escapes the fault window.
        boards = ctx.server.boards
        engine = ctx.kernel.engine
        rng = ctx.rng.get(f"{self._spec_kind}:{self.at}")
        dropped = [0]

        def shim_board(board) -> None:
            if self.mode == "drop":
                original_read = board.read

                def faulty_read(app_id: str):
                    if rng.random() < self.p:
                        dropped[0] += 1
                        return None
                    return original_read(app_id)

                board.read = faulty_read
                restores.append((board, "read", faulty_read, original_read))
            elif self.mode == "delay":
                original_post = board.post_delta

                def faulty_post(changes, removals, now):
                    engine.schedule(
                        self.delay,
                        lambda c=dict(changes): original_post(
                            c, removals, engine.now
                        ),
                        "fault-delayed-post",
                    )

                board.post_delta = faulty_post
                restores.append((board, "post_delta", faulty_post, original_post))
            else:  # dup: serve the previous post's targets
                original_read = board.read
                original_post = board.post_delta
                previous = [dict(board.targets)]

                def dup_post(changes, removals, now):
                    previous[0] = dict(board.targets)
                    original_post(changes, removals, now)

                def dup_read(app_id: str):
                    return previous[0].get(app_id)

                board.post_delta = dup_post
                board.read = dup_read
                restores.append((board, "post_delta", dup_post, original_post))
                restores.append((board, "read", dup_read, original_read))

        def start() -> None:
            ctx.log(f"poll_{self.mode}_start")
            for board in boards:
                shim_board(board)

        restores: List[Tuple[Any, str, Callable, Callable]] = []

        def stop() -> None:
            for board, name, shim, original in restores:
                # Only unwind our own shim; a chained inner shim keeps
                # wrapping (and will restore through us when it ends).
                if getattr(board, name, None) is shim:
                    setattr(board, name, original)
            restores.clear()
            ctx.log(f"poll_{self.mode}_end", dropped=dropped[0] or None)

        engine.schedule_at(self.at, start, "fault-poll-start")
        engine.schedule_at(self.at + self.duration, stop, "fault-poll-end")


class ChannelFault(FaultInjector):
    """Drop or duplicate messages on the server registration channel."""

    kind = "chan-fault"

    def __init__(
        self, mode: str = "drop", at: int = 0, duration: int = 0, p: float = 1.0
    ):
        if mode not in ("drop", "dup"):
            raise ValueError(f"unknown channel fault mode {mode!r}")
        if duration <= 0:
            raise ValueError("channel fault duration must be positive")
        self.mode = mode
        self.at = at
        self.duration = duration
        self.p = p

    @property
    def _spec_kind(self) -> str:
        return f"chan-{self.mode}"

    def describe(self) -> str:
        body = ",".join(
            f"{key}={value}" for key, value in sorted(self.params().items())
        )
        return f"{self._spec_kind}:{body}"

    def params(self) -> Dict[str, Any]:
        return {"at": self.at, "duration": self.duration, "p": self.p}

    def install(self, ctx: FaultContext) -> None:
        if ctx.server is None:
            ctx.kernel.engine.schedule_at(
                self.at,
                lambda: ctx.log(f"chan_{self.mode}_skipped", reason="no server"),
                "fault-chan",
            )
            return
        # Cover every shard's registration channel.
        channels = ctx.server.channels
        engine = ctx.kernel.engine
        rng = ctx.rng.get(f"{self._spec_kind}:{self.at}")
        affected = [0]

        def fault_filter(message):
            if rng.random() < self.p:
                affected[0] += 1
                return [] if self.mode == "drop" else [message, message]
            return [message]

        def start() -> None:
            for channel in channels:
                channel.fault_filter = fault_filter
            ctx.log(f"chan_{self.mode}_start")

        def stop() -> None:
            for channel in channels:
                if channel.fault_filter is fault_filter:
                    channel.fault_filter = None
            ctx.log(f"chan_{self.mode}_end", affected=affected[0])

        engine.schedule_at(self.at, start, "fault-chan-start")
        engine.schedule_at(self.at + self.duration, stop, "fault-chan-end")


class ClockJitterFault(FaultInjector):
    """Jitter the server's scan interval by ``[-amp, +amp]`` in a window."""

    kind = "clock-jitter"

    def __init__(self, at: int = 0, duration: int = 0, amp: int = 0):
        if duration <= 0:
            raise ValueError("clock jitter duration must be positive")
        if amp < 0:
            raise ValueError("clock jitter amplitude must be >= 0")
        self.at = at
        self.duration = duration
        self.amp = amp

    def params(self) -> Dict[str, Any]:
        return {"at": self.at, "duration": self.duration, "amp": self.amp}

    def install(self, ctx: FaultContext) -> None:
        if ctx.server is None:
            ctx.kernel.engine.schedule_at(
                self.at,
                lambda: ctx.log("clock_jitter_skipped", reason="no server"),
                "fault-jitter",
            )
            return
        server = ctx.server
        engine = ctx.kernel.engine
        rng = ctx.rng.get(f"clock-jitter:{self.at}")
        end = self.at + self.duration

        def jitter() -> int:
            now = engine.now
            if not (self.at <= now < end):
                return 0
            return rng.randint(-self.amp, self.amp)

        def start() -> None:
            server.interval_jitter = jitter
            ctx.log("clock_jitter_start", amp=self.amp)

        def stop() -> None:
            if server.interval_jitter is jitter:
                server.interval_jitter = None
            ctx.log("clock_jitter_end")

        engine.schedule_at(self.at, start, "fault-jitter-start")
        engine.schedule_at(end, stop, "fault-jitter-end")


class PreemptStormFault(FaultInjector):
    """Force-preempt every online processor every ``period`` in a window."""

    kind = "preempt-storm"

    def __init__(self, at: int = 0, duration: int = 0, period: int = 1000):
        if duration <= 0:
            raise ValueError("preempt storm duration must be positive")
        if period <= 0:
            raise ValueError("preempt storm period must be positive")
        self.at = at
        self.duration = duration
        self.period = period

    def params(self) -> Dict[str, Any]:
        return {"at": self.at, "duration": self.duration, "period": self.period}

    def install(self, ctx: FaultContext) -> None:
        kernel = ctx.kernel
        engine = kernel.engine
        end = self.at + self.duration
        bolts = [0]

        def bolt() -> None:
            for cpu in kernel.online_cpus():
                kernel.force_preempt(cpu)
            bolts[0] += 1

        def start() -> None:
            ctx.log("preempt_storm_start", period=self.period)
            bolt()
            engine.schedule_every(self.period, bolt, "fault-storm", until=end)
            engine.schedule_at(
                end,
                lambda: ctx.log("preempt_storm_end", bolts=bolts[0]),
                "fault-storm-end",
            )

        engine.schedule_at(self.at, start, "fault-storm-start")
