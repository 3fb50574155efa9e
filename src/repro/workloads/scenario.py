"""Scenario descriptions.

A scenario is a complete, declarative description of one simulated run, so
experiments can log exactly what they measured and ablations can vary one
field at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional

from repro.kernel import KernelConfig
from repro.machine import MachineConfig
from repro.sim import units


#: Sentinel: an application follows the scenario-wide control mode.
INHERIT_CONTROL = "inherit"


@dataclass
class AppSpec:
    """One application in a scenario.

    Attributes:
        factory: zero-argument callable building a fresh
            :class:`repro.apps.base.Application` (fresh locks and jitter
            streams per run).
        n_processes: worker processes the application starts with.
        arrival: simulation time at which the application starts.
        control: per-application override of the scenario's control mode:
            :data:`INHERIT_CONTROL` (default), ``None``/"off" for an
            application that refuses to control its processes (the greedy
            applications of Section 7's fairness discussion),
            ``"centralized"`` or ``"decentralized"``.
        runtime: the threads-package runtime the application runs on --
            ``"taskqueue"`` (default), ``"forkjoin"`` (suspension only at
            phase barriers), or ``"pipeline"`` (dedicated stage threads;
            requires a stage-declaring app like
            :class:`repro.apps.pipeline.PipelineApp`).  See
            :data:`repro.threads.RUNTIME_NAMES` and docs/RUNTIMES.md.
    """

    factory: Callable[[], Any]
    n_processes: int
    arrival: int = 0
    control: Optional[str] = INHERIT_CONTROL
    runtime: str = "taskqueue"

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.control not in (
            INHERIT_CONTROL,
            None,
            "off",
            "centralized",
            "decentralized",
        ):
            raise ValueError(f"unknown per-app control mode {self.control!r}")
        from repro.threads import RUNTIME_NAMES

        if self.runtime not in RUNTIME_NAMES:
            raise ValueError(
                f"unknown runtime {self.runtime!r}; "
                f"expected one of {RUNTIME_NAMES}"
            )

    def control_mode(self, scenario_control: Optional[str]) -> Optional[str]:
        """Resolve the effective control mode for this application."""
        if self.control == INHERIT_CONTROL:
            return scenario_control
        if self.control == "off":
            return None
        return self.control


@dataclass
class UncontrolledSpec:
    """A stand-alone, uncontrollable, CPU-bound process (compiler, daemon).

    The server subtracts such processes from the processor pool; scenarios
    use them to reproduce the paper's Figure 2 arithmetic and the Section 7
    fairness discussion.
    """

    name: str = "standalone"
    arrival: int = 0
    duration: int = field(default_factory=lambda: units.seconds(30))

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


@dataclass
class Scenario:
    """A full experiment run description.

    Attributes:
        apps: the applications and their start parameters.
        control: ``None``, ``"centralized"``, or ``"decentralized"``
            (applies to every application; mixed-control scenarios build
            packages by hand).
        scheduler: kernel policy name (see
            :data:`repro.workloads.schedulers.SCHEDULER_NAMES`).
        machine: hardware parameters (defaults: the paper's 16-CPU box).
        kernel: kernel cost parameters.
        uncontrolled: stand-alone process specs.
        server_interval: server update period (paper: 6 s).
        poll_interval: application poll period (paper: 6 s).
        idle_spin: threads-package idle behaviour (busy-wait vs blocking).
        use_no_preempt_flags: bracket package critical sections with
            ``SetNoPreempt`` (for the Zahorjan scheduler experiments).
        policy: allocation-policy name the control server should run
            (see :data:`repro.core.allocation.POLICY_NAMES`, plus
            ``"space"`` which wraps the live partition scheduler and
            requires ``scheduler="partition"``: the server derives each
            application's target from its processor group's size -- the
            Section 7 integration of the policy module with process
            control), or a pre-built
            :class:`~repro.core.allocation.AllocationPolicy` instance when
            an experiment needs non-default knobs (e.g. a
            ``compliance`` policy with an experiment-scale lag grace).
            ``None`` (the default) falls back to the ``REPRO_POLICY`` and
            ``REPRO_WEIGHTS`` environment knobs and then the paper's
            equipartition; a pinned policy ignores both.
        shards: process-control server count; each shard owns a processor
            region and the applications routed to it (round-robin by
            arrival).  ``None`` falls back to ``REPRO_SHARDS`` and then 1
            (the paper's single server, bit-identical).
        seed: master random seed.
        max_time: safety cap on simulated time.
        faults: fault-injection plan spec string (see
            :mod:`repro.faults`), e.g.
            ``"server-crash:at=20ms,down=60ms;cpu-offline:cpu=1,at=10ms"``.
            ``None`` (the default) runs the healthy world; the runner also
            consults the ``REPRO_FAULTS`` environment knob.
        stale_target_ttl: override for the threads package's stale-target
            TTL; ``None`` lets the runner size it from the intervals.
        supervise: arm the control-plane :class:`~repro.resilience.
            Watchdog` (heartbeat monitoring, shard restart/failover).
            ``None`` (the default) falls back to the ``REPRO_SUPERVISE``
            environment knob; an explicit ``False`` keeps the watchdog
            off even when the knob is set (so an experiment's
            unsupervised arm stays unsupervised under a CI-wide knob).
        watchdog: optional :class:`~repro.resilience.WatchdogConfig`
            overriding the derived supervision timings, or a mapping of
            shard index to config for per-shard overrides.
        lock_admission: Malthusian concurrency restriction applied to
            every lock the run owns -- each application lock (via
            ``Application.locks()``) and each package queue lock gets
            ``admission=<n>`` unless the lock already sets its own.
            Lock-level waiter control composes freely with ``control=``
            processor control: either, both, or neither.  ``None`` (the
            default) falls back to the ``REPRO_LOCK_ADMISSION``
            environment knob and then leaves locks unrestricted; an
            explicit ``0`` pins "unrestricted" even when the knob is set
            (so a pinned baseline arm stays unrestricted under a
            CI-wide knob).
    """

    apps: List[AppSpec]
    control: Optional[str] = None
    scheduler: str = "fifo"
    machine: MachineConfig = field(default_factory=MachineConfig)
    kernel: KernelConfig = field(default_factory=KernelConfig)
    uncontrolled: List[UncontrolledSpec] = field(default_factory=list)
    server_interval: int = field(default_factory=lambda: units.seconds(6))
    poll_interval: int = field(default_factory=lambda: units.seconds(6))
    idle_spin: bool = True
    use_no_preempt_flags: bool = False
    policy: Any = None  # name string, AllocationPolicy instance, or None
    shards: Optional[int] = None
    seed: int = 0
    max_time: int = field(default_factory=lambda: units.seconds(3600))
    faults: Optional[str] = None
    stale_target_ttl: Optional[int] = None
    supervise: Optional[bool] = None
    watchdog: Optional[Any] = None
    lock_admission: Optional[int] = None

    def with_(self, **overrides: Any) -> "Scenario":
        """A copy of this scenario with fields replaced (ablation helper)."""
        return replace(self, **overrides)
