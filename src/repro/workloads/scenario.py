"""Scenario descriptions.

A scenario is a complete, declarative description of one simulated run, so
experiments can log exactly what they measured and ablations can vary one
field at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional

from repro.core.allocation import POLICY_NAMES, AllocationPolicy
from repro.faults.plan import parse_spec as parse_fault_spec
from repro.kernel import KernelConfig
from repro.machine import MachineConfig
from repro.sim import units
from repro.workloads.schedulers import SCHEDULER_NAMES


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
        app_id: the id the factory's application will carry, or ``None``.
            A declared id lets the runner route the tenant and fix its
            registration channel at set-up without building it, and call
            the factory in the arrival event instead (in arrival order,
            so the factory must not draw from state shared with other
            factories); the event raises ``ValueError`` if the built
            application's id differs.  Without one the factory runs at
            set-up, in spec order, to learn the id.
    """

    factory: Callable[[], Any]
    n_processes: int
    arrival: int = 0
    control: Optional[str] = INHERIT_CONTROL
    runtime: str = "taskqueue"
    app_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("n_processes must be >= 1")
        if self.arrival < 0:
            raise ValueError("arrival must be >= 0")
        if self.app_id is not None and not (
            isinstance(self.app_id, str) and self.app_id
        ):
            raise ValueError(
                f"app_id must be a non-empty string or None, got {self.app_id!r}"
            )
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

    It is checked once, when built (``with_`` builds a new one): no
    applications, an unknown scheduler or policy name, ``policy="space"``
    without ``scheduler="partition"``, a malformed fault plan,
    ``shards < 1`` or ``lock_admission < 1`` raise ``ValueError`` naming
    the value.

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
            ``None`` (the default) runs the paper's equipartition.
        shards: process-control server count (>= 1); each shard owns a
            processor region and the applications routed to it
            (round-robin in spec order, at set-up).  1 (the default) is
            the paper's single server.
        seed: master random seed.
        max_time: safety cap on simulated time.
        faults: fault-injection plan spec string (see
            :mod:`repro.faults`), e.g.
            ``"server-crash:at=20ms,down=60ms;cpu-offline:cpu=1,at=10ms"``.
            ``None`` (the default) runs the healthy world.
        supervise: arm the control-plane :class:`~repro.resilience.
            Watchdog` (heartbeat monitoring, shard restart/failover).
            Off by default.
        watchdog: optional :class:`~repro.resilience.WatchdogConfig`
            overriding the derived supervision timings, or a mapping of
            shard index to config for per-shard overrides.
        lock_admission: Malthusian concurrency restriction applied to
            every lock the run owns -- each application lock (via
            ``Application.locks()``) and each package queue lock gets
            ``admission=<n>`` unless the lock already sets its own.
            Lock-level waiter control composes freely with ``control=``
            processor control: either, both, or neither.  ``None`` (the
            default) leaves locks unrestricted; otherwise it must be >= 1.
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
    shards: int = 1
    seed: int = 0
    max_time: int = field(default_factory=lambda: units.seconds(3600))
    faults: Optional[str] = None
    supervise: bool = False
    watchdog: Optional[Any] = None
    lock_admission: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.apps:
            raise ValueError("scenario has no applications")
        if self.scheduler not in SCHEDULER_NAMES:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; valid names: "
                f"{', '.join(SCHEDULER_NAMES)}"
            )
        policy = self.policy
        if not (policy is None or isinstance(policy, AllocationPolicy)):
            if policy not in POLICY_NAMES + ("space",):
                raise ValueError(
                    f"unknown policy {policy!r}; valid names: "
                    f"{', '.join(POLICY_NAMES + ('space',))}"
                )
            if policy == "space" and self.scheduler != "partition":
                raise ValueError(
                    'policy "space" requires scheduler="partition" '
                    f"(got {self.scheduler!r})"
                )
        if self.faults:
            parse_fault_spec(self.faults)
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.lock_admission is not None and self.lock_admission < 1:
            raise ValueError(
                f"lock_admission must be >= 1 (or None), got {self.lock_admission}"
            )

    def with_(self, **overrides: Any) -> "Scenario":
        """A copy of this scenario with fields replaced (ablation helper)."""
        return replace(self, **overrides)
