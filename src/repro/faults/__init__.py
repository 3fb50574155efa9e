"""Deterministic fault injection and the chaos campaign.

The paper's process-control design quietly assumes a healthy world: the
server always answers polls, processors never vanish, messages arrive
exactly once.  This package stress-tests the reproduction outside that
assumption -- every injector is seed-driven and scheduled on the event
calendar, so a faulted run replays bit-identically, and every fault is
paired with a graceful-degradation mechanism in the kernel, server, or
threads package (``docs/FAULTS.md`` maps one to the other).

Public API
----------

- :class:`~repro.faults.plan.FaultPlan` / ``parse_spec`` -- parse
  ``"cpu-offline:cpu=1,at=10ms;server-crash:at=20ms,down=60ms"`` into
  installable injectors; ``Scenario.faults`` carries the spec into a
  run.
- :mod:`~repro.faults.injectors` -- the injector catalog.
- :func:`~repro.faults.plan.random_fault_spec` -- reproducible random
  plans for property tests.
- :mod:`~repro.faults.campaign` -- the ChaosCampaign sweep
  (``python -m repro.experiments chaos``).

Import note: :mod:`repro.faults.campaign` imports the workload runner, so
it is *not* imported here (the runner itself imports
:mod:`repro.faults.plan`).
"""

from repro.faults.injectors import (
    ChannelFault,
    ClockJitterFault,
    CpuOfflineFault,
    FaultContext,
    FaultInjector,
    PollFault,
    PreemptStormFault,
    ServerCrashFault,
)
from repro.faults.plan import (
    INJECTOR_KINDS,
    FaultPlan,
    parse_spec,
    parse_time,
    random_fault_spec,
)

__all__ = [
    "INJECTOR_KINDS",
    "FaultContext",
    "FaultInjector",
    "FaultPlan",
    "ChannelFault",
    "ClockJitterFault",
    "CpuOfflineFault",
    "PollFault",
    "PreemptStormFault",
    "ServerCrashFault",
    "parse_spec",
    "parse_time",
    "random_fault_spec",
]
