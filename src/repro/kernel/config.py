"""Kernel configuration.

Hardware-level costs (quantum, context switch, cache) live in
:class:`repro.machine.config.MachineConfig`, and the costs of kernel
*services* (fork, signals, timers, the ``GetLoadSummary`` scan whose
per-process cost motivates the paper's centralized server) are constants
in :mod:`repro.kernel.kernel`.  This dataclass holds what a run may set.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class KernelConfig:
    """Per-run kernel settings.

    Attributes:
        runnable_trace: keep Figure 5's runnable series: the census
            appends one point per change to the total and to the changed
            application's series (see ``Kernel.detach_runnable_series``).
            This alone decides whether the series are kept; the run's
            ``TraceLog`` does not.  Off, ``ScenarioResult.runnable_total``
            and ``runnable_per_app`` are empty.
    """

    runnable_trace: bool = True
