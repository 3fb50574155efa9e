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
        runnable_trace: emit a trace record on every runnable-count change
            (needed for Figure 5; can be disabled for speed).
    """

    runnable_trace: bool = True
