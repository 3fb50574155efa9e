"""The simulated operating system kernel.

This package models a UMAX-like kernel (the 4.2 BSD variant on the Encore
Multimax): preemptively scheduled processes, a pluggable scheduler policy,
signals, IPC channels, and the syscalls the paper's system needs -- most
importantly "a system call for determining information about the
runnable processes in the system" (Section 5), which ``GetLoadSummary``
models at the paper's per-process cost.

Programs are Python generators that ``yield`` syscall objects from
:mod:`repro.kernel.syscalls`; the kernel advances them, charging simulated
time for computation, lock operations, context switches, and cache reloads.

Public API
----------

- :class:`~repro.kernel.kernel.Kernel` -- the kernel proper.
- :class:`~repro.kernel.config.KernelConfig` -- per-run kernel settings.
- :class:`~repro.kernel.process.Process` / `ProcessState` -- PCBs.
- :mod:`repro.kernel.syscalls` -- the syscall vocabulary.
- :class:`~repro.kernel.ipc.Channel` -- blocking message channel (sockets).
- Scheduler policies in :mod:`repro.kernel.scheduler`.
"""

from repro.kernel.config import KernelConfig
from repro.kernel.process import Process, ProcessState, ProcessStats
from repro.kernel.kernel import Kernel
from repro.kernel.ipc import Channel
from repro.kernel import syscalls

__all__ = [
    "Kernel",
    "KernelConfig",
    "Process",
    "ProcessState",
    "ProcessStats",
    "Channel",
    "syscalls",
]
