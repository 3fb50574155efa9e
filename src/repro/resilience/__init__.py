"""Self-healing for the control plane: heartbeats, watchdog, failover.

The paper's central server is a single point of failure; PR 4's sharding
multiplied the failure domains without automating recovery.  This package
adds the supervision loop: servers stamp a heartbeat word on their board
every scan (see :meth:`repro.kernel.ipc.ControlBoard.beat`), and a
:class:`Watchdog` -- a seeded calendar actor, like the fault injectors --
watches those words and drives restart -> failover -> degraded mode.
"""

from repro.resilience.watchdog import Watchdog, WatchdogConfig

__all__ = [
    "Watchdog",
    "WatchdogConfig",
]
