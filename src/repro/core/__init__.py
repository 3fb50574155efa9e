"""The paper's contribution: centralized, dynamic process control.

- :func:`~repro.core.policy.partition_processors` -- the server's fair
  partitioning rule (Section 5): subtract uncontrollable load, divide the
  rest equally, cap at each application's process count, guarantee one.
- :class:`~repro.core.allocation.AllocationPolicy` and friends -- the
  partitioning rule behind a typed protocol, with a registry
  (:func:`~repro.core.allocation.make_policy`) mirroring
  ``make_scheduler``: ``equal`` (the paper's rule), ``weighted``
  (priority shares), ``demand`` (backlog-capped feedback), ``slo``
  (latency-objective boost) and ``compliance`` (runtime-compliance
  charging) are one :class:`~repro.core.allocation.WaterFillPolicy`
  with different stages, plus
  :class:`~repro.core.allocation.SpaceAwarePolicy` wrapping the space
  partition scheduler.
- :class:`~repro.core.server.ProcessControlServer` -- the centralized
  user-level server process: periodically scans the process table, asks
  its policy to recompute the partition, and publishes per-application
  targets that applications poll.
- :class:`~repro.core.plane.ControlPlane` -- a thin router over N sharded
  servers, each owning a processor region; ``shards=1`` reproduces the
  single server bit-identically.
- The application-side half (polling, safe suspension, resumption) lives in
  :class:`repro.threads.package.ThreadsPackage`, because the paper embeds
  it in the threads package, transparently to applications.
"""

from repro.core.allocation import (
    POLICY_ENV_VAR,
    POLICY_NAMES,
    AllocationPolicy,
    AllocationRequest,
    SpaceAwarePolicy,
    WaterFillPolicy,
    make_policy,
)
from repro.core.plane import SHARDS_ENV_VAR, ControlPlane
from repro.core.policy import partition_processors
from repro.core.server import ProcessControlServer

__all__ = [
    "AllocationPolicy",
    "AllocationRequest",
    "ControlPlane",
    "POLICY_ENV_VAR",
    "POLICY_NAMES",
    "ProcessControlServer",
    "SHARDS_ENV_VAR",
    "SpaceAwarePolicy",
    "WaterFillPolicy",
    "make_policy",
    "partition_processors",
]
