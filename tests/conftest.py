"""Shared test helpers.

``make_kernel`` builds a small machine with fast-to-simulate parameters;
individual tests override fields as needed.  Program builders return
generator *functions* so each test can instantiate fresh generators.

The scenario-level helpers (``scenario_machine``, ``small_machine``,
``uniform``) are re-exported from :mod:`repro.scenarios.builders` -- the
same construction path the declarative catalog uses -- so a hand-written
test and a corpus case that describe "the same machine" really do build
the same machine.  They used to be copy-pasted per test module, then
duplicated here; now there is one source of truth.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pytest

from repro.kernel import Kernel, KernelConfig
from repro.kernel.scheduler.base import SchedulerPolicy
from repro.machine import Machine, MachineConfig
from repro.scenarios.builders import (  # noqa: F401 - shared test helpers
    scenario_machine,
    small_machine,
    uniform,
)
from repro.sim import Engine, TraceLog, units
from repro.workloads.runner import RUNNER_TRACE_CATEGORIES


def make_kernel(
    n_processors: int = 2,
    quantum: int = units.ms(10),
    policy: Optional[SchedulerPolicy] = None,
    trace: Optional[TraceLog] = None,
    cache_enabled: bool = False,
    context_switch_cost: int = 100,
    dispatch_latency: int = 0,
    kconfig: Optional[KernelConfig] = None,
) -> Kernel:
    """A small deterministic kernel for unit tests.

    The cache model is disabled by default so tests can reason about exact
    times; cache-specific tests enable it explicitly.
    """
    machine = Machine(
        MachineConfig(
            n_processors=n_processors,
            quantum=quantum,
            context_switch_cost=context_switch_cost,
            dispatch_latency=dispatch_latency,
            cache_affinity_enabled=cache_enabled,
        )
    )
    return Kernel(
        machine=machine,
        engine=Engine(),
        policy=policy,
        config=kconfig or KernelConfig(),
        trace=trace,
    )


def server_updates(kernel: Kernel) -> List[Tuple[int, Dict[str, int]]]:
    """The control servers' published updates as ``(time, targets)`` pairs,
    in emission order: the ``server.update`` records of *kernel*'s trace
    (build it with ``trace=TraceLog(categories={"server.update"})``)."""
    return [
        (record.time, record.data["targets"])
        for record in kernel.trace.records("server.update")
    ]


def updates_trace() -> TraceLog:
    """A ``run_scenario`` trace that also keeps the ``server.update``
    records, which the runner's default categories leave out."""
    return TraceLog(categories=(*RUNNER_TRACE_CATEGORIES, "server.update"))


@pytest.fixture
def kernel() -> Kernel:
    return make_kernel()
