"""Shared machine and application builders.

These used to live in ``tests/conftest.py`` (and before that were
copy-pasted per test module); the scenario catalog needs the exact same
construction path, so they are hoisted here and the test suite re-exports
them.  One source of truth means a catalog case and a hand-written test
that describe "the same machine" really do build the same machine.

Applications named as data (the corpus's ``"uniform"``, ``"fft"``, ...)
are :class:`~repro.apps.templates.AppTemplate` records.
"""

from __future__ import annotations

from repro.apps import UniformApp
from repro.machine import MachineConfig
from repro.sim import units


def scenario_machine(
    n_processors: int = 4, quantum: int = units.ms(10), **overrides
) -> MachineConfig:
    """A scenario machine with the paper-default switch costs.

    Extra keyword arguments pass straight through to :class:`MachineConfig`.
    """
    return MachineConfig(n_processors=n_processors, quantum=quantum, **overrides)


def small_machine(n_processors: int = 4, **overrides) -> MachineConfig:
    """:func:`scenario_machine` with cheap, exact-time-friendly costs.

    Context switches cost a flat 100 us-units and the cache model is off,
    so tests (and digest-pinned catalog cases) can reason about precise
    completion times.
    """
    overrides.setdefault("context_switch_cost", 100)
    overrides.setdefault("cache_affinity_enabled", False)
    return scenario_machine(n_processors, **overrides)


def uniform(name: str = "u", n_tasks: int = 20, cost: int = units.ms(5)):
    """An application factory: each call of the returned lambda builds a
    fresh :class:`UniformApp` (scenario re-runs must not share app state)."""
    return lambda: UniformApp(app_id=name, n_tasks=n_tasks, task_cost=cost)
