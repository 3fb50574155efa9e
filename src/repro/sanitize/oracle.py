"""Differential oracles for the simulator's two risky optimizations.

The engine is deterministic (integer clock, FIFO tie-breaks, no OS
entropy), so any two runs of the same scenario must produce *bit-identical*
event sequences.  That determinism turns optimized/reference pairs into
cheap end-to-end oracles:

* **Scheduler oracle** -- the epoch-normalized, lazily-invalidated min-heap
  of :class:`~repro.kernel.scheduler.decay.PriorityDecayScheduler` against
  the plain-list O(n) rescan of
  :class:`~repro.sanitize.reference.ReferenceDecayScheduler`, which
  :func:`reference_decay` swaps in around the reference run.
* **Loop oracle** -- the fused ``Engine.run_until_done`` loop (inlined
  step, exit-gated predicate) against the plain ``step()`` loop, which
  :func:`plain_event_loop` swaps in around the reference run.

Both compare the full dispatch trace -- the ``(time, pid, cpu)`` sequence
of every ``kernel.dispatch`` record -- which pins down scheduling order,
timing, and placement at once.  Any divergence is a bug in one side.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.sanitize import reference
from repro.sim import Engine, TraceLog
from repro.sim.engine import SimulationError
from repro.workloads import schedulers
from repro.workloads.runner import run_scenario
from repro.workloads.scenario import Scenario

#: A dispatch event, as compared by the oracles.
DispatchEvent = Tuple[int, int, int]  # (time_us, pid, cpu)


@dataclass(frozen=True)
class OracleMismatch:
    """First point where two dispatch traces diverge."""

    seed: int
    index: int
    expected: Optional[DispatchEvent]
    actual: Optional[DispatchEvent]

    def __str__(self) -> str:
        return (
            f"seed {self.seed}: dispatch #{self.index} diverged: "
            f"reference {self.expected} vs optimized {self.actual}"
        )


@dataclass
class OracleReport:
    """Outcome of one differential comparison across seeds."""

    label: str
    seeds: Tuple[int, ...] = ()
    events_compared: int = 0
    mismatches: List[OracleMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> str:
        state = "identical" if self.ok else f"{len(self.mismatches)} mismatch(es)"
        return (
            f"oracle[{self.label}]: {state} over {self.events_compared} "
            f"dispatches, seeds {list(self.seeds)}"
        )


def dispatch_trace(trace: TraceLog) -> List[DispatchEvent]:
    """The ``(time, pid, cpu)`` sequence of every dispatch in *trace*."""
    return [
        (record.time, record.data["pid"], record.data["cpu"])
        for record in trace.records("kernel.dispatch")
    ]


def _run_plain(
    engine: Engine,
    done: Callable[[], bool],
    max_events: Optional[int] = None,
    max_time: Optional[int] = None,
    exit_gated: bool = False,
) -> int:
    """The un-fused event loop: one :meth:`Engine.step` per iteration,
    mirroring ``run_until_done``'s guards and exit-gating exactly."""
    ungated = not exit_gated
    fired = 0
    while not ((ungated or engine.done_hint) and done()):
        if max_events is not None and fired >= max_events:
            raise SimulationError(f"exceeded max_events={max_events}")
        if not engine.step():
            if done():  # defensive re-check, mirroring run_until_done
                break
            raise SimulationError(
                "event calendar empty but the completion predicate "
                "is still false: the workload is deadlocked"
            )
        fired += 1
        if max_time is not None and engine.now > max_time:
            raise SimulationError(
                f"simulated time exceeded max_time={max_time}us"
            )
    return fired


@contextmanager
def plain_event_loop() -> Iterator[None]:
    """Drive every :class:`Engine` with the plain ``step()`` loop inside
    the ``with`` block (the loop oracle's reference side)."""
    fused = Engine.run_until_done
    Engine.run_until_done = _run_plain
    try:
        yield
    finally:
        Engine.run_until_done = fused


@contextmanager
def reference_decay() -> Iterator[None]:
    """Build every ``decay`` scheduler as the O(n) reference inside the
    ``with`` block (the decay oracle's reference side)."""
    factories = schedulers._FACTORIES
    optimized = factories["decay"]
    factories["decay"] = reference.ReferenceDecayScheduler
    try:
        yield
    finally:
        factories["decay"] = optimized


def _run_dispatches(scenario: Scenario) -> List[DispatchEvent]:
    # A dedicated dispatch-only trace keeps memory flat on long runs; the
    # sanitizer stays off so the oracle isolates exactly one variable.
    trace = TraceLog(categories=("kernel.dispatch",))
    run_scenario(scenario, trace=trace)
    return dispatch_trace(trace)


def _compare(
    report: OracleReport, seed: int, expected: List[DispatchEvent], actual: List[DispatchEvent]
) -> None:
    report.events_compared += max(len(expected), len(actual))
    limit = max(len(expected), len(actual))
    for index in range(limit):
        left = expected[index] if index < len(expected) else None
        right = actual[index] if index < len(actual) else None
        if left != right:
            report.mismatches.append(OracleMismatch(seed, index, left, right))
            return  # everything after the first divergence is noise


def check_decay_oracle(
    scenario_factory,
    seeds: Sequence[int] = (1, 2, 3),
) -> OracleReport:
    """Run lazy-decay vs the O(n) reference on each seeded scenario.

    *scenario_factory(seed)* must build a fresh :class:`Scenario`; its
    ``scheduler`` field is set to ``decay`` on both sides.
    """
    report = OracleReport(label="decay-vs-reference", seeds=tuple(seeds))
    for seed in seeds:
        # A fresh scenario per side: application factories may close over
        # per-build state, and the oracle must not share any of it.
        with reference_decay():
            expected = _run_dispatches(
                replace(scenario_factory(seed), scheduler="decay")
            )
        optimized = _run_dispatches(
            replace(scenario_factory(seed), scheduler="decay")
        )
        _compare(report, seed, expected, optimized)
    return report


def check_loop_oracle(
    scenario_factory,
    seeds: Sequence[int] = (1, 2, 3),
) -> OracleReport:
    """Run the fused event loop vs the plain ``step()`` loop per seed."""
    report = OracleReport(label="fused-vs-plain-loop", seeds=tuple(seeds))
    for seed in seeds:
        with plain_event_loop():
            reference = _run_dispatches(scenario_factory(seed))
        optimized = _run_dispatches(scenario_factory(seed))
        _compare(report, seed, reference, optimized)
    return report
