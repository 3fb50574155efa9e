"""Differential oracles: lazy-decay vs the O(n) reference scan, the fused
event loop vs the plain one, and the forced-compaction regression for the
stale-heap-binding bug class."""

import pytest

from repro.core.allocation import POLICY_NAMES
from repro.kernel import syscalls as sc
from repro.kernel.scheduler import PriorityDecayScheduler
from repro.sanitize import SchedSanitizer, reference
from repro.sanitize.oracle import (
    check_decay_oracle,
    check_loop_oracle,
    dispatch_trace,
    plain_event_loop,
    reference_decay,
)
from repro.scenarios import get_case, run_case
from repro.scenarios.golden import mismatch_message
from repro.scenarios.runner import open_golden_store
from repro.sim import TraceLog, units
from repro.workloads import SCHEDULER_NAMES, AppSpec, Scenario, make_scheduler

from tests.conftest import make_kernel, small_machine, uniform


def seeded_scenario(seed, scheduler="fifo"):
    """A small oversubscribed two-app workload; the seed changes both the
    task count and the per-task cost jitter, so each seed is a genuinely
    different schedule."""
    from repro.apps import UniformApp

    def app(name):
        return lambda: UniformApp(
            app_id=name,
            n_tasks=10 + seed,
            task_cost=units.ms(3),
            jitter=0.3,
            seed=seed,
        )

    return Scenario(
        apps=[
            AppSpec(app("a"), 3),
            AppSpec(app("b"), 2, arrival=units.ms(7)),
        ],
        machine=small_machine(),
        scheduler=scheduler,
    )


def reference_pin_mismatch(policy):
    """Run ``cross-decay-<policy>`` with the reference decay scheduler and
    compare it with that case's corpus pin (read-only: the reference never
    records a pin); return the mismatch message, or None."""
    name = f"cross-decay-{policy}"
    with reference_decay():
        outcome = run_case(get_case(name))
    assert outcome.ok, outcome.violations
    measured = {"dispatch_digest": outcome.digest, "sim_time": outcome.sim_time}
    store = open_golden_store()
    pinned = store.data[name]
    if measured == pinned:
        return None
    return mismatch_message(name, measured, pinned, store.regen_hint)


class ReversedTieBreak(reference.ReferenceDecayScheduler):
    """A planted divergence: equal keys pop newest-first, not FIFO."""

    @staticmethod
    def _rank(entry):
        return entry[0], -entry[1]


class TestDecayOracle:
    def test_reference_matches_optimized(self):
        report = check_decay_oracle(seeded_scenario, seeds=(1, 2, 3))
        assert report.ok, report.summary()
        assert report.events_compared > 0
        assert report.seeds == (1, 2, 3)

    def test_summary_mentions_label(self):
        report = check_decay_oracle(seeded_scenario, seeds=(1,))
        assert "decay-vs-reference" in report.summary()

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_reference_reproduces_the_corpus_pin(self, policy):
        message = reference_pin_mismatch(policy)
        assert message is None, message

    def test_reference_decay_swaps_the_factory_only_inside_the_block(self):
        with pytest.raises(RuntimeError, match="boom"):
            with reference_decay():
                assert type(make_scheduler("decay")) is (
                    reference.ReferenceDecayScheduler
                )
                raise RuntimeError("boom")
        assert type(make_scheduler("decay")) is PriorityDecayScheduler


class TestDecayOracleCatchesDivergence:
    """The decay oracle, and the corpus pins it reproduces, must fail on a
    reference with an injected divergence."""

    @pytest.fixture(autouse=True)
    def mutant_reference(self, monkeypatch):
        monkeypatch.setattr(reference, "ReferenceDecayScheduler", ReversedTieBreak)

    def test_oracle_reports_the_mismatch(self):
        report = check_decay_oracle(seeded_scenario, seeds=(1,))
        assert not report.ok
        assert "1 mismatch(es)" in report.summary()

    def test_corpus_pin_check_fails(self):
        message = reference_pin_mismatch("equal")
        assert message is not None and "dispatch_digest" in message


class TestLoopOracle:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    def test_plain_and_fused_loops_agree(self, scheduler):
        report = check_loop_oracle(
            lambda seed: seeded_scenario(seed, scheduler=scheduler),
            seeds=(1, 2, 3),
        )
        assert report.ok, f"{scheduler}: {report.summary()}"
        assert report.events_compared > 0


class TestCompactionRegression:
    """The PR-1 bug class: ``run_until_done`` holds a local binding to the
    calendar heap across callbacks, so a compaction fired *inside* a
    callback must mutate the heap in place.  Force one mid-run and require
    the fused loop's dispatch trace to match the plain loop's exactly."""

    def _run(self, loop):
        trace = TraceLog(categories=["kernel.dispatch"])
        kernel = make_kernel(
            n_processors=2, quantum=units.ms(1), trace=trace,
        )
        engine = kernel.engine
        sanitizer = SchedSanitizer(kernel, deep_period=1).attach()

        def compute_program(amount, chunks):
            def program():
                for _ in range(chunks):
                    yield sc.Compute(amount)

            return program()

        for i in range(6):
            kernel.spawn(compute_program(units.ms(2), chunks=4), name=f"p{i}")

        def churn():
            # Enough cancelled garbage to out-number the live entries and
            # cross the compaction threshold, so _note_cancel() compacts
            # the heap while this callback is still on the loop's stack.
            handles = [
                engine.schedule(units.ms(500) + i, lambda: None, "junk")
                for i in range(400)
            ]
            for handle in handles:
                handle.cancel()
            engine._compact()  # and once more, explicitly

        engine.schedule(units.ms(5), churn, "compaction-churn")
        if loop == "plain":
            with plain_event_loop():
                kernel.run_until_quiescent()
        else:
            kernel.run_until_quiescent()
        sanitizer.finish()
        assert sanitizer.ok
        return dispatch_trace(trace)

    def test_fused_trace_matches_plain_after_forced_compaction(self):
        plain = self._run("plain")
        fused = self._run("fused")
        assert len(plain) > 10
        assert fused == plain

    def test_scenario_level_loops_agree_under_sanitizer(self):
        """End-to-end: run_scenario under the plain loop and under the
        fused one, with strict sanitizing, produces identical dispatch
        traces."""
        from repro.workloads import run_scenario

        def run():
            trace = TraceLog(categories=["kernel.dispatch"])
            run_scenario(
                Scenario(
                    apps=[AppSpec(uniform(n_tasks=16), 4)],
                    machine=small_machine(2),
                    control="centralized",
                ),
                trace=trace,
                sanitize="strict",
            )
            return dispatch_trace(trace)

        with plain_event_loop():
            plain = run()
        assert plain == run()


class TestPlainEventLoop:
    def test_swaps_the_fused_loop_only_inside_the_block(self):
        from repro.sim import Engine

        fused = Engine.run_until_done
        with pytest.raises(RuntimeError, match="boom"):
            with plain_event_loop():
                assert Engine.run_until_done is not fused
                raise RuntimeError("boom")
        assert Engine.run_until_done is fused

    def test_plain_loop_keeps_the_event_guard(self):
        from repro.sim.engine import SimulationError

        kernel = make_kernel(n_processors=1)

        def forever():
            while True:
                yield sc.Compute(units.ms(1))

        kernel.spawn(forever(), name="spinner")
        with plain_event_loop(), pytest.raises(SimulationError, match="max_events=5"):
            kernel.run_until_quiescent(max_events=5)
