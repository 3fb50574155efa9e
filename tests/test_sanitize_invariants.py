"""Online SchedSanitizer invariant checks.

Covers clean runs (no false positives), detach/restore symmetry, the
mode argument, and — most importantly — a deliberately broken policy
whose double-enqueue bug must be caught by the online checker AND show up
in the trace for the post-hoc lint pass (record mode).
"""

import pytest

from repro.kernel import syscalls as sc
from repro.kernel.scheduler import FifoScheduler
from repro.sanitize import (
    SanitizerError,
    SanitizerWarning,
    SchedSanitizer,
    lint_trace,
)
from repro.sim import TraceLog, units
from repro.workloads import AppSpec, Scenario, run_scenario

from tests.conftest import make_kernel, small_machine, uniform


def compute_program(amount, chunks=1):
    def program():
        for _ in range(chunks):
            yield sc.Compute(amount)

    return program()


class LeakyFifoScheduler(FifoScheduler):
    """Deliberately broken: every enqueue lands on the queue twice.

    Test-only.  This reproduces the "internal duplication" bug class: the
    kernel's calls look legal, but the policy's own structure corrupts, so
    only the census cross-check can see it.
    """

    def enqueue(self, process, reason):
        super().enqueue(process, reason)
        self._queue.append(process)  # the injected bug


class TestCleanRuns:
    def test_simple_kernel_run_is_clean(self):
        kernel = make_kernel(n_processors=2, quantum=units.ms(1))
        sanitizer = SchedSanitizer(kernel, deep_period=1).attach()
        for i in range(5):
            kernel.spawn(compute_program(units.ms(3), chunks=3), name=f"p{i}")
        kernel.run_until_quiescent()
        sanitizer.finish()
        assert sanitizer.ok
        assert sanitizer.counters["checks"] > 0
        assert sanitizer.counters["deep_checks"] > 0

    def test_scenario_strict_is_clean(self):
        result = run_scenario(
            Scenario(
                apps=[AppSpec(uniform(n_tasks=12), 4)],
                machine=small_machine(),
                control="centralized",
            ),
            sanitize="strict",
        )
        assert result.sanitizer_violations == 0
        assert result.sanitizer_counters is not None
        assert result.sanitizer_counters["checks"] > 0

    def test_sanitize_false_means_off(self):
        result = run_scenario(
            Scenario(apps=[AppSpec(uniform(n_tasks=4), 2)], machine=small_machine()),
            sanitize=None,
        )
        assert result.sanitizer_counters is None
        assert result.sanitizer_violations == 0


class TestLifecycle:
    def test_double_attach_rejected(self):
        kernel = make_kernel()
        sanitizer = SchedSanitizer(kernel).attach()
        with pytest.raises(RuntimeError):
            sanitizer.attach()

    def test_detach_restores_kernel_and_policy(self):
        from repro.core.plane import ControlPlane

        kernel = make_kernel()
        plane = ControlPlane(kernel, interval=units.ms(50))
        (server,) = plane.servers
        before_kernel = dict(kernel.__dict__)
        before_policy = dict(kernel.policy.__dict__)
        before_server = dict(server.__dict__)
        sanitizer = SchedSanitizer(kernel).attach()
        sanitizer.watch_server(plane, poll_interval=units.ms(50))
        assert kernel.__dict__ != before_kernel  # shims installed
        assert server.__dict__ != before_server  # scan check installed
        sanitizer.detach()
        assert dict(kernel.__dict__) == before_kernel
        assert dict(kernel.policy.__dict__) == before_policy
        assert dict(server.__dict__) == before_server

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            SchedSanitizer(make_kernel(), mode="loose")


class TestInjectedBug:
    """The acceptance gate: a seeded double-enqueue bug must be caught by
    both the online checker and the post-hoc lint pass."""

    def _buggy_kernel(self, trace=None):
        kernel = make_kernel(
            n_processors=1,
            quantum=units.ms(1),
            policy=LeakyFifoScheduler(),
            trace=trace,
        )
        return kernel

    def test_online_strict_raises(self):
        kernel = self._buggy_kernel()
        SchedSanitizer(kernel, mode="strict", deep_period=1).attach()
        # The first enqueue already corrupts the queue, so strict mode
        # aborts at the very first deep check (spawn time).
        with pytest.raises(SanitizerError, match="census-mismatch"):
            kernel.spawn(compute_program(units.ms(3), chunks=3), name="a")
            kernel.spawn(compute_program(units.ms(3), chunks=3), name="b")
            kernel.run_until_quiescent()

    def test_online_record_then_lint_both_catch_it(self):
        trace = TraceLog()  # unfiltered: lint gets the full event stream
        kernel = self._buggy_kernel(trace=trace)
        sanitizer = SchedSanitizer(kernel, mode="record", deep_period=1).attach()
        with pytest.warns(SanitizerWarning):
            kernel.spawn(compute_program(units.ms(3), chunks=3), name="a")
            kernel.spawn(compute_program(units.ms(3), chunks=3), name="b")
            kernel.run_until_quiescent()
            sanitizer.finish()
        # Online: the census cross-check sees the duplicated entry.
        assert not sanitizer.ok
        checks = {v.check for v in sanitizer.violations}
        assert checks & {"census-mismatch", "phantom-dequeue", "double-enqueue"}
        # Post-hoc: the lint pass surfaces the recorded violations.
        report = lint_trace(trace, n_processors=1)
        assert not report.ok
        assert any(issue.check == "online-violation" for issue in report.issues)

    def test_clean_policy_same_workload_passes(self):
        """Control: identical workload on the unbroken policy is clean."""
        trace = TraceLog()
        kernel = make_kernel(
            n_processors=1, quantum=units.ms(1), policy=FifoScheduler(), trace=trace
        )
        sanitizer = SchedSanitizer(kernel, mode="record", deep_period=1).attach()
        kernel.spawn(compute_program(units.ms(3), chunks=3), name="a")
        kernel.spawn(compute_program(units.ms(3), chunks=3), name="b")
        kernel.run_until_quiescent()
        sanitizer.finish()
        assert sanitizer.ok
        assert lint_trace(trace, n_processors=1).ok
