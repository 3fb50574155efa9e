"""The ``Runs`` record: how runs execute.

A ``Runs`` carries the only two execution settings, the sweep worker
count and the sanitizer mode.  These tests pin its validation, show that
the mode reaches pool workers as an argument, and show that the retired
``REPRO_SANITIZE`` and ``REPRO_JOBS`` variables and the ``True``/
``False``/``""`` sanitize aliases no longer change a run.
"""

import pytest

from repro.experiments.mechanisms import run_m1_spinlock_preemption
from repro.experiments.parallel import Runs
from repro.sanitize import SanitizerError
from repro.workloads import AppSpec, Scenario, run_scenario

from tests.conftest import small_machine, uniform
from tests.test_scale_paths import inject


def _scenario() -> Scenario:
    return Scenario(apps=[AppSpec(uniform(n_tasks=4), 2)], machine=small_machine())


def _checked(runs, index):
    """Pool cell: whether a run under *runs* was sanitized."""
    result = run_scenario(_scenario(), sanitize=runs.sanitize)
    return index, result.sanitizer_counters is not None


def _square(runs, value):
    return value * value


class TestValidation:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected_naming_the_value(self, jobs):
        with pytest.raises(ValueError, match=f"got {jobs}"):
            Runs(jobs=jobs)

    @pytest.mark.parametrize("mode", ["on", "1", True, False, ""])
    def test_unknown_mode_rejected_naming_the_value(self, mode):
        with pytest.raises(ValueError, match=f"got {mode!r}"):
            Runs(sanitize=mode)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Runs().jobs = 2


class TestMap:
    def test_keeps_input_order_serial_and_pooled(self):
        items = list(range(7))
        expected = [value * value for value in items]
        assert Runs(jobs=1).map(_square, items) == expected
        assert Runs(jobs=2).map(_square, items) == expected
        assert Runs(jobs=2).map(_square, []) == []

    def test_the_mode_reaches_pool_workers(self):
        outcomes = Runs(jobs=2, sanitize="record").map(_checked, range(3))
        assert outcomes == [(0, True), (1, True), (2, True)]
        assert Runs(jobs=2).map(_checked, range(2)) == [(0, False), (1, False)]


class TestRetiredSpellings:
    @pytest.mark.parametrize("alias", [True, False, ""])
    def test_run_scenario_rejects_the_old_aliases(self, alias):
        with pytest.raises(ValueError, match="mode must be"):
            run_scenario(_scenario(), sanitize=alias)

    def test_run_scenario_ignores_the_sanitize_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert run_scenario(_scenario()).sanitizer_counters is None

    def test_map_ignores_the_jobs_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "x")
        assert Runs().map(_square, [1, 2, 3]) == [1, 4, 9]


class TestMechanismsUnderTheSanitizer:
    def test_strict_mode_catches_a_drift_in_a_raw_kernel(self, monkeypatch):
        inject(monkeypatch, ["idle-set-drift"])
        with pytest.raises(SanitizerError, match="idle-set-drift"):
            run_m1_spinlock_preemption(
                n_processors=4, iterations=2, runs=Runs(sanitize="strict")
            )
