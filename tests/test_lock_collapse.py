"""The lock-collapse experiment: saturation sweep, restriction, and the
processor-control composition claim, digest-pinned.

The acceptance pins live in their own golden store
(``tests/golden/lock_collapse.json``); regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_lock_collapse.py -q
"""

import pytest

from repro.experiments.lock_collapse import (
    ADMISSION,
    HEAD_TO_HEAD_ARMS,
    LockHeadToHeadCell,
    LockSweepCell,
    _head_to_head_cell,
    _sweep_cell,
    arm_knobs,
    collapse_summary,
    format_lock_collapse,
    head_to_head_scenario,
    sweep_scenario,
    LockCollapseResult,
)
from repro.experiments.parallel import Runs
from repro.scenarios.golden import GoldenStore
from repro.scenarios.runner import DEFAULT_GOLDEN_PATH
from repro.sim import TraceLog, dispatch_digest
from repro.workloads import predicted_throughput, run_scenario

EXPERIMENT_GOLDEN_PATH = DEFAULT_GOLDEN_PATH.parent / "lock_collapse.json"
EXPERIMENT_REGEN_HINT = (
    "PYTHONPATH=src python -m pytest tests/test_lock_collapse.py -q"
)


class TestArmKnobs:
    def test_arms_map_the_two_by_two(self):
        assert arm_knobs("none") == (None, None)
        assert arm_knobs("restrict") == (ADMISSION, None)
        assert arm_knobs("control") == (None, "centralized")
        assert arm_knobs("combined") == (ADMISSION, "centralized")

    def test_unknown_arm_is_an_error(self):
        with pytest.raises(ValueError, match="unknown arm"):
            arm_knobs("bogus")

    def test_sweep_scenario_never_overcommits(self):
        # The pure-saturation regime: restriction's claim is about the
        # spinner storm, not time slicing, so threads stay <= CPUs.
        scenario = sweep_scenario("restrict", threads=14, preset="quick")
        assert scenario.machine.n_processors >= 14
        assert scenario.lock_admission == ADMISSION
        assert scenario.control is None

    def test_head_to_head_scenario_overcommits(self):
        scenario = head_to_head_scenario("combined", preset="quick")
        threads = sum(spec.n_processes for spec in scenario.apps)
        assert threads > scenario.machine.n_processors
        assert scenario.control == "centralized"
        assert scenario.lock_admission == ADMISSION


class TestAnalyticModel:
    def test_linear_below_the_knee(self):
        assert predicted_throughput(2) == pytest.approx(
            2 / 750e-6, rel=1e-6
        )

    def test_collapse_past_the_knee(self):
        # Each extra spinner subtracts throughput once saturated.
        saturated = [predicted_throughput(t) for t in (6, 8, 10, 12)]
        assert saturated == sorted(saturated, reverse=True)
        assert saturated[-1] < 0.7 * saturated[0]

    def test_restriction_caps_the_storm(self):
        unrestricted = predicted_throughput(12)
        restricted = predicted_throughput(12, admission=1)
        assert restricted > 2 * unrestricted
        # ...and the restricted curve is flat in the thread count.
        assert predicted_throughput(6, admission=1) == pytest.approx(
            predicted_throughput(14, admission=1)
        )

    def test_processor_count_bounds_active_spinners(self):
        # 32 threads on 8 CPUs can field at most 7 live spinners --
        # exactly the storm 8 threads on a big machine produce.
        assert predicted_throughput(32, n_processors=8) == pytest.approx(
            predicted_throughput(8)
        )


class TestSummaryAndFormat:
    def _sweep(self):
        return [
            LockSweepCell("none", 4, 4683.0, 1, 1, 0, 0, 0, 1, 200.0),
            LockSweepCell("none", 14, 1769.0, 1, 1, 0, 0, 0, 11, 6400.0),
            LockSweepCell("restrict", 4, 4701.0, 1, 1, 0, 0, 0, 0, 120.0),
            LockSweepCell("restrict", 14, 6059.0, 1, 1, 0, 92, 92, 8, 1100.0),
        ]

    def test_summary_measures_each_arms_own_drop(self):
        summary = collapse_summary(self._sweep())
        assert summary["none"]["knee_threads"] == 4.0
        assert summary["none"]["drop"] == pytest.approx(1 - 1769 / 4683)
        assert summary["restrict"]["drop"] == pytest.approx(0.0)

    def test_summary_requires_the_baseline_arm(self):
        with pytest.raises(ValueError, match="none"):
            collapse_summary(
                [LockSweepCell("restrict", 4, 1.0, 1, 1, 0, 0, 0, 0, 0.0)]
            )

    def test_format_states_both_claims(self):
        result = LockCollapseResult(
            preset="quick",
            sweep=self._sweep(),
            head_to_head=[
                LockHeadToHeadCell("none", 853.0, 112.5, 113.0, 36, 0, 0, 495.6),
                LockHeadToHeadCell("restrict", 815.0, 117.8, 118.0, 14, 39, 0, 28.6),
                LockHeadToHeadCell("control", 2145.0, 44.8, 45.0, 12, 0, 22, 168.7),
                LockHeadToHeadCell("combined", 3645.0, 26.3, 27.0, 0, 5, 22, 11.7),
            ],
        )
        text = format_lock_collapse(result)
        assert "collapse: unrestricted drops 62%" in text
        assert "within 0% of its 6059/s peak" in text
        assert "composition: combined 3645/s" in text
        assert "best single remedy 2145/s" in text


class TestExperimentAcceptance:
    def test_restriction_holds_peak_where_unrestricted_collapses(self):
        """The headline sweep claim on the quick preset: past the knee
        the unrestricted arm loses >= 30% of its peak throughput to the
        invalidation storm, while the restricted arm stays within 10%
        of *its* peak.  Every measured cell is digest-pinned so the
        collapse curve cannot silently drift."""
        cells = {}
        digests = {}
        for arm in ("none", "restrict"):
            for threads in (4, 6, 14):
                trace = TraceLog(categories={"kernel.dispatch"})
                scenario = sweep_scenario(arm, threads, preset="quick", seed=0)
                result = run_scenario(scenario, trace=trace)
                app = result.apps["locks"]
                cells[(arm, threads)] = app.tasks_completed / (
                    app.wall_time / 1e6
                )
                digests[(arm, threads)] = dispatch_digest(trace)
                stats = result.locks["locks.lock"]
                # Below the knee (~5 threads) the queue rarely exceeds
                # the admission limit, so culling only shows past it.
                if arm == "restrict" and threads >= 6:
                    assert stats.passivations > 0
                    assert stats.readmissions == stats.passivations
                    assert stats.admission == ADMISSION
                else:
                    assert stats.passivations == 0

        none_peak = max(cells[("none", t)] for t in (4, 6, 14))
        assert cells[("none", 14)] <= 0.70 * none_peak
        restrict_peak = max(cells[("restrict", t)] for t in (4, 6, 14))
        assert cells[("restrict", 14)] >= 0.90 * restrict_peak
        # Restriction never costs throughput at matched thread counts.
        for threads in (4, 6, 14):
            assert (
                cells[("restrict", threads)]
                >= 0.95 * cells[("none", threads)]
            )

        store = GoldenStore(EXPERIMENT_GOLDEN_PATH, EXPERIMENT_REGEN_HINT)
        for (arm, threads), throughput in sorted(cells.items()):
            message = store.compare(
                f"lock-collapse-sweep-{arm}-t{threads}",
                {
                    "dispatch_digest": digests[(arm, threads)],
                    "throughput_s": round(throughput, 1),
                },
            )
            if message:
                pytest.fail(message)
        store.save()

    def test_combined_beats_either_remedy_alone(self):
        """The composition claim on the overcommitted machine: waiter
        restriction and processor control attack different pathologies
        (the spinner storm vs holder preemption), so together they beat
        the best single remedy.  All four arms are digest-pinned."""
        throughput = {}
        preempted = {}
        digests = {}
        for arm in HEAD_TO_HEAD_ARMS:
            trace = TraceLog(categories={"kernel.dispatch"})
            result = run_scenario(
                head_to_head_scenario(arm, preset="quick", seed=0),
                trace=trace,
            )
            app = result.apps["locks"]
            throughput[arm] = app.tasks_completed / (app.wall_time / 1e6)
            preempted[arm] = result.locks[
                "locks.lock"
            ].holder_preempted_encounters
            digests[arm] = dispatch_digest(trace)

        best_single = max(throughput["restrict"], throughput["control"])
        assert throughput["combined"] > best_single
        assert best_single > throughput["none"]
        # Processor control is what removes holder preemption; the lock
        # alone cannot (it restricts waiters, not the holder's CPU).
        assert preempted["combined"] < preempted["none"]
        assert preempted["control"] < preempted["none"]

        store = GoldenStore(EXPERIMENT_GOLDEN_PATH, EXPERIMENT_REGEN_HINT)
        for arm in HEAD_TO_HEAD_ARMS:
            message = store.compare(
                f"lock-collapse-head-{arm}",
                {
                    "dispatch_digest": digests[arm],
                    "throughput_s": round(throughput[arm], 1),
                    "holder_preempted": preempted[arm],
                },
            )
            if message:
                pytest.fail(message)
        store.save()

    def test_cells_carry_the_pinned_metrics(self):
        cell = _sweep_cell(Runs(), ("restrict", 6, "quick", 0))
        assert cell.arm == "restrict"
        assert cell.throughput_s > 0
        assert cell.passivations > 0
        head = _head_to_head_cell(Runs(), ("combined", "quick", 0))
        assert head.suspensions > 0
        assert head.passivations > 0
