"""The mixed-runtime experiment: four tenants, four relationships to
process control, and the compliance policy's pinned acceptance claim.

The acceptance pin lives in its own golden store
(``tests/golden/mixed_runtime.json``); regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_mixed_runtime.py -q
"""

import pytest

from repro.experiments.mixed_runtime import (
    LAG_GRACE,
    SWEEP_ARMS,
    MixedRuntimeCell,
    _mixed_runtime_cell,
    format_mixed_runtime,
    mixed_runtime_scenario,
    overcommitted_cpu_ms,
)
from repro.scenarios.golden import GoldenStore
from repro.scenarios.runner import DEFAULT_GOLDEN_PATH
from repro.sim import TraceLog, dispatch_digest
from repro.workloads import run_scenario

EXPERIMENT_GOLDEN_PATH = DEFAULT_GOLDEN_PATH.parent / "mixed_runtime.json"
EXPERIMENT_REGEN_HINT = (
    "PYTHONPATH=src python -m pytest tests/test_mixed_runtime.py -q"
)


class TestScenarioShape:
    def test_every_arm_builds_the_same_tenant_mix(self):
        for arm in SWEEP_ARMS:
            scenario = mixed_runtime_scenario(arm, preset="quick")
            runtimes = {}
            for spec in scenario.apps:
                app = spec.factory()
                runtimes[app.app_id] = spec.runtime
            assert runtimes["tq"] == "taskqueue"
            assert runtimes["fj"] == "forkjoin"
            assert runtimes["pipe"] == "pipeline"
            assert {"greedy0", "greedy1", "greedy2"} <= set(runtimes)

    def test_uncontrolled_waves_opt_out_of_control(self):
        scenario = mixed_runtime_scenario("equal", preset="quick")
        controls = {
            spec.factory().app_id: spec.control for spec in scenario.apps
        }
        assert controls["greedy0"] == "off"
        assert controls["greedy1"] == "off"
        assert controls["greedy2"] == "off"

    def test_compliance_arm_pins_a_policy_instance(self):
        # The registry default lag grace is wall-clock scale; the arm
        # must carry an instance whose grace matches the sim's cadence.
        scenario = mixed_runtime_scenario("compliance", preset="quick")
        assert scenario.policy.name == "compliance"
        assert scenario.policy.keywords == {"lag_grace": LAG_GRACE}

    def test_name_arms_stay_name_strings(self):
        assert mixed_runtime_scenario("equal").policy == "equal"
        assert mixed_runtime_scenario("demand").policy == "demand"


class TestOvercommitMetric:
    def test_integrates_area_above_capacity(self):
        class _Series:
            points = [(0, 10), (1000, 14), (3000, 12), (4000, 2)]

        class _Result:
            runnable_total = _Series()

        # 0-1000us: load 10 <= 12 -> 0; 1000-3000us: 2 over for 2ms -> 4;
        # 3000-4000us: at capacity -> 0.
        assert overcommitted_cpu_ms(_Result(), 12) == pytest.approx(4.0)

    def test_empty_run_is_zero(self):
        class _Result:
            runnable_total = type("S", (), {"points": []})()

        assert overcommitted_cpu_ms(_Result(), 12) == 0.0


class TestFormatting:
    def test_comparison_line_states_the_overcommit_claim(self):
        cells = [
            MixedRuntimeCell("equal", 480.0, 338, 479, 265, 6, 99.9, 5.0, 20, 1533.1),
            MixedRuntimeCell("compliance", 664.0, 378, 659, 249, 6, 99.9, 5.0, 32, 1189.2),
        ]
        text = format_mixed_runtime(cells)
        assert "overcommit" in text
        assert "1189.2" in text and "1533.1" in text
        assert "22% less" in text


class TestExperimentAcceptance:
    def test_compliance_reduces_overcommit_with_a_slow_complier(self):
        """The quick-preset mix (prompt complier + slow complier +
        pipeline floor + three uncontrolled waves on 12 CPUs): the
        compliance policy must spend strictly less processor-time
        overcommitted than equipartition, with the slow complier's
        adoption lag genuinely beyond the grace (so the discount and
        census cross-check are exercised, not idle).  Both arms are
        digest-pinned so the comparison cannot silently drift."""
        overcommit = {}
        lag_max = {}
        digests = {}
        for arm in ("equal", "compliance"):
            # kernel.runnable feeds the overcommit integral's step
            # series; kernel.dispatch feeds the pinned digest.
            trace = TraceLog(categories={"kernel.dispatch", "kernel.runnable"})
            scenario = mixed_runtime_scenario(arm, preset="quick", seed=0)
            result = run_scenario(scenario, trace=trace)
            overcommit[arm] = overcommitted_cpu_ms(
                result, scenario.machine.n_processors
            )
            lag_max[arm] = max(
                app.adoption_lag_max for app in result.apps.values()
            )
            digests[arm] = dispatch_digest(trace)
        # The slow complier really is slow: its worst adoption lag
        # exceeds the grace in both arms, so the policy has something
        # to discount and the census cross-check sees mid-phase holds.
        assert lag_max["equal"] > LAG_GRACE
        assert lag_max["compliance"] > LAG_GRACE
        assert overcommit["compliance"] < overcommit["equal"]

        store = GoldenStore(EXPERIMENT_GOLDEN_PATH, EXPERIMENT_REGEN_HINT)
        for arm in ("equal", "compliance"):
            message = store.compare(
                f"mixed-runtime-quick-{arm}",
                {
                    "dispatch_digest": digests[arm],
                    "overcommit_cpu_ms": round(overcommit[arm], 1),
                    "lag_max_us": lag_max[arm],
                },
            )
            if message:
                pytest.fail(message)
        store.save()

    def test_cell_carries_the_pinned_metric(self):
        cell = _mixed_runtime_cell(("compliance", "quick", 0))
        assert cell.arm == "compliance"
        assert cell.overcommit_cpu_ms > 0.0
        assert cell.lag_max_ms * 1e3 > LAG_GRACE
