"""Mixed-control scenarios (Section 7): per-application control overrides
and the partition-aware server."""

import pytest

from repro.sim import units
from repro.workloads import AppSpec, Scenario, run_scenario
from repro.workloads.scenario import INHERIT_CONTROL

from tests.conftest import scenario_machine as machine, uniform, updates_trace


class TestPerAppControl:
    def test_inherit_is_default(self):
        spec = AppSpec(uniform("a"), 2)
        assert spec.control == INHERIT_CONTROL
        assert spec.control_mode("centralized") == "centralized"
        assert spec.control_mode(None) is None

    def test_off_override(self):
        spec = AppSpec(uniform("a"), 2, control="off")
        assert spec.control_mode("centralized") is None

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            AppSpec(uniform("a"), 2, control="anarchy")

    def test_greedy_app_never_suspends(self):
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("polite", n_tasks=100), 4),
                    AppSpec(uniform("greedy", n_tasks=100), 4, control="off"),
                ],
                control="centralized",
                machine=machine(4),
                poll_interval=units.ms(30),
                server_interval=units.ms(30),
            )
        )
        assert result.apps["greedy"].suspensions == 0
        assert result.apps["greedy"].polls == 0
        # The polite app was told to shrink (greedy's 4 runnable count as
        # uncontrolled load on a 4-CPU machine).
        assert result.apps["polite"].suspensions >= 1

    def test_controlled_app_in_uncontrolled_scenario(self):
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("managed", n_tasks=100), 4,
                            control="centralized"),
                    AppSpec(uniform("wild", n_tasks=100), 4),
                ],
                control=None,  # scenario-wide off; one app opts in
                machine=machine(4),
                poll_interval=units.ms(30),
                server_interval=units.ms(30),
            )
        )
        # A server was spun up for the opting-in application.
        assert result.server_updates >= 1
        assert result.apps["managed"].polls >= 1
        assert result.apps["wild"].polls == 0


class TestPartitionAwareServer:
    def test_partition_aware_targets_match_group_sizes(self):
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("a", n_tasks=150), 8),
                    AppSpec(uniform("b", n_tasks=150), 8),
                ],
                control="centralized",
                scheduler="partition",
                policy="space",
                machine=machine(8),
                poll_interval=units.ms(30),
                server_interval=units.ms(30),
            ),
            trace=updates_trace(),
        )
        # Two applications on 8 processors.  The server daemon itself is a
        # system process, so the policy module reserves it a system group
        # (Section 7: "a separate processor group for ... OS daemons"),
        # leaving 7 processors split 4/3 between the applications.
        targets = [
            record.data["targets"]
            for record in result.trace.records("server.update")
            if len(record.data["targets"]) == 2
        ]
        assert targets, "server never saw both applications"
        assert any(
            sorted(t.values()) == [3, 4] for t in targets
        ), f"unexpected targets {targets}"

    def test_partition_aware_ignores_greedy_load(self):
        """The crucial Section 7 property: a greedy uncontrolled app does
        NOT shrink the polite app's target, because the partition already
        isolates it."""
        def run(aware):
            return run_scenario(
                Scenario(
                    apps=[
                        AppSpec(uniform("polite", n_tasks=120), 8),
                        AppSpec(uniform("greedy", n_tasks=400), 8, control="off"),
                    ],
                    control="centralized",
                    scheduler="partition",
                    policy="space" if aware else None,
                    machine=machine(8),
                    poll_interval=units.ms(30),
                    server_interval=units.ms(30),
                ),
                trace=updates_trace(),
            )

        aware = run(True)
        naive = run(False)

        def polite_targets(result):
            return [
                record.data["targets"].get("polite")
                for record in result.trace.records("server.update")
                if "polite" in record.data["targets"]
            ]

        # Naive server: greedy's 8 runnable eat the whole 8-CPU pool, the
        # polite app is squeezed to the starvation floor of 1.
        assert min(polite_targets(naive)) == 1
        # Partition-aware server: the polite app keeps its processor group
        # (3-4 CPUs of 8, one being reserved for the system/daemon group).
        assert min(polite_targets(aware)) >= 3
