"""Tests for scenario descriptions and the experiment runner."""

import pytest

import repro.workloads.runner as runner
from repro.apps.synthetic import UniformApp
from repro.kernel import KernelConfig
from repro.sim import units
from repro.workloads import (
    AppSpec,
    Scenario,
    UncontrolledSpec,
    run_scenario,
)

from tests.conftest import small_machine, uniform


class TestScenarioValidation:
    def test_app_spec_validation(self):
        with pytest.raises(ValueError):
            AppSpec(uniform(), n_processes=0)
        with pytest.raises(ValueError):
            AppSpec(uniform(), n_processes=2, arrival=-1)
        for app_id in ("", 7):
            with pytest.raises(ValueError, match="app_id"):
                AppSpec(uniform(), n_processes=2, app_id=app_id)

    def test_uncontrolled_spec_validation(self):
        with pytest.raises(ValueError):
            UncontrolledSpec(duration=0)
        with pytest.raises(ValueError):
            UncontrolledSpec(arrival=-5)

    @pytest.mark.parametrize(
        "field, value", [("shards", 0), ("shards", -1), ("lock_admission", 0)]
    )
    def test_out_of_range_run_fields_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            Scenario(apps=[AppSpec(uniform(), 2)], **{field: value})
        # ...and through the ablation helper, which builds a new Scenario.
        with pytest.raises(ValueError, match=field):
            Scenario(apps=[AppSpec(uniform(), 2)]).with_(**{field: value})

    def test_with_override(self):
        scenario = Scenario(apps=[AppSpec(uniform(), 2)])
        other = scenario.with_(control="centralized")
        assert scenario.control is None
        assert other.control == "centralized"
        assert other.apps is scenario.apps

    def test_empty_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(Scenario(apps=[]))

    def test_duplicate_app_ids_rejected(self):
        # Two tenants with one id would share a shard route and a process
        # bucket, and the second result would overwrite the first.
        scenario = Scenario(
            apps=[
                AppSpec(uniform("a"), 2),
                AppSpec(uniform("b"), 2),
                AppSpec(uniform("a"), 2),
            ],
            machine=small_machine(),
        )
        with pytest.raises(
            ValueError,
            match=r"scenario\.apps\[0\] and scenario\.apps\[2\] share app_id 'a'",
        ):
            run_scenario(scenario)

    def test_duplicate_declared_app_ids_rejected_before_any_factory_runs(self):
        built = []

        def factory(name):
            def build():
                built.append(name)
                return UniformApp(app_id=name, n_tasks=4)

            return build

        scenario = Scenario(
            apps=[
                AppSpec(factory("a"), 2, app_id="a"),
                AppSpec(factory("b"), 2, app_id="b"),
                AppSpec(factory("a"), 2, app_id="a"),
            ],
            machine=small_machine(),
        )
        with pytest.raises(
            ValueError,
            match=r"scenario\.apps\[0\] and scenario\.apps\[2\] share app_id 'a'",
        ):
            run_scenario(scenario)
        assert built == []

    def test_declared_app_id_must_match_the_built_application(self):
        scenario = Scenario(
            apps=[
                AppSpec(uniform("a"), 2, app_id="a"),
                AppSpec(uniform("b"), 2, arrival=units.ms(5), app_id="c"),
            ],
            machine=small_machine(),
        )
        with pytest.raises(
            ValueError,
            match=r"scenario\.apps\[1\] declares app_id 'c' but its factory "
            r"built 'b'",
        ):
            run_scenario(scenario)


class TestRunScenario:
    def test_basic_run(self):
        result = run_scenario(
            Scenario(apps=[AppSpec(uniform(), 4)], machine=small_machine())
        )
        assert result.apps["u"].tasks_completed == 20
        assert result.apps["u"].wall_time > 0
        assert result.sim_time >= result.apps["u"].finished_at
        assert result.makespan == result.apps["u"].finished_at

    def test_arrival_times_respected(self):
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("first"), 2, arrival=0),
                    AppSpec(uniform("second"), 2, arrival=units.ms(50)),
                ],
                machine=small_machine(),
            )
        )
        assert result.apps["second"].arrival == units.ms(50)

    def test_controlled_run_spins_up_server(self):
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("a", n_tasks=60), 4),
                    AppSpec(uniform("b", n_tasks=60), 4),
                ],
                control="centralized",
                machine=small_machine(),
                poll_interval=units.ms(20),
                server_interval=units.ms(20),
            )
        )
        assert result.server_updates >= 1
        # 8 processes on 4 CPUs: the apps were told to shrink.
        total_susp = sum(r.suspensions for r in result.apps.values())
        assert total_susp >= 1

    def test_uncontrolled_processes_reduce_targets(self):
        result = run_scenario(
            Scenario(
                apps=[AppSpec(uniform("a", n_tasks=80), 4)],
                uncontrolled=[
                    UncontrolledSpec(name="hog", duration=units.seconds(30)),
                    UncontrolledSpec(name="hog2", duration=units.seconds(30)),
                ],
                control="centralized",
                machine=small_machine(),
                poll_interval=units.ms(20),
                server_interval=units.ms(20),
            )
        )
        # 4 CPUs - 2 hogs = 2 for the app.
        assert result.apps["a"].suspensions >= 1

    def test_runnable_series_populated(self):
        result = run_scenario(
            Scenario(apps=[AppSpec(uniform(), 3)], machine=small_machine())
        )
        assert result.runnable_total.maximum() >= 3
        assert "u" in result.runnable_per_app

    def test_utilization_sums_to_elapsed(self):
        result = run_scenario(
            Scenario(apps=[AppSpec(uniform(), 2)], machine=small_machine())
        )
        total = sum(result.utilization.values())
        assert total == 4 * result.sim_time

    def test_determinism(self):
        def once():
            return run_scenario(
                Scenario(
                    apps=[AppSpec(uniform(), 4)],
                    machine=small_machine(),
                    seed=3,
                )
            ).apps["u"].wall_time

        assert once() == once()

    def test_max_time_guard(self):
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError):
            run_scenario(
                Scenario(
                    apps=[AppSpec(uniform(n_tasks=200, cost=units.ms(50)), 1)],
                    machine=small_machine(),
                    max_time=units.ms(100),
                )
            )

    def test_results_keep_spec_order_when_a_later_spec_finishes_first(self):
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("slow", n_tasks=40), 2),
                    AppSpec(uniform("fast", n_tasks=2), 2),
                ],
                machine=small_machine(),
            )
        )
        assert result.apps["fast"].finished_at < result.apps["slow"].finished_at
        assert list(result.apps) == ["slow", "fast"]
        assert list(result.locks) == [
            "slow.lock",
            "slow.queue.lock",
            "fast.lock",
            "fast.queue.lock",
        ]

    def test_routing_is_fixed_at_set_up_in_spec_order(self, monkeypatch):
        # "late" is first in spec order but arrives last; its shard is
        # written off before it arrives.  It still registers on the
        # channel it was routed to at set-up.
        planes = []
        channels = {}

        class RecordingPlane(runner.ControlPlane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                planes.append(self)

        make_package = runner.make_package

        def recording_make_package(runtime, kernel, app, n_processes, config=None):
            if not channels:
                planes[0].fail_over(0)
            channels[app.app_id] = config.server_channel
            return make_package(runtime, kernel, app, n_processes, config=config)

        monkeypatch.setattr(runner, "ControlPlane", RecordingPlane)
        monkeypatch.setattr(runner, "make_package", recording_make_package)
        result = run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("late"), 2, arrival=units.ms(20)),
                    AppSpec(uniform("early"), 2, arrival=0),
                ],
                control="centralized",
                shards=2,
                supervise=False,
                machine=small_machine(),
            )
        )
        (plane,) = planes
        shard0, shard1 = (server.channel for server in plane.servers)
        assert plane.channel_for("late") is shard1  # the rebalance moved it
        assert channels == {"early": shard1, "late": shard0}
        assert result.apps["late"].tasks_completed == 20

    def test_wall_time_accessor(self):
        result = run_scenario(
            Scenario(apps=[AppSpec(uniform(), 2)], machine=small_machine())
        )
        assert result.wall_time("u") == result.apps["u"].wall_time

    @pytest.mark.parametrize("scheduler", ["fifo", "decay", "affinity"])
    def test_alternative_schedulers_via_scenario(self, scheduler):
        result = run_scenario(
            Scenario(
                apps=[AppSpec(uniform(), 4)],
                machine=small_machine(),
                scheduler=scheduler,
            )
        )
        assert result.apps["u"].tasks_completed == 20
