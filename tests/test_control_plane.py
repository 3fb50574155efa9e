"""Tests for the sharded control plane: routing, rebalance, integration.

Unit tests drive :class:`~repro.core.plane.ControlPlane` against a bare
kernel; integration tests run full scenarios with ``shards=2`` (plus the
policy plumbing: ``Scenario.policy`` and the demand-vs-equal waste
comparison the policies experiment pins).
"""

import dataclasses

import pytest

from repro.core.allocation import AllocationRequest, make_policy
from repro.core.plane import ControlPlane
from repro.experiments.parallel import Runs
from repro.experiments.policies import overload_scenario, run_policies
from repro.faults.campaign import run_campaign
import repro.workloads.runner as runner
from repro.sim import TraceLog, dispatch_digest, units
from repro.workloads import AppSpec, Scenario, run_scenario

from tests.conftest import make_kernel, small_machine, uniform


class TestRouting:
    def test_single_shard_is_the_legacy_server(self):
        plane = ControlPlane(make_kernel(), shards=1, interval=units.ms(50))
        assert len(plane.servers) == 1
        assert plane.servers[0].name == "pc-server"
        # board_for hands out the raw board object: with one shard,
        # routing can never move an application.
        assert plane.board_for("a") is plane.servers[0].board
        assert plane.channel_for("a") is plane.servers[0].channel

    def test_shards_are_named_and_bound(self):
        plane = ControlPlane(make_kernel(), shards=3, interval=units.ms(50))
        assert [s.name for s in plane.servers] == [
            "pc-server-0",
            "pc-server-1",
            "pc-server-2",
        ]
        assert [s.shard_index for s in plane.servers] == [0, 1, 2]

    def test_round_robin_assignment_in_first_seen_order(self):
        plane = ControlPlane(make_kernel(), shards=2, interval=units.ms(50))
        assert [plane.shard_of(a) for a in ("a", "b", "c", "d")] == [0, 1, 0, 1]
        # Assignment is sticky.
        assert plane.shard_of("a") == 0

    def test_routed_board_follows_the_assignment(self):
        plane = ControlPlane(make_kernel(), shards=2, interval=units.ms(50))
        board = plane.board_for("a")
        plane.servers[0].board.post({"a": 3}, now=0)
        assert board.read("a") == 3
        plane.assignment["a"] = 1
        plane.servers[1].board.post({"a": 5}, now=1)
        assert board.read("a") == 5

    def test_each_shard_owns_a_clone_of_the_policy(self):
        # One EWMA-smoothed demand policy handed to a 2-shard plane: a
        # shared instance would let shard B's prune evict shard A's
        # backlog memory between A's rounds.
        policy = make_policy("demand", smoothing=0.5)
        plane = ControlPlane(
            make_kernel(), shards=2, interval=units.ms(50), policy=policy
        )
        shard_a, shard_b = (server.policy for server in plane.servers)
        assert shard_a is not shard_b
        assert policy is not shard_a and policy is not shard_b

        def allocate(shard, app_id, backlog):
            return shard.allocate(
                AllocationRequest(
                    n_processors=8,
                    uncontrolled_runnable=0,
                    app_totals={app_id: 8},
                    demands={app_id: backlog},
                )
            )

        allocate(shard_a, "a", 8)
        allocate(shard_b, "b", 8)
        # a's backlog 8 -> 2 smooths to 5; forgotten memory would cap at 2.
        assert allocate(shard_a, "a", 2) == {"a": 5}

    def test_shard_capacity_splits_online_cpus(self):
        plane = ControlPlane(
            make_kernel(n_processors=8), shards=3, interval=units.ms(50)
        )
        assert [plane.shard_capacity(i) for i in range(3)] == [3, 3, 2]

    def test_shard_capacity_floors_at_one(self):
        plane = ControlPlane(
            make_kernel(n_processors=2), shards=4, interval=units.ms(50)
        )
        assert all(plane.shard_capacity(i) >= 1 for i in range(4))

    def test_shard_capacity_tracks_hotplug(self):
        kernel = make_kernel(n_processors=8)
        plane = ControlPlane(kernel, shards=2, interval=units.ms(50))
        assert plane.shard_capacity(0) == 4
        kernel.cpu_offline(7)
        kernel.cpu_offline(6)
        assert plane.shard_capacity(0) == 3
        assert plane.shard_capacity(1) == 3

    def test_shard_uncontrolled_splits_the_total(self):
        plane = ControlPlane(make_kernel(), shards=2, interval=units.ms(50))
        assert plane.shard_uncontrolled(0, 5) + plane.shard_uncontrolled(1, 5) == 5

    def test_rejects_silly_shard_counts(self):
        with pytest.raises(ValueError):
            ControlPlane(make_kernel(), shards=0)


class TestLifecycle:
    def test_crash_shard_reroutes_its_apps(self):
        kernel = make_kernel(n_processors=4)
        plane = ControlPlane(kernel, shards=2, interval=units.ms(50))
        plane.start()
        assert plane.shard_of("a") == 0 and plane.shard_of("b") == 1
        plane.crash_shard(1)
        assert plane.servers[1].pid is None
        # b moved to the surviving shard; a stayed put.
        assert plane.shard_of("b") == 0
        assert plane.shard_of("a") == 0

    def test_restart_respreads_the_routing(self):
        kernel = make_kernel(n_processors=4)
        plane = ControlPlane(kernel, shards=2, interval=units.ms(50))
        plane.start()
        plane.shard_of("a"), plane.shard_of("b")
        plane.crash_shard(1)
        plane.servers[1].restart()
        plane.rebalance(spread=True)
        assert plane.shard_of("a") == 0
        assert plane.shard_of("b") == 1

    def test_plane_crash_and_restart_cover_every_shard(self):
        kernel = make_kernel(n_processors=4)
        plane = ControlPlane(kernel, shards=2, interval=units.ms(50))
        plane.start()
        assert plane.pid is not None
        assert plane.crash() is True
        assert plane.pid is None
        assert all(s.pid is None for s in plane.servers)
        plane.restart()
        assert all(s.pid is not None for s in plane.servers)
        with pytest.raises(RuntimeError):
            plane.restart()

    def test_interval_jitter_fans_out(self):
        plane = ControlPlane(make_kernel(), shards=2, interval=units.ms(50))
        fn = lambda: 0
        plane.interval_jitter = fn
        assert all(s.interval_jitter is fn for s in plane.servers)
        plane.interval_jitter = None
        assert all(s.interval_jitter is None for s in plane.servers)

    def test_published_targets_merge_shards(self):
        plane = ControlPlane(make_kernel(), shards=2, interval=units.ms(50))
        plane.shard_of("a"), plane.shard_of("b")
        plane.servers[0].board.post({"a": 3}, now=0)
        plane.servers[1].board.post({"b": 2}, now=0)
        assert plane.published_targets() == {"a": 3, "b": 2}

    def test_published_targets_prefer_the_current_shard(self):
        plane = ControlPlane(make_kernel(), shards=2, interval=units.ms(50))
        plane.shard_of("a")
        plane.servers[0].board.post({"a": 3}, now=0)
        # After a rebalance both shards may list "a"; the current
        # assignment's word wins.
        plane.assignment["a"] = 1
        plane.servers[1].board.post({"a": 5}, now=1)
        assert plane.published_targets()["a"] == 5


def sharded_scenario(shards=2, seed=0, scheduler="fifo", policy=None):
    """Two controlled apps oversubscribing 8 CPUs (chaos-campaign shape)."""
    from repro.faults.campaign import chaos_scenario

    scenario = chaos_scenario(scheduler, seed, shards=shards)
    if policy is not None:
        scenario = scenario.with_(policy=policy)
    return scenario


class TestIntegration:
    def test_sharded_run_completes_and_both_shards_update(self):
        trace = TraceLog(categories={"server.update"})
        result = run_scenario(sharded_scenario(shards=2), trace=trace)
        assert all(app.finished_at is not None for app in result.apps.values())
        # Both applications got targets (one per shard).
        assert result.server_updates >= 2
        published = set()
        for record in trace.records("server.update"):
            published.update(record.data["targets"])
        assert published == {"chaos-a", "chaos-b"}

    def test_the_first_scan_routes_every_controllable_tenant(self, monkeypatch):
        # Set-up routes the centralized tenants in spec order (c, e); the
        # decentralized one never registers, but the first scan finds it
        # in the census and routes it too, as the table scan does.
        planes = []

        class RecordingPlane(runner.ControlPlane):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                planes.append(self)

        monkeypatch.setattr(runner, "ControlPlane", RecordingPlane)
        run_scenario(
            Scenario(
                apps=[
                    AppSpec(uniform("c"), 2),
                    AppSpec(uniform("d"), 2, control="decentralized"),
                    AppSpec(uniform("e"), 2),
                ],
                control="centralized",
                shards=2,
                machine=small_machine(4),
                server_interval=units.ms(10),
                poll_interval=units.ms(10),
            )
        )
        (plane,) = planes
        assert list(plane.assignment.items()) == [("c", 0), ("e", 1), ("d", 0)]

    def test_sharded_run_is_deterministic(self):
        digests = []
        for _ in range(2):
            trace = TraceLog(categories={"kernel.dispatch"})
            run_scenario(sharded_scenario(shards=2), trace=trace)
            digests.append(dispatch_digest(trace))
        assert digests[0] == digests[1]

    def test_space_policy_requires_partition_scheduler(self):
        with pytest.raises(ValueError, match="partition"):
            run_scenario(sharded_scenario(shards=1, policy="space"))

    def test_packages_report_demand_on_registration_and_polls(self):
        # The threads package piggybacks its backlog on the registration
        # message and on every poll -- all free shared-memory writes, so
        # the demand channel costs the simulation nothing.
        from repro.apps.synthetic import UniformApp
        from repro.threads.package import ThreadsPackage, ThreadsPackageConfig

        kernel = make_kernel(n_processors=4)
        plane = ControlPlane(kernel, shards=1, interval=units.ms(10))
        plane.start()
        app = UniformApp("demo", n_tasks=40, task_cost=units.ms(1), seed=0)
        package = ThreadsPackage(
            kernel,
            app,
            4,
            config=ThreadsPackageConfig(
                control="centralized",
                board=plane.board_for("demo"),
                server_channel=plane.channel_for("demo"),
                poll_interval=units.ms(5),
            ),
        )
        package.start()
        kernel.run_until_quiescent()
        board = plane.servers[0].board
        assert "demo" in board.demand_snapshot()
        # The last report happened at a real poll, not just registration.
        assert board.demand_reported_at["demo"] > 0
        assert package.finished

    def test_demand_policy_restricts_concurrency_under_overload(self):
        # The acceptance experiment: two 12-worker apps whose phases hold
        # only 4 tasks.  Demand-aware allocation must burn strictly less
        # idle-poll waste than backlog-blind equipartition, by granting
        # fewer processors than the process-count cap.  ``weighted`` with
        # no table is the control: equal priorities are equipartition.
        cells = {
            cell.policy: cell
            for cell in run_policies(
                preset="quick",
                runs=Runs(jobs=1),
                policies=("equal", "weighted", "demand"),
            )
        }
        assert cells["demand"].idle_poll_pct < cells["equal"].idle_poll_pct
        assert cells["demand"].mean_target < cells["equal"].mean_target
        assert dataclasses.replace(cells["weighted"], policy="equal") == (
            cells["equal"]
        )

    def test_demand_policy_sees_backlog_in_scenario_runs(self):
        trace = TraceLog(categories={"server.update"})
        result = run_scenario(
            overload_scenario("demand", preset="quick"), trace=trace
        )
        # The demand cap binds: granted targets drop to the 4-task phase
        # width instead of the 8-per-app equipartition share.
        capped = [
            target
            for record in trace.records("server.update")
            for target in record.data["targets"].values()
        ]
        assert capped and min(capped) <= 4


class TestShardedChaos:
    def test_campaign_stays_clean_with_two_shards(self):
        # The full default injector catalog against a 2-shard plane: the
        # fault surface (crash/restart fan-out, per-shard board and
        # channel shims) must hold the same acceptance bar as the
        # single-server campaign.  One scheduler x one seed keeps the
        # cell count CI-sized; the campaign CLI sweeps the full matrix.
        report = run_campaign(
            schedulers=("fifo",),
            seeds=(0,),
            runs=Runs(sanitize="record"),
            shards=2,
        )
        assert report.total_violations == 0
        assert report.deadlocks == 0
        report.assert_clean()
