"""Tests for the 1024-CPU/10k-app scale machinery.

Covers the pieces the scale tier leans on: the fast (journal-replay)
server scan against the legacy full-table scan, the sparse dirty-set
control board, the kernel's idle-cpu set and per-app process index, the
weight-table CLI plumbing, and the timeline exporter's ``watchdog.*``
surfacing.
"""

import os

import pytest

from repro.core.allocation import parse_weights
from repro.core.server import ProcessControlServer
from repro.kernel.ipc import ControlBoard
from repro.sim import TraceLog, units
from repro.sim.export import dump_timeline, timeline_events
from repro.workloads import Scenario, run_scenario
from repro.workloads.scenario import AppSpec

from tests.conftest import make_kernel
from tests.test_core_server import cpu_bound


class TestFastScanEquivalence:
    """fast_scan=True (journal replay + incremental filler) must reproduce
    the legacy full-table scan's published targets, update times, and
    event counts exactly."""

    @staticmethod
    def _scenario(shards=1):
        from repro.apps.synthetic import UniformApp

        apps = [
            AppSpec(
                factory=lambda i=i: UniformApp(
                    app_id=f"app{i}",
                    n_tasks=6,
                    task_cost=units.ms(30),
                    seed=i,
                ),
                n_processes=2 + (i % 3),
                arrival=i * units.ms(40),
            )
            for i in range(6)
        ]
        return Scenario(
            apps=apps,
            control="centralized",
            shards=shards,
            server_interval=units.ms(60),
            poll_interval=units.ms(60),
        )

    @pytest.mark.parametrize("shards", [1, 3])
    def test_fast_and_legacy_scans_agree(self, shards, monkeypatch):
        fast = run_scenario(self._scenario(shards))
        monkeypatch.setattr(ProcessControlServer, "fast_scan", False, raising=False)
        legacy = run_scenario(self._scenario(shards))
        assert fast.events_fired == legacy.events_fired
        fast_updates = [
            (r.time, r.data["targets"])
            for r in fast.trace.records("server.update")
        ]
        legacy_updates = [
            (r.time, r.data["targets"])
            for r in legacy.trace.records("server.update")
        ]
        assert fast_updates == legacy_updates

    def test_fast_scan_is_the_default(self):
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(100))
        assert server.fast_scan is True

    def test_fast_scan_under_sanitizer_runs_both_oracles(self, monkeypatch):
        # REPRO_SANITIZE arms the incremental-vs-batch check inside the
        # server and the census walk inside the kernel; a clean run is
        # the assertion.
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = run_scenario(self._scenario(shards=3))
        assert result.events_fired > 0

    @pytest.mark.parametrize(
        "value, armed",
        [("0", False), ("off", False), ("false", False), ("1", True), ("record", True)],
    )
    def test_oracles_follow_the_parsed_sanitize_knob(self, monkeypatch, value, armed):
        # The kernel and the server read the knob the way run_scenario
        # does: "0", "off" and "false" mean off.
        monkeypatch.setenv("REPRO_SANITIZE", value)
        kernel = make_kernel(n_processors=4)
        server = ProcessControlServer(kernel, interval=units.ms(100))
        assert (kernel._check_census, server._check_scans) == (armed, armed)


class TestSparseBoard:
    def test_post_tracks_per_app_dirty_versions(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3}, now=10)
        assert board.read_app("a") == (2, 1)
        assert board.read_app("b") == (3, 1)
        # Re-posting an unchanged entry does not dirty it.
        board.post({"a": 2, "b": 4}, now=20)
        assert board.read_app("a") == (2, 1)
        assert board.read_app("b") == (4, 2)
        assert board.read_app("missing") == (None, 0)

    def test_post_delta_patches_in_place(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3, "c": 1}, now=10)
        board.post_delta({"b": 5}, removals=("c",), now=25)
        assert board.targets == {"a": 2, "b": 5}
        assert board.version == 2
        assert board.updated_at == 25
        assert board.read_app("a") == (2, 1)
        assert board.read_app("b") == (5, 2)
        assert board.read_app("c") == (None, 0)

    def test_post_delta_noop_change_stays_clean(self):
        board = ControlBoard()
        board.post({"a": 2}, now=10)
        board.post_delta({"a": 2}, removals=(), now=20)
        assert board.read_app("a") == (2, 1)
        assert board.version == 2  # the scan happened...
        assert board.targets == {"a": 2}  # ...but nothing moved

    def test_post_delta_rejects_negative_targets(self):
        board = ControlBoard()
        with pytest.raises(ValueError):
            board.post_delta({"a": -1}, removals=(), now=0)

    def test_post_delta_clears_crash_stamp(self):
        board = ControlBoard()
        board.post({"a": 1}, now=5)
        board.mark_crashed(9)
        board.post_delta({"a": 2}, removals=(), now=12)
        assert board.crashed_at is None


class TestKernelSparseStructures:
    def test_processes_of_app_matches_table_scan(self):
        kernel = make_kernel(n_processors=4)
        for i in range(3):
            kernel.spawn(
                cpu_bound(units.ms(50)),
                name=f"w{i}",
                app_id="app" if i < 2 else "other",
                controllable=True,
            )
        kernel.run_until_quiescent()
        for app_id in ("app", "other", "ghost"):
            indexed = kernel.processes_of_app(app_id)
            scanned = [
                p for p in kernel.processes.values() if p.app_id == app_id
            ]
            assert indexed == scanned

    def test_idle_cpu_set_tracks_processors(self):
        kernel = make_kernel(n_processors=4)
        assert kernel._idle_cpus == {0, 1, 2, 3}
        kernel.spawn(cpu_bound(units.ms(30)), name="w")
        kernel.run_until_quiescent()
        assert kernel._idle_cpus == {0, 1, 2, 3}

    def test_idle_cpu_set_respects_hotplug(self):
        kernel = make_kernel(n_processors=4)
        assert kernel.cpu_offline(2)
        assert kernel._idle_cpus == {0, 1, 3}
        assert kernel.cpu_online(2)
        assert kernel._idle_cpus == {0, 1, 2, 3}


class TestWeightsPlumbing:
    def test_parse_weights(self):
        assert parse_weights("a=2,b=0.5") == {"a": 2.0, "b": 0.5}
        assert parse_weights(" a = 2 , ") == {"a": 2.0}

    @pytest.mark.parametrize(
        "spec", ["", "a", "a=", "a=x", "a=0", "a=-1", "a=1,a=2"]
    )
    def test_parse_weights_rejects_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_weights(spec)

    @staticmethod
    def _first_targets(policy=None):
        """The first published targets of two 12-process apps on 16 CPUs
        (equal shares: 8/8; ``app0=3``: 12/4)."""
        from repro.apps.synthetic import UniformApp

        scenario = Scenario(
            apps=[
                AppSpec(
                    factory=lambda i=i: UniformApp(
                        app_id=f"app{i}", n_tasks=12, task_cost=units.ms(20)
                    ),
                    n_processes=12,
                )
                for i in range(2)
            ],
            control="centralized",
            server_interval=units.ms(50),
            poll_interval=units.ms(50),
            policy=policy,
        )
        result = run_scenario(scenario)
        return result.trace.records("server.update")[0].data["targets"]

    def test_env_weights_reach_the_control_plane(self, monkeypatch):
        # A table with no policy name means "weighted".
        monkeypatch.setenv("REPRO_WEIGHTS", "app0=3")
        assert self._first_targets() == {"app0": 12, "app1": 4}

    @pytest.mark.parametrize("name", ["weighted", "demand"])
    def test_env_policy_takes_the_env_weights(self, monkeypatch, name):
        monkeypatch.setenv("REPRO_POLICY", name)
        monkeypatch.setenv("REPRO_WEIGHTS", "app0=3")
        assert self._first_targets() == {"app0": 12, "app1": 4}

    def test_pinned_policy_ignores_the_env_weights(self, monkeypatch):
        monkeypatch.setenv("REPRO_WEIGHTS", "app0=3")
        assert self._first_targets(policy="weighted") == {"app0": 8, "app1": 8}

    def test_env_weights_need_a_policy_that_takes_them(self, monkeypatch):
        monkeypatch.setenv("REPRO_WEIGHTS", "app0=3")
        monkeypatch.setenv("REPRO_POLICY", "equal")
        with pytest.raises(ValueError, match="unknown keyword 'weights'"):
            self._first_targets()
        monkeypatch.setenv("REPRO_POLICY", "space")
        with pytest.raises(ValueError, match="space.*REPRO_WEIGHTS"):
            self._first_targets()


class TestTimelineExport:
    @staticmethod
    def _trace():
        trace = TraceLog()
        trace.emit(0, "server.update", targets={"a": 2})
        trace.emit(5, "kernel.runnable", total=3, per_app={"a": 3})  # bulk
        trace.emit(10, "watchdog.suspect", shard=0)
        trace.emit(12, "watchdog.failover", shard=0, to=1)
        trace.emit(20, "plane.rebalance", moves=1)
        return trace

    def test_watchdog_events_always_surface(self):
        rows = timeline_events(self._trace())
        cats = [row["cat"] for row in rows]
        assert "watchdog.suspect" in cats
        assert "watchdog.failover" in cats
        assert "kernel.runnable" not in cats  # bulk series stays out
        lanes = {row["cat"]: row["lane"] for row in rows}
        assert lanes["watchdog.failover"] == "watchdog"
        assert lanes["plane.rebalance"] == "plane"
        assert [row["t"] for row in rows] == sorted(row["t"] for row in rows)

    def test_watchdog_surfaces_even_with_custom_categories(self):
        rows = timeline_events(self._trace(), categories={"server.update"})
        cats = {row["cat"] for row in rows}
        assert cats == {"server.update", "watchdog.suspect", "watchdog.failover"}

    def test_dump_timeline_round_trip(self, tmp_path):
        import json

        path = tmp_path / "timeline.jsonl"
        count = dump_timeline(self._trace(), path)
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
            if line
        ]
        assert len(lines) == count == 4
        assert lines[1]["lane"] == "watchdog"
