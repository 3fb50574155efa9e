"""Tests for the 1024-CPU/10k-app scale machinery.

Covers the pieces the scale tier leans on: the fast (journal-replay)
server scan against the reference full-table scan, the sanitizer's
oracles over the incremental structures, the sparse dirty-set control
board, the kernel's idle-cpu set and per-app process index, the
weight-table plumbing, and the timeline exporter's ``watchdog.*``
surfacing.
"""

import pytest

from repro.core.allocation import make_policy
from repro.core.policy import IncrementalWaterFiller
from repro.kernel import Kernel
from repro.kernel.ipc import ControlBoard
from repro.sanitize import SanitizerWarning
from repro.sanitize.reference import TableScanServer
from repro.sim import TraceLog, units
from repro.sim.engine import SimulationError
from repro.sim.export import dump_timeline, timeline_events
from repro.workloads import Scenario, run_scenario
from repro.workloads.scenario import AppSpec

from tests.conftest import make_kernel, updates_trace
from tests.test_core_server import cpu_bound


class TestFastScanEquivalence:
    """The production scan (journal replay + incremental filler) must
    reproduce the reference full-table scan's published targets, update
    times, and event counts exactly."""

    @staticmethod
    def _scenario(shards=1, width=2, standalone=0, n_tasks=6):
        from repro.apps.synthetic import UniformApp
        from repro.workloads.scenario import UncontrolledSpec

        apps = [
            AppSpec(
                factory=lambda i=i: UniformApp(
                    app_id=f"app{i}",
                    n_tasks=n_tasks,
                    task_cost=units.ms(30),
                    seed=i,
                ),
                n_processes=width + (i % 3),
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
            uncontrolled=[
                UncontrolledSpec(name=f"standalone{k}", duration=units.ms(300))
                for k in range(standalone)
            ],
        )

    @pytest.mark.parametrize("shards", [1, 3])
    def test_fast_and_legacy_scans_agree(self, shards, monkeypatch):
        self._assert_scans_agree(self._scenario, shards, monkeypatch)

    @pytest.mark.parametrize("shards", [1, 3])
    def test_scans_agree_on_an_oversubscribed_machine(self, shards, monkeypatch):
        # Wide tenants plus stand-alone load on 16 CPUs: the targets bind,
        # so capacity, uncontrolled load and per-app totals all reach the
        # published word.
        def scenario(shards):
            return self._scenario(shards, width=6, standalone=2, n_tasks=60)

        self._assert_scans_agree(scenario, shards, monkeypatch)

    @staticmethod
    def _assert_scans_agree(scenario, shards, monkeypatch):
        fast = run_scenario(scenario(shards), trace=updates_trace())
        # The plane builds its shard servers by this name.
        monkeypatch.setattr(
            "repro.core.plane.ProcessControlServer", TableScanServer
        )
        legacy = run_scenario(scenario(shards), trace=updates_trace())
        assert legacy.server_updates == fast.server_updates > 0
        assert fast.events_fired == legacy.events_fired
        fast_updates = [
            (r.time, r.data["targets"])
            for r in fast.trace.records("server.update")
        ]
        legacy_updates = [
            (r.time, r.data["targets"])
            for r in legacy.trace.records("server.update")
        ]
        assert len(fast_updates) == fast.server_updates
        assert fast_updates == legacy_updates

    def test_fast_scan_under_sanitizer_runs_both_oracles(self):
        # The sanitizer's shims run the incremental-vs-batch check on
        # every shard's scan and the census walk on every load summary;
        # a clean strict run is the assertion.
        result = run_scenario(self._scenario(shards=3), sanitize="strict")
        assert result.events_fired > 0
        assert result.sanitizer_violations == 0


def _after_first_spawn(monkeypatch, fault):
    """Apply *fault* to the kernel once, right after its first spawn (the
    control server's, before any dispatch pass or scan)."""
    spawn = Kernel.spawn
    armed = [True]

    def spawn_then_fault(self, *args, **kwargs):
        process = spawn(self, *args, **kwargs)
        if armed[0]:
            armed[0] = False
            fault(self)
        return process

    monkeypatch.setattr(Kernel, "spawn", spawn_then_fault)


def _drift_census(monkeypatch):
    def bump(kernel):
        kernel._alive_total += 1

    _after_first_spawn(monkeypatch, bump)


def _drift_idle_set(monkeypatch):
    def drop(kernel):
        kernel._idle_cpus.discard(max(kernel._idle_cpus))

    _after_first_spawn(monkeypatch, drop)


def _drift_scan(monkeypatch):
    """Perturb the first non-empty incremental allocation by one."""
    targets = IncrementalWaterFiller.targets
    armed = [True]

    def perturbed(self, capacity, uncontrolled):
        result = targets(self, capacity, uncontrolled)
        if result and armed[0]:
            armed[0] = False
            result[next(iter(result))] += 1
        return result

    monkeypatch.setattr(IncrementalWaterFiller, "targets", perturbed)


def _drift_filler_cap(monkeypatch):
    """Store one wrong cap in a shard's sorted-cap structure, so its caps
    disagree with the routed slice of the replayed census.  The first
    cap of 2 or more is the one: a tenant's first worker's cap of 1 is
    overwritten by the second's within the same replay."""
    set_cap = IncrementalWaterFiller.set_cap
    armed = [True]

    def wrong_once(self, app_id, cap):
        if armed[0] and cap >= 2:
            armed[0] = False
            cap += 1
        set_cap(self, app_id, cap)

    monkeypatch.setattr(IncrementalWaterFiller, "set_cap", wrong_once)


#: Sanitizer check name -> the injector of the drift it must catch.
DRIFTS = {
    "census-drift": _drift_census,
    "idle-set-drift": _drift_idle_set,
    "scan-divergence": _drift_scan,
}


def inject(monkeypatch, checks):
    for check in checks:
        DRIFTS[check](monkeypatch)


class TestIncrementalOracles:
    """The sanitizer's three oracles over the kernel's and the server's
    incremental structures, each fed one injected drift."""

    scenario = staticmethod(TestFastScanEquivalence._scenario)

    @pytest.mark.parametrize("check", sorted(DRIFTS))
    def test_strict_catches_the_drift_without_the_env_var(self, check, monkeypatch):
        inject(monkeypatch, [check])
        # The scan check fires inside the server's program, which the
        # kernel reports as a SimulationError naming the check.
        with pytest.raises(SimulationError, match=check):
            run_scenario(self.scenario(shards=3), sanitize="strict")

    @pytest.mark.parametrize("check", sorted(DRIFTS))
    def test_record_mode_records_the_drift(self, check, monkeypatch):
        inject(monkeypatch, [check])
        with pytest.warns(SanitizerWarning, match=check):
            result = run_scenario(self.scenario(shards=3), sanitize="record")
        counters = result.sanitizer_counters
        assert counters[f"violations.{check}"] >= 1
        others = set(DRIFTS) - {check}
        assert not any(counters.get(f"violations.{o}") for o in others)
        assert all(app.tasks_completed == 6 for app in result.apps.values())

    def test_strict_catches_a_wrong_filler_cap(self, monkeypatch):
        _drift_filler_cap(monkeypatch)
        with pytest.raises(SimulationError, match="scan-divergence"):
            run_scenario(self.scenario(shards=3), sanitize="strict")

    def test_record_mode_records_a_wrong_filler_cap(self, monkeypatch):
        _drift_filler_cap(monkeypatch)
        with pytest.warns(SanitizerWarning, match="sorted-cap structure diverged"):
            result = run_scenario(self.scenario(shards=3), sanitize="record")
        assert result.sanitizer_counters["violations.scan-divergence"] >= 1
        assert all(app.tasks_completed == 6 for app in result.apps.values())

    def test_record_mode_warns_once_per_violation(self, monkeypatch):
        # A record-mode run keeps going, but each violation is a warning
        # naming the check, the simulated time and the message, so a
        # dirty run never prints like a clean one.
        inject(monkeypatch, ["census-drift"])
        pattern = r"\[sanitize:census-drift\] t=\d+us: sparse census diverged"
        with pytest.warns(SanitizerWarning, match=pattern) as caught:
            result = run_scenario(self.scenario(shards=3), sanitize="record")
        warned = [w for w in caught if w.category is SanitizerWarning]
        assert len(warned) == result.sanitizer_violations >= 1


class TestSparseBoard:
    def test_post_stamps_only_changed_entries(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3}, now=10)
        assert board.posted_at("a") == board.posted_at("b") == 10
        # Re-posting an unchanged entry keeps its stamp.
        board.post({"a": 2, "b": 4}, now=20)
        assert board.updated_at == 20
        assert board.posted_at("a") == 10
        assert board.posted_at("b") == 20
        assert board.posted_at("missing") is None

    def test_post_delta_patches_in_place(self):
        board = ControlBoard()
        board.post({"a": 2, "b": 3, "c": 1}, now=10)
        board.post_delta({"b": 5}, removals=("c",), now=25)
        assert board.targets == {"a": 2, "b": 5}
        assert board.updated_at == 25
        assert board.posted_at("a") == 10
        assert board.posted_at("b") == 25
        assert board.posted_at("c") is None

    def test_post_delta_noop_change_stays_clean(self):
        board = ControlBoard()
        board.post({"a": 2}, now=10)
        board.post_delta({"a": 2}, removals=(), now=20)
        assert board.updated_at == 20  # the scan happened...
        assert board.posted_at("a") == 10  # ...but the entry kept its stamp
        assert board.targets == {"a": 2}

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
        result = run_scenario(scenario, trace=updates_trace())
        return result.trace.records("server.update")[0].data["targets"]

    @pytest.mark.parametrize("name", ["weighted", "demand"])
    def test_policy_weights_reach_the_control_plane(self, name):
        policy = make_policy(name, weights={"app0": 3.0})
        assert self._first_targets(policy) == {"app0": 12, "app1": 4}

    def test_weighted_by_name_has_no_table(self):
        assert self._first_targets(policy="weighted") == {"app0": 8, "app1": 8}


class TestTimelineExport:
    @staticmethod
    def _trace():
        trace = TraceLog()
        trace.emit(0, "server.update", targets={"a": 2})
        trace.emit(5, "kernel.dispatch", pid=3, cpu=0)  # bulk
        trace.emit(10, "watchdog.suspect", shard=0)
        trace.emit(12, "watchdog.failover", shard=0, to=1)
        trace.emit(20, "plane.rebalance", moves=1)
        return trace

    def test_watchdog_events_always_surface(self):
        rows = timeline_events(self._trace())
        cats = [row["cat"] for row in rows]
        assert "watchdog.suspect" in cats
        assert "watchdog.failover" in cats
        assert "kernel.dispatch" not in cats  # bulk series stays out
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
