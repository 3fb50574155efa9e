"""Tests for the self-healing control plane (``repro.resilience``).

Units cover the heartbeat word, the crash epoch's TTL anchoring, the
watchdog timing derivations, policy hot-swap, and the demand policy's
EWMA/report-TTL knobs; integration runs drive the full escalation ladder
(restart -> failover -> degraded mode) through ``run_scenario`` with
shard-targeted crash faults, plus the ``supervise`` plumbing, the sharded chaos
campaign, and a pinned golden recovery report.
"""

import json
from pathlib import Path

import pytest

from repro.apps.synthetic import UniformApp
from repro.core.allocation import AllocationRequest, make_policy
from repro.core.plane import ControlPlane
from repro.experiments.parallel import Runs
from repro.faults import FaultPlan, parse_spec
from repro.faults.campaign import chaos_scenario, run_campaign, shard_injectors
from repro.kernel.ipc import ControlBoard
from repro.machine.config import MachineConfig
from repro.resilience import Watchdog, WatchdogConfig
from repro.scenarios.golden import update_requested
from repro.sim import TraceLog, units
from repro.threads.control import ControlState
from repro.workloads import AppSpec, Scenario, run_scenario

from tests.conftest import make_kernel

GOLDEN_DIR = Path(__file__).parent / "golden"


def mini_scenario(seed: int = 0, shards: int = 1, **overrides) -> Scenario:
    """A ~50ms supervised-friendly workload: 2 apps x 3 workers on 4 CPUs.

    The 5ms quantum keeps worst-case dispatch delay well inside the
    watchdog's heartbeat deadline, so every suspect in these tests is a
    real failure, never scheduling noise.
    """

    def app(app_id: str, app_seed: int):
        return lambda: UniformApp(
            app_id=app_id,
            n_tasks=60,
            task_cost=units.ms(1),
            jitter=0.2,
            seed=app_seed,
        )

    scenario = Scenario(
        apps=[
            AppSpec(app("mini-a", seed), 3),
            AppSpec(app("mini-b", seed + 1), 3),
        ],
        control="centralized",
        machine=MachineConfig(n_processors=4, quantum=units.ms(5)),
        scheduler="decay",
        poll_interval=units.ms(5),
        server_interval=units.ms(5),
        seed=seed,
        max_time=units.seconds(2),
        shards=shards,
        supervise=True,
    )
    return scenario.with_(**overrides) if overrides else scenario


def flap_spec(shard=None, times=(8, 14, 20, 26, 32)) -> str:
    """Re-kill one shard (or the whole plane) every few milliseconds."""
    prefix = f"shard={shard}," if shard is not None else ""
    return ";".join(f"server-crash:{prefix}at={t}ms" for t in times)


class TestHeartbeatWord:
    def test_beat_stamps_time_and_advances_seq(self):
        board = ControlBoard()
        assert board.heartbeat_at is None
        assert board.heartbeat_seq == 0
        board.beat(100)
        board.beat(200)
        assert board.heartbeat_at == 200
        assert board.heartbeat_seq == 2

    def test_crash_epoch_set_and_cleared_by_post(self):
        board = ControlBoard()
        board.mark_crashed(500)
        assert board.crashed_at == 500
        # A post proves a live writer: the death notice is stale.
        board.post({"a": 2}, now=600)
        assert board.crashed_at is None


class TestCrashEpochAnchor:
    TTL = 1000

    def _control(self) -> ControlState:
        control = ControlState(4)
        control.note_fresh(2, now=0)
        return control

    def test_ttl_ages_from_crash_not_from_last_read(self):
        control = self._control()
        # The crash happened at 100; the first failed poll lands at 900.
        # Without the epoch the anchor would be this first failure and
        # the target would survive until 1900; with it, the countdown
        # started at the crash and expires at 1100.
        assert not control.note_failure(
            900, 10, 1000, self.TTL, crash_epoch=100
        )
        assert control.target == 2
        assert control.note_failure(
            1100, 10, 1000, self.TTL, crash_epoch=100
        )
        assert control.target is None
        assert control.target_expiries == 1

    def test_earlier_failure_streak_beats_the_epoch(self):
        # A wedged server failed us at 50, then died at 800: the death
        # notice must not reset the countdown that began at 50.
        control = self._control()
        assert not control.note_failure(50, 10, 1000, self.TTL)
        assert control.note_failure(
            1060, 10, 1000, self.TTL, crash_epoch=800
        )

    def test_no_epoch_keeps_the_legacy_anchor(self):
        control = self._control()
        control.last_fresh = 500
        assert not control.note_failure(1400, 10, 1000, self.TTL)
        assert control.note_failure(1501, 10, 1000, self.TTL)


class TestWatchdogConfig:
    def test_derivations_from_interval(self):
        config = WatchdogConfig().resolve(units.ms(10))
        assert config.check_period == units.ms(5)
        assert config.deadline == units.ms(30)
        assert config.restart_backoff == units.ms(5)
        assert config.reset_after == units.ms(120)

    def test_slack_widens_only_the_derived_deadline(self):
        derived = WatchdogConfig().resolve(units.ms(10), slack=units.ms(200))
        assert derived.deadline == units.ms(230)
        explicit = WatchdogConfig(deadline=units.ms(25)).resolve(
            units.ms(10), slack=units.ms(200)
        )
        assert explicit.deadline == units.ms(25)

    def test_watchdog_reads_dispatch_slack_from_the_machine(self):
        kernel = make_kernel(quantum=units.ms(100))
        plane = ControlPlane(kernel, interval=units.ms(10))
        watchdog = Watchdog(kernel, plane)
        assert watchdog.config.deadline == units.ms(30) + 2 * units.ms(100)

    def test_invalid_timings_rejected(self):
        with pytest.raises(ValueError):
            WatchdogConfig(check_period=0).resolve(units.ms(10))
        with pytest.raises(ValueError):
            WatchdogConfig(max_restarts=-1).resolve(units.ms(10))

    def test_double_start_rejected(self):
        kernel = make_kernel()
        plane = ControlPlane(kernel, interval=units.ms(10))
        watchdog = Watchdog(kernel, plane)
        watchdog.start()
        with pytest.raises(RuntimeError):
            watchdog.start()


class TestPolicyHotSwap:
    def test_set_policy_swaps_stamps_and_traces(self):
        trace = TraceLog(categories={"pc.policy_swap"})
        kernel = make_kernel(trace=trace)
        (server,) = ControlPlane(kernel, interval=units.ms(50)).servers
        old = server.policy
        previous = server.set_policy(make_policy("demand"))
        assert previous is old
        assert server.policy.name == "demand"
        assert server.policy_swaps == 1
        assert server.policy_swapped_at == kernel.now
        records = trace.records("pc.policy_swap")
        assert len(records) == 1
        assert records[0].data["old"] == "equal"
        assert records[0].data["new"] == "demand"

    def test_swap_back_restores_the_original_instance(self):
        kernel = make_kernel()
        (server,) = ControlPlane(kernel, interval=units.ms(50)).servers
        original = server.policy
        saved = server.set_policy(make_policy("equal"))
        server.set_policy(saved)
        assert server.policy is original
        assert server.policy_swaps == 2


class TestDemandPolicyKnobs:
    def _request(self, demands, reported_at=None, now=0):
        return AllocationRequest(
            n_processors=8,
            uncontrolled_runnable=0,
            app_totals={"a": 6, "b": 6},
            demands=demands,
            demand_reported_at=reported_at or {},
            now=now,
        )

    def test_defaults_match_the_unsmoothed_policy(self):
        plain = make_policy("demand")
        knobbed = make_policy("demand", smoothing=1.0)
        request = self._request({"a": 2, "b": 6})
        assert plain.allocate(request) == knobbed.allocate(request)

    def test_ewma_damps_a_backlog_collapse(self):
        policy = make_policy("demand", smoothing=0.5)
        request1 = self._request({"a": 6, "b": 6})
        policy.allocate(request1)
        # a's backlog collapses 6 -> 0; the EWMA only halves it, so a
        # keeps ceil(3.0) = 3 grantable slots this round instead of 1.
        request2 = self._request({"a": 0, "b": 6})
        targets = policy.allocate(request2)
        assert targets["a"] == 3

    def test_report_ttl_reverts_stale_telemetry_to_full_cap(self):
        policy = make_policy("demand", smoothing=0.5, report_ttl=units.ms(10))
        fresh = self._request(
            {"a": 1, "b": 6}, reported_at={"a": 0, "b": 0}, now=0
        )
        assert policy.allocate(fresh)["a"] == 1
        # 20ms later nothing has re-reported: a's cap is back to its
        # process total, and its EWMA state is gone (no half-life decay
        # from a figure nobody stands behind).
        stale = self._request(
            {"a": 1, "b": 6},
            reported_at={"a": 0, "b": 0},
            now=units.ms(20),
        )
        assert policy.allocate(stale)["a"] == 4
        # A fresh report of 3 is taken at face value: a remembered 1
        # would smooth it down to 2.
        refreshed = self._request(
            {"a": 3, "b": 6},
            reported_at={"a": units.ms(20), "b": units.ms(20)},
            now=units.ms(20),
        )
        assert policy.allocate(refreshed)["a"] == 3

    def test_tracker_prunes_vanished_apps(self):
        # Every policy with a demand cap, looped rather than parametrized
        # so the test keeps one id.
        for name in ("demand", "slo", "compliance"):
            policy = make_policy(name, smoothing=0.5)
            policy.allocate(self._request({"a": 6, "b": 6}))
            request = AllocationRequest(
                n_processors=8,
                uncontrolled_runnable=0,
                app_totals={"b": 6},
                demands={"b": 6},
            )
            policy.allocate(request)
            # "a" returns reporting 2: a pruned tracker caps it at 2, a
            # stale one would smooth in its predecessor's 6 and cap at 4.
            returned = policy.allocate(self._request({"a": 2, "b": 6}))
            assert returned["a"] == 2, name

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            make_policy("demand", smoothing=0.0)
        with pytest.raises(ValueError):
            make_policy("demand", smoothing=1.5)
        with pytest.raises(ValueError):
            make_policy("demand", report_ttl=0)


class TestShardFaultGrammar:
    def test_shard_field_parses_and_round_trips(self):
        spec = "server-crash:at=8ms,down=140ms,shard=1"
        (injector,) = parse_spec(spec)
        assert injector.shard == 1
        plan = FaultPlan.from_spec(spec, seed=0)
        assert FaultPlan.from_spec(plan.describe(), seed=0).describe() == (
            plan.describe()
        )
        assert "shard=1" in plan.describe()

    def test_shardless_spec_round_trips_without_the_field(self):
        plan = FaultPlan.from_spec("server-crash:at=8ms", seed=0)
        assert "shard" not in plan.describe()

    def test_shard_injectors_one_plan_per_shard(self):
        plans = shard_injectors(2)
        assert set(plans) == {"shard0-crash", "shard1-crash"}
        assert "shard=0" in plans["shard0-crash"]
        assert "shard=1" in plans["shard1-crash"]
        with pytest.raises(ValueError):
            shard_injectors(0)


class TestShardCrashIsolation:
    def test_other_regions_apps_keep_their_targets(self):
        # Unsupervised: shard 1 dies and stays dead.  mini-a (routed to
        # shard 0 by round-robin) must ride through with zero failed
        # polls; mini-b is re-routed to the survivor by the plane's
        # crash-path rebalance and still completes.
        result = run_scenario(
            mini_scenario(
                shards=2, supervise=False, faults="server-crash:shard=1,at=12ms"
            ),
            sanitize="record",
        )
        assert result.sanitizer_violations == 0
        assert result.apps["mini-a"].failed_polls == 0
        assert result.apps["mini-a"].target_expiries == 0
        for app in result.apps.values():
            assert app.finished_at is not None
        (crash,) = [
            details
            for _, kind, details in result.fault_events
            if kind == "server_crash"
        ]
        assert crash == {"applied": True, "shard": 1}


class TestWatchdogEscalation:
    def test_restart_recovers_a_crashed_shard(self):
        result = run_scenario(
            mini_scenario(shards=2, faults="server-crash:shard=1,at=12ms"),
            sanitize="record",
        )
        counters = result.watchdog_counters
        assert counters["suspects"] == 1
        assert counters["restarts"] == 1
        assert counters["recoveries"] == 1
        assert counters["failovers"] == 0
        assert counters["degraded"] == 0
        assert result.sanitizer_violations == 0
        # The restart beat the stale-target TTL: nobody ever degraded.
        assert all(
            app.target_expiries == 0 for app in result.apps.values()
        )

    def test_flapping_shard_drains_the_budget_into_failover(self):
        result = run_scenario(
            mini_scenario(shards=2, faults=flap_spec(shard=1)),
            sanitize="record",
        )
        counters = result.watchdog_counters
        assert counters["restarts"] == 3  # the full budget
        assert counters["failovers"] == 1
        assert counters["degraded"] == 0  # shard 0 survives
        assert result.sanitizer_violations == 0
        for app in result.apps.values():
            assert app.finished_at is not None
        kinds = [kind for _, kind, _ in result.watchdog_events]
        assert kinds.index("failover") > kinds.index("restart")

    def test_total_flap_ends_in_degraded_mode(self):
        result = run_scenario(
            mini_scenario(shards=1, faults=flap_spec()),
            sanitize="record",
        )
        counters = result.watchdog_counters
        assert counters["failovers"] == 1
        assert counters["degraded"] == 1
        assert result.sanitizer_violations == 0
        # Degraded is terminal: the last watchdog event, after which the
        # TTL released every app to full parallelism and the run finished.
        assert result.watchdog_events[-1][1] == "degraded"
        for app in result.apps.values():
            assert app.finished_at is not None

    def test_cold_telemetry_swaps_demand_policy_out_and_back(self):
        # policy_cold_ttl arms the telemetry guard: before any backlog
        # report exists the demand policy is hot-swapped to equipartition
        # (allocation must not follow telemetry nobody produces), and
        # swapped back once the applications start reporting.  The
        # sanitizer's policy-transition window keeps the swap clean.
        scenario = mini_scenario(shards=1).with_(
            policy="demand",
            watchdog=WatchdogConfig(policy_cold_ttl=units.ms(12)),
        )
        result = run_scenario(scenario, sanitize="record")
        counters = result.watchdog_counters
        assert counters["policy_swaps"] == 1
        assert counters["policy_restores"] == 1
        assert result.sanitizer_violations == 0
        swaps = [
            details
            for _, kind, details in result.watchdog_events
            if kind == "policy_swap"
        ]
        assert swaps[0]["reason"] == "telemetry-cold"
        assert swaps[0]["newest_report"] is None
        assert swaps[1]["reason"] == "telemetry-warm"

    def test_supervised_healthy_run_never_fires(self):
        result = run_scenario(mini_scenario(shards=2), sanitize="record")
        counters = result.watchdog_counters
        assert counters["ticks"] > 0
        assert counters["suspects"] == 0
        assert counters["restarts"] == 0


class TestPerShardConfig:
    def _plane_watchdog(self, config):
        kernel = make_kernel(n_processors=4, quantum=units.ms(5))
        from repro.core.plane import ControlPlane

        plane = ControlPlane(kernel, shards=2, interval=units.ms(10))
        return Watchdog(kernel, plane, config=config)

    def test_mapping_resolves_each_shard_with_defaults_for_the_rest(self):
        watchdog = self._plane_watchdog(
            {1: WatchdogConfig(deadline=units.ms(15), max_restarts=0)}
        )
        assert watchdog.config_for(0).deadline == units.ms(30) + 2 * units.ms(5)
        assert watchdog.config_for(0).max_restarts == 3
        assert watchdog.config_for(1).deadline == units.ms(15)
        assert watchdog.config_for(1).max_restarts == 0
        # Back-compat alias: the first shard's resolved config.
        assert watchdog.config is watchdog.config_for(0)

    def test_tick_runs_at_the_fastest_per_shard_cadence(self):
        watchdog = self._plane_watchdog(
            {
                0: WatchdogConfig(check_period=units.ms(2)),
                1: WatchdogConfig(check_period=units.ms(8)),
            }
        )
        assert watchdog.check_period == units.ms(2)
        assert watchdog.config_for(1).check_period == units.ms(8)

    def test_single_config_still_covers_every_shard(self):
        watchdog = self._plane_watchdog(WatchdogConfig(max_restarts=1))
        assert all(c.max_restarts == 1 for c in watchdog.configs)
        assert watchdog.check_period == watchdog.config.check_period

    def test_unknown_shard_index_rejected(self):
        with pytest.raises(ValueError, match="unknown shard"):
            self._plane_watchdog({7: WatchdogConfig()})

    def test_zero_budget_shard_fails_over_while_the_default_restarts(self):
        # Shard 1 carries max_restarts=0: its first crash goes straight
        # to failover.  Shard 0 keeps the default budget and recovers
        # from its own crash via restart.  One watchdog, two policies.
        result = run_scenario(
            mini_scenario(
                shards=2,
                watchdog={1: WatchdogConfig(max_restarts=0)},
                faults=(
                    "server-crash:shard=0,at=12ms;server-crash:shard=1,at=12ms"
                ),
            ),
            sanitize="record",
        )
        counters = result.watchdog_counters
        assert counters["failovers"] == 1
        assert counters["restarts"] == 1
        assert counters["degraded"] == 0
        assert result.sanitizer_violations == 0
        failovers = [
            details
            for _, kind, details in result.watchdog_events
            if kind == "failover"
        ]
        assert [f["shard"] for f in failovers] == [1]
        restarts = [
            details
            for _, kind, details in result.watchdog_events
            if kind == "restart"
        ]
        assert [r["shard"] for r in restarts] == [0]
        for app in result.apps.values():
            assert app.finished_at is not None

    def test_telemetry_guard_applies_only_where_configured(self):
        # Only shard 0 arms policy_cold_ttl: the demand policy on shard 1
        # must never be swapped, however cold its telemetry runs.
        scenario = mini_scenario(shards=2).with_(
            policy="demand",
            watchdog={0: WatchdogConfig(policy_cold_ttl=units.ms(12))},
        )
        result = run_scenario(scenario, sanitize="record")
        swaps = [
            details
            for _, kind, details in result.watchdog_events
            if kind == "policy_swap"
        ]
        assert swaps, "the armed shard should have swapped at least once"
        assert {s["shard"] for s in swaps} == {0}


class TestBareServerSupervision:
    def test_watchdog_restarts_and_writes_off_a_bare_server(self):
        # A one-shard plane: the watchdog supervises its lone server.
        # Restart still works; exhausting the budget "fails over" to
        # nothing (there is no survivor to absorb the region) and
        # degrades immediately.
        from repro.kernel import syscalls as sc

        kernel = make_kernel(n_processors=2, quantum=units.ms(5))
        plane = ControlPlane(kernel, interval=units.ms(5))
        (server,) = plane.servers
        server.start()
        watchdog = Watchdog(
            kernel, plane, config=WatchdogConfig(max_restarts=1)
        )
        watchdog.start()

        def worker():
            remaining = units.ms(120)
            while remaining > 0:
                remaining -= units.ms(1)
                yield sc.Compute(units.ms(1))

        kernel.spawn(worker(), name="w", app_id="app", controllable=True)
        for at in (units.ms(10), units.ms(20)):
            kernel.engine.schedule_at(
                at, lambda: server.pid is not None and server.crash(),
                "test-crash",
            )
        kernel.run_until_quiescent(max_time=units.ms(200))
        assert watchdog.counters["restarts"] == 1
        assert watchdog.counters["failovers"] == 1
        assert watchdog.counters["degraded"] == 1
        assert watchdog.degraded


class TestSupervisePlumbing:
    def test_supervise_arms_the_watchdog(self):
        scenario = mini_scenario()
        assert scenario.supervise is True
        assert run_scenario(scenario).watchdog_counters is not None

    def test_explicit_false_pins_the_watchdog_off(self):
        # The unsupervised arm of the recovery sweep: a supervised
        # scenario turned off through the ablation helper.
        result = run_scenario(mini_scenario(supervise=False))
        assert result.watchdog_counters is None

    def test_default_is_unsupervised(self):
        scenario = Scenario(apps=mini_scenario().apps, control="centralized")
        assert scenario.supervise is False
        assert run_scenario(scenario).watchdog_counters is None


class TestShardedChaosCampaign:
    def test_shard_targeted_campaign_is_clean(self):
        # The acceptance sweep: shard-targeted crash plans across 2
        # shards x 3 seeds -- zero violations, zero deadlocks.
        report = run_campaign(
            injectors=shard_injectors(2),
            schedulers=("fifo",),
            seeds=(0, 1, 2),
            shards=2,
        )
        report.assert_clean()
        crash_cells = [
            cell for cell in report.cells if cell.injector != "baseline"
        ]
        assert len(crash_cells) == 6
        assert all(cell.fault_events > 0 for cell in crash_cells)


class TestGoldenRecoveryReport:
    """Pinned recovery report: the sweep's text output is bit-stable.

    To regenerate after an intentional behaviour change::

        REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
            tests/test_resilience.py -k golden

    and commit the diff (a golden update is a behaviour change, not a
    formality).
    """

    def test_recovery_report_matches_golden(self):
        from repro.experiments.recovery import RECOVERY_PATTERNS, run_recovery

        report = run_recovery(
            "quick",
            seeds=(0,),
            patterns={"shard-dead": RECOVERY_PATTERNS["shard-dead"]},
            runs=Runs(sanitize="record"),
        )
        report.assert_clean()
        text = report.format_report() + "\n"
        golden_path = GOLDEN_DIR / "recovery_shard_dead.txt"
        if update_requested():
            GOLDEN_DIR.mkdir(exist_ok=True)
            golden_path.write_text(text)
        assert golden_path.exists(), (
            f"missing golden file {golden_path}; generate with "
            "REPRO_UPDATE_GOLDEN=1"
        )
        assert text == golden_path.read_text(), (
            "recovery report diverged from the committed golden copy; if "
            "intentional, regenerate with REPRO_UPDATE_GOLDEN=1 and commit"
        )
