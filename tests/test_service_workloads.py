"""Open-arrival service workloads: streams, DAGs, the SLO policy, and
the tail-latency acceptance run.

The experiment acceptance pin lives in its own golden store
(``tests/golden/service_experiment.json``); regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_service_workloads.py -q
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import AllocationRequest, make_policy
from repro.experiments.service import service_mix_scenario
from repro.scenarios.golden import GoldenStore
from repro.scenarios.runner import DEFAULT_GOLDEN_PATH
from repro.sim import TraceLog, dispatch_digest, units
from repro.workloads import run_scenario
from repro.workloads.scenario import AppSpec, Scenario
from repro.workloads.service import (
    TIER_BATCH,
    TIER_INTERACTIVE,
    bursty_arrivals,
    offered_load,
    poisson_arrivals,
    trace_arrivals,
)
from repro.apps.service import ServiceApp
from repro.machine import MachineConfig

ms = units.ms

EXPERIMENT_GOLDEN_PATH = DEFAULT_GOLDEN_PATH.parent / "service_experiment.json"
EXPERIMENT_REGEN_HINT = (
    "PYTHONPATH=src python -m pytest tests/test_service_workloads.py -q"
)


# -- arrival streams -----------------------------------------------------------


class TestArrivalStreams:
    @given(
        rate=st.floats(min_value=1.0, max_value=5000.0),
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_poisson_replay_is_bit_identical(self, rate, n, seed):
        first = poisson_arrivals(rate, n, seed=seed)
        again = poisson_arrivals(rate, n, seed=seed)
        assert first == again
        assert len(first) == n
        assert all(b > a for a, b in zip(first, first[1:]))
        assert first[0] >= 1

    @given(
        rate=st.floats(min_value=1.0, max_value=5000.0),
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=2**31),
        burst=st.floats(min_value=1.5, max_value=16.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bursty_replay_is_bit_identical(self, rate, n, seed, burst):
        first = bursty_arrivals(rate, n, seed=seed, burst_factor=burst)
        again = bursty_arrivals(rate, n, seed=seed, burst_factor=burst)
        assert first == again
        assert len(first) == n
        assert all(b > a for a, b in zip(first, first[1:]))

    def test_different_seeds_differ(self):
        assert poisson_arrivals(100.0, 50, seed=1) != poisson_arrivals(
            100.0, 50, seed=2
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="rate_per_s"):
            poisson_arrivals(0.0, 5)
        with pytest.raises(ValueError, match="n_requests"):
            poisson_arrivals(10.0, 0)
        with pytest.raises(ValueError, match="burst_factor"):
            bursty_arrivals(10.0, 5, burst_factor=1.0)
        with pytest.raises(ValueError, match="duty_cycle"):
            bursty_arrivals(10.0, 5, duty_cycle=1.0)

    def test_trace_arrivals_normalizes(self):
        # Sorted, positive, strictly increasing (aliases pushed apart).
        assert trace_arrivals([30, 10, 10, 20]) == (10, 11, 20, 30)
        with pytest.raises(ValueError, match="empty"):
            trace_arrivals([])
        with pytest.raises(ValueError, match="negative"):
            trace_arrivals([-5, 10])

    def test_offered_load(self):
        # 4 requests x 1000 us over a 2000 us span on 2 CPUs -> load 1.0.
        assert offered_load((500, 1000, 1500, 2000), 1000, 2) == 1.0
        assert offered_load((), 1000, 2) == 0.0
        with pytest.raises(ValueError, match="n_processors"):
            offered_load((10,), 1000, 0)


# -- the service application ---------------------------------------------------


def _service_only_scenario(
    rate_per_s: float, n_requests: int = 40, seed: int = 3
) -> Scenario:
    def factory() -> ServiceApp:
        return ServiceApp(
            app_id="svc",
            rate_per_s=rate_per_s,
            n_requests=n_requests,
            fanout=2,
            stage_cost=ms(2),
            slo_us=ms(10),
            seed=seed,
        )

    return Scenario(
        apps=[AppSpec(factory, n_processes=4)],
        control="centralized",
        scheduler="fifo",
        machine=MachineConfig(n_processors=2),
        server_interval=ms(10),
        poll_interval=ms(10),
        idle_spin=False,
        seed=seed,
        max_time=units.seconds(60),
    )


class TestServiceApp:
    def test_validation(self):
        with pytest.raises(ValueError, match="fanout"):
            ServiceApp(fanout=0)
        with pytest.raises(ValueError, match="stage_cost"):
            ServiceApp(stage_cost=0)
        with pytest.raises(ValueError, match="tier"):
            ServiceApp(tier="gold")
        with pytest.raises(ValueError, match="slo_us"):
            ServiceApp(slo_us=0)
        with pytest.raises(ValueError, match="reduce_cost"):
            ServiceApp(reduce_cost=0)

    def test_trace_overrides_generated_stream(self):
        app = ServiceApp(arrivals=[100, 50], rate_per_s=999.0)
        assert app.arrivals == (50, 100)
        assert app.n_requests == 2

    def test_default_slo_is_four_nominal_latencies(self):
        app = ServiceApp(stage_cost=1000, reduce_cost=500)
        assert app.service_profile.nominal_latency_us == 1500
        assert app.slo_us == 6000

    def test_census_and_request_count(self):
        result = run_scenario(_service_only_scenario(rate_per_s=200.0))
        # One dispatcher segment, two stages, one reduce per request.
        assert result.apps["svc"].tasks_completed == 40 * (2 + 2)
        assert result.apps["svc"].requests_completed == 40
        assert result.service["svc"].count == 40

    def test_replay_is_bit_identical(self):
        first = run_scenario(_service_only_scenario(rate_per_s=300.0))
        again = run_scenario(_service_only_scenario(rate_per_s=300.0))
        assert first.service["svc"] == again.service["svc"]
        assert first.sim_time == again.sim_time

    def test_p99_monotone_in_offered_load(self):
        """Rising offered load on a fixed machine can only push the tail
        up: ~0.5, ~1.5, and ~3x of the two-CPU capacity."""
        p99s = [
            run_scenario(_service_only_scenario(rate)).service["svc"].p99
            for rate in (100.0, 300.0, 600.0)
        ]
        assert p99s == sorted(p99s)
        assert p99s[-1] > p99s[0]

    def test_tiers_surface_in_scenario_result(self):
        result = run_scenario(_service_only_scenario(rate_per_s=200.0))
        assert TIER_INTERACTIVE in result.service_tiers
        assert result.service_tiers[TIER_INTERACTIVE].count == 40


# -- the SLO policy ------------------------------------------------------------


def _request(n=8, totals=None, qos=None, uncontrolled=0, now=0):
    return AllocationRequest(
        n_processors=n,
        uncontrolled_runnable=uncontrolled,
        app_totals=totals if totals is not None else {"svc": 6, "bg": 6},
        demands={},
        qos=qos or {},
        now=now,
    )


class TestSLOPolicy:
    def test_no_pressure_matches_equipartition(self):
        req = _request()
        assert make_policy("slo").allocate(req) == make_policy("equal").allocate(req)

    def test_missing_tenant_gets_boosted(self):
        # svc reports 6x its latency target; the boost must take
        # processors from the batch tenant.
        qos = {"svc": (6.0, TIER_INTERACTIVE, 0)}
        policy = make_policy("slo")
        baseline = make_policy("equal").allocate(_request())
        # Pressure is EWMA-smoothed: drive a few rounds to steady state.
        for _ in range(6):
            targets = policy.allocate(_request(qos=qos))
        assert targets["svc"] > baseline["svc"]
        assert targets["svc"] + targets.get("bg", 0) <= 8

    def test_batch_tier_reports_never_boost(self):
        qos = {"bg": (9.0, TIER_BATCH, 0)}
        policy = make_policy("slo")
        for _ in range(6):
            targets = policy.allocate(_request(qos=qos))
        assert targets == make_policy("equal").allocate(_request())

    def test_stale_reports_age_out(self):
        policy = make_policy("slo", report_ttl=ms(10))
        qos = {"svc": (6.0, TIER_INTERACTIVE, 0)}
        for _ in range(6):
            boosted = policy.allocate(_request(qos=qos, now=ms(1)))
        assert boosted["svc"] > 4
        calm = make_policy("slo", report_ttl=ms(10)).allocate(
            _request(qos=qos, now=ms(60))
        )
        assert calm == make_policy("equal").allocate(_request())

    def test_clone_is_fresh_state(self):
        policy = make_policy("slo", floors={"svc": 2})
        for _ in range(4):
            policy.allocate(
                _request(qos={"svc": (6.0, TIER_INTERACTIVE, 0)})
            )
        clone = policy.clone()
        assert clone is not policy
        assert clone.keywords == policy.keywords
        # svc now sits exactly at its target: the original still carries
        # smoothed pressure and keeps boosting, the clone starts calm.
        on_target = _request(qos={"svc": (2.0, TIER_INTERACTIVE, 0)})
        assert clone.allocate(on_target) == make_policy("equal").allocate(
            _request()
        )
        assert policy.allocate(on_target)["svc"] > clone.allocate(on_target)["svc"]

    def test_registry_constructs_slo(self):
        assert make_policy("slo").name == "slo"

    @given(
        n=st.integers(min_value=2, max_value=32),
        totals=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.integers(min_value=1, max_value=8),
            min_size=1,
            max_size=4,
        ),
        slowdowns=st.dictionaries(
            st.sampled_from(["a", "b", "c", "d"]),
            st.floats(min_value=0.0, max_value=50.0),
            max_size=4,
        ),
        floor=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_floor_and_liveness_properties(self, n, totals, slowdowns, floor):
        """Every tenant always gets >= 1 processor, and when the machine
        can cover it, a floored tenant gets its floor."""
        floored = sorted(totals)[0]
        qos = {
            app: (slowdown, TIER_INTERACTIVE, 0)
            for app, slowdown in slowdowns.items()
            if app in totals
        }
        policy = make_policy("slo", floors={floored: floor})
        for _ in range(3):
            targets = policy.allocate(_request(n=n, totals=totals, qos=qos))
        assert set(targets) == set(totals)
        assert all(t >= 1 for t in targets.values())
        # Never hand a tenant more than it can run (the 1-CPU starvation
        # floor may push the *sum* past n on tiny machines, by design).
        assert all(targets[app] <= max(totals[app], 1) for app in totals)
        effective_floor = min(floor, totals[floored])
        if n >= effective_floor + (len(totals) - 1):
            assert targets[floored] >= effective_floor


# -- the acceptance run --------------------------------------------------------


class TestExperimentAcceptance:
    def test_slo_beats_equipartition_under_overload(self):
        """The quick-preset overload point (250 req/s on 8 CPUs next to a
        long batch job): the SLO policy's interactive p99 must be
        strictly better than equipartition's, and the run is digest-
        pinned so the comparison cannot silently drift."""
        results = {}
        digests = {}
        for arm in ("equal", "slo"):
            trace = TraceLog(categories={"kernel.dispatch"})
            result = run_scenario(
                service_mix_scenario(arm, 250.0, preset="quick", seed=0),
                trace=trace,
            )
            results[arm] = result.service["svc"]
            digests[arm] = dispatch_digest(trace)
        assert results["slo"].p99 < results["equal"].p99
        assert results["slo"].goodput_per_s > results["equal"].goodput_per_s

        store = GoldenStore(EXPERIMENT_GOLDEN_PATH, EXPERIMENT_REGEN_HINT)
        for arm in ("equal", "slo"):
            message = store.compare(
                f"service-quick-250-{arm}",
                {
                    "dispatch_digest": digests[arm],
                    "p99_us": results[arm].p99,
                    "violations": results[arm].violations,
                },
            )
            if message:
                pytest.fail(message)
        store.save()
