"""Tests for the pluggable allocation-policy layer (protocol + registry)."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.core.allocation import (
    POLICY_NAMES,
    AllocationPolicy,
    AllocationRequest,
    SpaceAwarePolicy,
    WaterFillPolicy,
    make_policy,
)
from repro.core.policy import partition_processors
from repro.scenarios.golden import GoldenStore


def request(n=8, uncontrolled=0, totals=None, demands=None, **kw):
    return AllocationRequest(
        n_processors=n,
        uncontrolled_runnable=uncontrolled,
        app_totals=totals if totals is not None else {"a": 6, "b": 6},
        demands=demands if demands is not None else {},
        **kw,
    )


class TestRegistry:
    def test_names_cover_the_constructible_policies(self):
        assert POLICY_NAMES == (
            "compliance", "demand", "equal", "slo", "weighted"
        )

    def test_make_policy_builds_each_name(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert isinstance(policy, WaterFillPolicy)
            assert policy.name == name

    def test_make_policy_forwards_kwargs(self):
        policy = make_policy("weighted", weights={"a": 2.0})
        assert policy.weights == {"a": 2.0}
        assert policy.keywords == {"weights": {"a": 2.0}}

    def test_clone_rebuilds_from_name_and_keywords(self):
        policy = make_policy("compliance", lag_grace=2000, smoothing=0.5)
        clone = policy.clone()
        assert clone is not policy
        assert (clone.name, clone.keywords) == (policy.name, policy.keywords)

    def test_only_unweighted_stageless_policies_are_equipartition(self):
        assert make_policy("equal").equipartition
        assert make_policy("weighted").equipartition
        assert not make_policy("weighted", weights={"a": 2.0}).equipartition
        assert not make_policy("demand").equipartition
        assert not SpaceAwarePolicy(_FakePartitionScheduler({})).equipartition

    def test_unknown_name_raises_with_catalog(self):
        with pytest.raises(
            ValueError, match="compliance, demand, equal, slo, weighted"
        ):
            make_policy("fair-share")

    def test_unknown_kwarg_names_the_offender_and_the_accepted_set(self):
        # A typo'd knob must fail as a clear ValueError naming the bad
        # keyword, not a bare TypeError from deep inside a sweep cell.
        with pytest.raises(ValueError, match="'weihgts'") as excinfo:
            make_policy("weighted", weihgts={"a": 2.0})
        assert "weights" in str(excinfo.value)
        with pytest.raises(ValueError, match="'lag_grace'"):
            make_policy("equal", lag_grace=5)
        # A weight table needs a policy that takes one.
        with pytest.raises(ValueError, match="unknown keyword 'weights'"):
            make_policy("equal", weights={"a": 3.0})

    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            AllocationPolicy().allocate(request())


class TestEquipartition:
    def test_matches_the_raw_partition_function(self):
        req = request(n=8, uncontrolled=2, totals={"a": 2, "b": 6, "c": 6})
        assert make_policy("equal").allocate(req) == partition_processors(
            8, 2, {"a": 2, "b": 6, "c": 6}
        )

    def test_ignores_demands(self):
        # Equipartition is backlog-blind by design (the paper's rule).
        with_demand = make_policy("equal").allocate(
            request(demands={"a": 1, "b": 1})
        )
        without = make_policy("equal").allocate(request())
        assert with_demand == without


class TestWeightedPolicy:
    def test_weights_shift_shares(self):
        targets = make_policy("weighted", weights={"a": 3.0, "b": 1.0}).allocate(
            request()
        )
        assert targets["a"] > targets["b"]

    def test_stale_weight_entries_are_filtered(self):
        # The server's weight table legitimately outlives applications
        # (they come and go); the policy must not trip the raw function's
        # unknown-name validation on the survivors' behalf.
        policy = make_policy("weighted", weights={"a": 3.0, "gone": 2.0})
        targets = policy.allocate(request(totals={"a": 6, "b": 6}))
        assert set(targets) == {"a", "b"}
        assert targets["a"] > targets["b"]

    def test_empty_table_degrades_to_equipartition(self):
        req = request()
        assert make_policy("weighted").allocate(req) == make_policy(
            "equal"
        ).allocate(req)


class TestDemandPolicy:
    def test_backlog_caps_the_share(self):
        # 8 CPUs, two 6-process apps; "a" reports only 2 outstanding
        # tasks, so its share shrinks to 2 and the slack flows to "b".
        targets = make_policy("demand").allocate(request(demands={"a": 2, "b": 6}))
        assert targets == {"a": 2, "b": 6}

    def test_unknown_demand_means_unbounded(self):
        # Apps that never reported keep their full cap: pre-feedback
        # behaviour, i.e. plain equipartition.
        req = request()
        assert make_policy("demand").allocate(req) == make_policy(
            "equal"
        ).allocate(req)

    def test_zero_backlog_keeps_the_starvation_floor(self):
        targets = make_policy("demand").allocate(request(demands={"a": 0, "b": 6}))
        assert targets["a"] == 1

    def test_demand_above_total_is_capped_at_total(self):
        targets = make_policy("demand").allocate(
            request(totals={"a": 3, "b": 6}, demands={"a": 50, "b": 50})
        )
        assert targets["a"] <= 3

    def test_stale_weight_entries_are_filtered(self):
        policy = make_policy("demand", weights={"gone": 9.0})
        targets = policy.allocate(request(totals={"a": 4}))
        assert targets == {"a": 4}


def _report(
    runtime="taskqueue",
    floor=1,
    overshoot=0.0,
    adoption_lag_us=None,
    max_adoption_lag_us=0,
    adoptions=0,
    reported_at=0,
):
    from repro.threads.compliance import ComplianceReport

    return ComplianceReport(
        runtime=runtime,
        floor=floor,
        overshoot=overshoot,
        adoption_lag_us=adoption_lag_us,
        max_adoption_lag_us=max_adoption_lag_us,
        adoptions=adoptions,
        reported_at=reported_at,
    )


class TestCompliancePolicy:
    def test_no_telemetry_degrades_to_demand_policy(self):
        req = request(demands={"a": 2, "b": 6})
        assert make_policy("compliance").allocate(req) == make_policy(
            "demand"
        ).allocate(req)

    def test_overshoot_is_charged_like_uncontrolled_load(self):
        # "a" was asked to run 4 but holds 3 extra workers runnable; the
        # compliant "b" must be granted only processors that exist.
        req = request(
            published={"a": 4, "b": 4},
            compliance={"a": _report(overshoot=3.0)},
        )
        targets = make_policy("compliance").allocate(req)
        baseline = make_policy("equal").allocate(request())
        assert baseline == {"a": 4, "b": 4}
        # 8 CPUs - 3 held = 5 to divide; "a" is capped at its published 4.
        assert targets["a"] + targets["b"] <= 5

    def test_overshooter_grant_never_grows(self):
        req = request(
            totals={"a": 6, "b": 2},
            published={"a": 2, "b": 2},
            compliance={"a": _report(overshoot=2.0)},
        )
        targets = make_policy("compliance").allocate(req)
        # Without the cap "a" would water-fill to 6 - uncontrolled share.
        assert targets["a"] <= 2

    def test_fractional_overshoot_charges_a_whole_processor(self):
        req = request(
            published={"a": 4, "b": 4},
            compliance={"a": _report(overshoot=0.5)},
        )
        targets = make_policy("compliance").allocate(req)
        assert targets["a"] + targets["b"] <= 7

    def test_structural_floor_is_charged_but_not_penalized(self):
        # A pipeline with floor 3 was published 1: its 2-worker overshoot
        # is physics, so its cap is *raised* to the floor (and restored
        # after water-filling), not punished.
        req = request(
            n=4,
            totals={"pipe": 4, "b": 4},
            published={"pipe": 1, "b": 3},
            compliance={"pipe": _report(runtime="pipeline", floor=3, overshoot=2.0)},
        )
        targets = make_policy("compliance").allocate(req)
        assert targets["pipe"] == 3

    def test_excess_beyond_the_floor_is_penalized(self):
        # Floor 2, published 2, overshoot 3: one structural-free worker
        # held above target; the cap clamps at max(published, floor) = 2.
        req = request(
            totals={"a": 8, "b": 8},
            published={"a": 2, "b": 6},
            compliance={"a": _report(floor=2, overshoot=3.0)},
        )
        targets = make_policy("compliance").allocate(req)
        assert targets["a"] == 2

    def test_slow_complier_weight_is_discounted(self):
        # Same totals, no overshoot right now, but "a" took 4x the grace
        # to adopt its last shrink: its share shrinks below "b"'s.
        policy = make_policy("compliance", lag_grace=1000)
        req = request(
            n=6,
            published={"a": 3, "b": 3},
            compliance={
                "a": _report(adoption_lag_us=4000, adoptions=1),
                "b": _report(adoption_lag_us=100, adoptions=1),
            },
        )
        targets = policy.allocate(req)
        assert targets["a"] < targets["b"]

    def test_prompt_complier_keeps_equal_share(self):
        policy = make_policy("compliance", lag_grace=1000)
        req = request(
            published={"a": 4, "b": 4},
            compliance={
                "a": _report(adoption_lag_us=500, adoptions=2),
                "b": _report(adoption_lag_us=100, adoptions=2),
            },
        )
        assert policy.allocate(req) == {"a": 4, "b": 4}

    def test_census_outranks_a_stale_overshoot_sample(self):
        # The board report says compliant (a deferred-adoption runtime
        # samples overshoot only at safe points), but the kernel census
        # sees 7 runnable against a published 4: the live figure wins.
        req = request(
            published={"a": 4, "b": 4},
            runnable={"a": 7, "b": 4},
            compliance={"a": _report(overshoot=0.0), "b": _report()},
        )
        targets = make_policy("compliance").allocate(req)
        assert targets["a"] <= 4  # capped: mid-phase holdout, no growth
        assert targets["a"] + targets["b"] <= 5  # 3 held charged

    def test_census_at_or_below_published_changes_nothing(self):
        req = request(
            published={"a": 4, "b": 4},
            runnable={"a": 4, "b": 3},
            compliance={"a": _report(), "b": _report()},
        )
        assert make_policy("compliance").allocate(req) == {"a": 4, "b": 4}

    def test_board_overshoot_still_wins_when_larger(self):
        # A tenant whose own report admits a bigger overshoot than the
        # census snapshot (workers blocked at the census instant) is
        # charged by its own admission.
        req = request(
            published={"a": 4, "b": 4},
            runnable={"a": 5, "b": 4},
            compliance={"a": _report(overshoot=3.0), "b": _report()},
        )
        targets = make_policy("compliance").allocate(req)
        assert targets["a"] + targets["b"] <= 5

    def test_stale_report_is_ignored(self):
        policy = make_policy("compliance", report_ttl=1000)
        req = request(
            published={"a": 4, "b": 4},
            compliance={"a": _report(overshoot=3.0, reported_at=0)},
            now=5000,
        )
        assert policy.allocate(req) == make_policy("equal").allocate(request())

    def test_discount_is_capped(self):
        policy = make_policy("compliance", lag_grace=1000, discount_cap=2.0)
        req = request(
            n=12,
            totals={"a": 12, "b": 12},
            published={"a": 6, "b": 6},
            compliance={"a": _report(adoption_lag_us=1_000_000, adoptions=1)},
        )
        targets = policy.allocate(req)
        # weight 1/2 vs 1 -> a third of the machine, not starvation.
        assert targets["a"] == 4
        assert targets["b"] == 8

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="lag_grace"):
            make_policy("compliance", lag_grace=0)
        with pytest.raises(ValueError, match="discount_cap"):
            make_policy("compliance", discount_cap=0.5)


class _FakePartitionScheduler:
    def __init__(self, groups):
        self._groups = groups

    def partition_of(self, app_id):
        return self._groups.get(app_id, [])


class TestSpaceAwarePolicy:
    def test_targets_are_group_sizes_capped_by_process_count(self):
        scheduler = _FakePartitionScheduler({"a": [0, 1, 2, 3], "b": [4, 5]})
        policy = SpaceAwarePolicy(scheduler)
        targets = policy.allocate(request(totals={"a": 3, "b": 6}))
        assert targets == {"a": 3, "b": 2}

    def test_empty_group_still_gets_the_starvation_floor(self):
        policy = SpaceAwarePolicy(_FakePartitionScheduler({}))
        assert policy.allocate(request(totals={"a": 5})) == {"a": 1}

    def test_rejects_schedulers_without_partition_of(self):
        with pytest.raises(TypeError, match="partition_of"):
            SpaceAwarePolicy(object())


# -- allocation digests --------------------------------------------------------
#
# Every registered policy, crossed with each non-default knob the tests use,
# driven through seeded multi-round request streams (with and without app
# churn) and reduced to one sha256 per cell.  The pins live in
# ``tests/golden/allocation_digests.json``; regenerate with::
#
#     REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
#         tests/test_core_allocation.py -q -k digest

DIGEST_GOLDEN_PATH = Path(__file__).parent / "golden" / "allocation_digests.json"
DIGEST_REGEN_HINT = (
    "PYTHONPATH=src python -m pytest tests/test_core_allocation.py -q -k digest"
)

#: One non-default setting per policy keyword.
DIGEST_KNOBS = {
    "weights": {"a": 3.0, "c": 0.5, "gone": 2.0},
    "smoothing": 0.5,
    "report_ttl": 2500,
    "target_slowdown": 1.5,
    "boost_cap": 3.0,
    "pressure_smoothing": 0.25,
    "floors": {"b": 3, "d": 2, "gone": 2},
    "lag_grace": 1500,
    "discount_cap": 2.0,
}

#: The keywords each registered name accepts.
ACCEPTED_KEYWORDS = {
    "equal": (),
    "weighted": ("weights",),
    "demand": ("report_ttl", "smoothing", "weights"),
    "slo": (
        "boost_cap",
        "floors",
        "pressure_smoothing",
        "report_ttl",
        "smoothing",
        "target_slowdown",
        "weights",
    ),
    "compliance": (
        "discount_cap",
        "lag_grace",
        "report_ttl",
        "smoothing",
        "weights",
    ),
}

DIGEST_APPS = ("a", "b", "c", "d", "e")
DIGEST_SEEDS = (0, 1, 2, 3)
DIGEST_ROUNDS = 30


def _digest_cells():
    for name, knobs in sorted(ACCEPTED_KEYWORDS.items()):
        variants = [("default", {})]
        variants += [(knob, {knob: DIGEST_KNOBS[knob]}) for knob in knobs]
        if len(knobs) > 1:
            variants.append(("all", {knob: DIGEST_KNOBS[knob] for knob in knobs}))
        for label, kwargs in variants:
            for churn in (False, True):
                mode = "churn" if churn else "steady"
                yield f"{name}/{label}/{mode}", name, kwargs, churn


def _drive(policy, seed, churn):
    """Feed *policy* one seeded request stream; return every round's
    targets.  The stream's draws never depend on the policy, except that
    each round publishes the previous round's targets (as the server
    does)."""
    from repro.threads.compliance import ComplianceReport

    rng = random.Random(seed)
    n = rng.randint(4, 20)
    totals = {app: rng.randint(1, 10) for app in DIGEST_APPS}
    published = {}
    rounds = []
    for index in range(DIGEST_ROUNDS):
        now = 1000 * (index + 1)
        live = [app for app in DIGEST_APPS if not churn or rng.random() < 0.7]
        if not live:
            live = ["a"]
        for app in live:
            if rng.random() < 0.1:
                totals[app] = rng.randint(1, 10)
        demands, stamps, qos, compliance, runnable = {}, {}, {}, {}, {}
        for app in live:
            if rng.random() < 0.8:
                demands[app] = rng.randint(0, 12)
                if rng.random() < 0.9:
                    stamps[app] = now - rng.choice((0, 0, 1000, 4000))
            if rng.random() < 0.6:
                qos[app] = (
                    round(rng.uniform(0.5, 9.0), 3),
                    rng.choice(("interactive", "interactive", "batch")),
                    now - rng.choice((0, 0, 1000, 4000)),
                )
            if rng.random() < 0.6:
                compliance[app] = ComplianceReport(
                    runtime=rng.choice(("taskqueue", "forkjoin", "pipeline")),
                    floor=rng.randint(1, 4),
                    overshoot=rng.choice((0.0, 0.0, 0.5, 1.0, 2.0, 3.5)),
                    adoption_lag_us=rng.choice(
                        (None, 500, 1200, 3000, 9000, 7_000_000, 40_000_000)
                    ),
                    max_adoption_lag_us=0,
                    adoptions=1,
                    reported_at=now - rng.choice((0, 0, 1000, 4000)),
                )
            if rng.random() < 0.8:
                runnable[app] = rng.randint(0, totals[app])
        targets = policy.allocate(
            AllocationRequest(
                n_processors=n,
                uncontrolled_runnable=rng.choice((0, 0, 0, 1, 2, 5)),
                app_totals={app: totals[app] for app in live},
                demands=demands,
                demand_reported_at=stamps,
                qos=qos,
                published=dict(published),
                runnable=runnable,
                compliance=compliance,
                now=now,
            )
        )
        rounds.append(sorted(targets.items()))
        published = targets
    return rounds


def _cell_digest(name, kwargs, churn):
    streams = [
        _drive(make_policy(name, **kwargs), seed, churn)
        for seed in DIGEST_SEEDS
    ]
    blob = json.dumps(streams, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class TestAllocationDigests:
    def test_accepted_keywords_are_pinned(self):
        for name, knobs in ACCEPTED_KEYWORDS.items():
            with pytest.raises(ValueError) as excinfo:
                make_policy(name, bogus=1)
            assert str(excinfo.value).endswith(
                "accepted keywords: " + (", ".join(knobs) or "(none)")
            )

    def test_allocation_digests_match_the_pins(self):
        store = GoldenStore(DIGEST_GOLDEN_PATH, DIGEST_REGEN_HINT)
        failures = []
        for cell, name, kwargs, churn in _digest_cells():
            message = store.compare(
                cell, {"sha256": _cell_digest(name, kwargs, churn)}
            )
            if message:
                failures.append(message)
        store.save()
        assert not failures, "\n".join(failures)
