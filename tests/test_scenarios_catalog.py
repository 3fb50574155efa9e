"""The scenario corpus, executed case by case through the catalog runner.

Every catalog entry runs as its own parametrized test; digest-pinned
cases are additionally checked against the shared golden store
(``tests/golden/scenario_digests.json``).  To regenerate the pins after
an intentional behaviour change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_scenarios_catalog.py -q

Corpus-shape tests pin the coverage guarantees ISSUE acceptance demands:
scheduler x policy cross completeness, fault-family breadth, and record
round-tripping.
"""

import pytest

from repro.core.allocation import POLICY_NAMES
from repro.experiments.parallel import Runs
from repro.apps.templates import AppTemplate
from repro.scenarios import (
    Expect,
    ScenarioCase,
    all_cases,
    case_names,
    coverage_summary,
    filter_cases,
    get_case,
    run_case,
    run_catalog,
)
from repro.scenarios.catalog import _app, _case, build_catalog
from repro.scenarios.runner import open_golden_store
from repro.workloads import AppSpec, Scenario
from repro.workloads.schedulers import SCHEDULER_NAMES


@pytest.fixture(scope="module")
def golden_store():
    store = open_golden_store()
    yield store
    # In REPRO_UPDATE_GOLDEN mode the measured records were captured during
    # the tests; persist them once at module teardown.
    store.save()


@pytest.mark.parametrize("name", case_names())
def test_catalog_case(name, golden_store):
    case = get_case(name)
    outcome = run_case(case)
    assert outcome.ok, (
        f"case {name!r} violated its declared invariants:\n  "
        + "\n  ".join(outcome.violations)
    )
    if outcome.digest is not None:
        message = golden_store.compare(
            name,
            {"dispatch_digest": outcome.digest, "sim_time": outcome.sim_time},
        )
        if message:
            pytest.fail(message)


class TestCorpusShape:
    def test_minimum_size(self):
        assert len(all_cases()) >= 60

    def test_names_unique(self):
        names = case_names()
        assert len(names) == len(set(names))

    def test_every_scheduler_policy_cross_present(self):
        cases = all_cases()
        for scheduler in SCHEDULER_NAMES:
            for policy in POLICY_NAMES:
                assert filter_cases(
                    cases, scheduler=scheduler, policy=policy
                ), f"no corpus case for {scheduler} x {policy}"
        assert filter_cases(cases, scheduler="partition", policy="space")

    def test_fault_family_breadth(self):
        kinds = {
            kind for case in all_cases() for kind in case.fault_kinds
        }
        assert len(kinds) >= 4, f"only {sorted(kinds)} fault kinds covered"

    def test_every_family_populated(self):
        summary = coverage_summary()
        for family in (
            "cross",
            "overload",
            "bursty",
            "gang",
            "hotplug",
            "failover",
            "storm",
            "service",
            "fuzz",
        ):
            assert summary.get(f"family:{family}", 0) >= 4, family

    def test_digest_pins_are_healthy_cases_only(self):
        for case in all_cases():
            if case.expect.pin_digest:
                assert not case.scenario.faults, (
                    f"{case.name}: faulted cases cannot pin digests"
                )

    def test_build_catalog_is_stable(self):
        first = [case.name for case in build_catalog()]
        second = [case.name for case in build_catalog()]
        assert first == second

    def test_records_round_trip(self):
        for case in all_cases():
            clone = ScenarioCase.from_dict(case.to_dict())
            assert clone == case, case.name

    def test_yaml_round_trip(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        del yaml  # the corpus functions do their own gated import
        from repro.scenarios.spec import dump_cases_yaml, load_cases_yaml

        subset = all_cases()[:5]
        path = tmp_path / "corpus.yaml"
        dump_cases_yaml(subset, str(path))
        assert load_cases_yaml(str(path)) == subset


class TestFilters:
    def test_filter_by_fault_any_none(self):
        cases = all_cases()
        faulted = filter_cases(cases, fault="any")
        healthy = filter_cases(cases, fault="none")
        assert len(faulted) + len(healthy) == len(cases)
        assert all(case.scenario.faults for case in faulted)
        assert all(not case.scenario.faults for case in healthy)

    def test_filter_by_kind(self):
        crashes = filter_cases(fault="server-crash")
        assert crashes
        assert all("server-crash" in case.fault_kinds for case in crashes)

    def test_filter_by_name_substring(self):
        assert all(
            "cross" in case.name for case in filter_cases(name="cross")
        )

    def test_get_case_unknown(self):
        with pytest.raises(KeyError, match="no catalog case"):
            get_case("definitely-not-a-case")


class TestCaseValidation:
    """A bad case fails when the catalog builds it: the family here, the
    run description in :class:`Scenario`, each application in
    :class:`AppTemplate`."""

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            _case("x", "nope", [_app("uniform", 2)])

    def test_unknown_scheduler(self):
        with pytest.raises(ValueError, match="unknown scheduler 'nope'"):
            _case("x", "cross", [_app("uniform", 2)], scheduler="nope")

    def test_unknown_template(self):
        with pytest.raises(ValueError, match="unknown app template 'nope'"):
            _case("x", "cross", [_app("nope", 2)])

    def test_bad_fault_spec_fails_eagerly(self):
        with pytest.raises(ValueError, match="not-a-real-fault"):
            _case(
                "x",
                "storm",
                [_app("uniform", 2)],
                faults="not-a-real-fault:at=1ms",
            )

    def test_no_apps(self):
        with pytest.raises(ValueError, match="no applications"):
            _case("x", "cross", [])

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy 'nope'"):
            _case("x", "cross", [_app("uniform", 2)], policy="nope")

    def test_invalid_shards(self):
        with pytest.raises(ValueError, match="shards"):
            _case("x", "cross", [_app("uniform", 2)], shards=0)

    def test_unknown_template_in_factory(self):
        with pytest.raises(ValueError, match="unknown app template"):
            AppTemplate("nope", "x")

    def test_apps_must_be_templates_with_ids(self):
        # A case must serialize: a closure factory or an id-less spec
        # cannot round-trip through a dict.
        closure = AppSpec(lambda: AppTemplate("uniform", "u")(), 2, app_id="u")
        idless = AppSpec(AppTemplate("uniform", "u"), 2)
        for spec in (closure, idless):
            with pytest.raises(ValueError, match=r"apps\[0\]"):
                ScenarioCase("x", "cross", Scenario(apps=[spec]))

    def test_run_must_round_trip(self):
        # A policy instance or a watchdog config would come back from
        # from_dict as a copy or a dict, not an equal record.
        from repro.core.allocation import make_policy
        from repro.resilience.watchdog import WatchdogConfig

        for run in (
            {"policy": make_policy("weighted", weights={"uniform0": 2.0})},
            {"watchdog": WatchdogConfig(), "supervise": True},
        ):
            with pytest.raises(ValueError, match="case 'x'"):
                _case("x", "failover", [_app("uniform", 2)], **run)

    def test_apps_take_their_index_ids_and_seeds(self):
        case = _case(
            "x",
            "fuzz",
            [
                _app("uniform", 2, n_tasks=7),
                _app("barrier", 2, n_tasks=3),
                _app("fft", 2, name="named", scale=0.05),
            ],
            seed=5,
        )
        templates = [spec.factory for spec in case.scenario.apps]
        assert [t.app_id for t in templates] == ["uniform0", "barrier1", "named"]
        assert [spec.app_id for spec in case.scenario.apps] == [
            "uniform0",
            "barrier1",
            "named",
        ]
        assert [t.seed for t in templates] == [5, 6, 7]
        assert case.scenario.seed == 5

    def test_expected_census(self):
        case = _case(
            "x",
            "cross",
            [
                _app("uniform", 2, n_tasks=7),
                _app("barrier", 2, n_tasks=3),
                _app("fft", 2, scale=0.05),
            ],
        )
        census = case.expected_census()
        assert census["uniform0"] == 7
        assert census["barrier1"] == 12
        assert census["fft2"] is None


class TestRunnerParallelism:
    def test_parallel_sweep_matches_serial(self):
        """The process-pool fan-out is bit-identical to the serial loop."""
        cases = filter_cases(family="cross", policy="equal")[:4]
        assert len(cases) == 4
        serial = run_catalog(cases, runs=Runs(jobs=1), check_digests=False)
        fanned = run_catalog(cases, runs=Runs(jobs=2), check_digests=False)
        assert [o.digest for o in serial.outcomes] == [
            o.digest for o in fanned.outcomes
        ]
        assert [o.sim_time for o in serial.outcomes] == [
            o.sim_time for o in fanned.outcomes
        ]

    def test_report_formats_failures(self):
        case = get_case("cross-fifo-equal").with_(
            name="doomed",
            expect=Expect(pin_digest=False, max_makespan=1),
        )
        report = run_catalog([case], runs=Runs(jobs=1), check_digests=False)
        assert not report.ok
        assert "latency band" in report.format_report()
        with pytest.raises(AssertionError, match="doomed"):
            report.assert_clean()
