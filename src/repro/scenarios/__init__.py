"""Declarative scenario corpus + co-simulation oracle.

This package turns the repo's test surface into data:

- :mod:`~repro.scenarios.spec` -- :class:`ScenarioCase` records: a name,
  a family, the :class:`~repro.workloads.scenario.Scenario` to run (its
  applications :class:`~repro.apps.templates.AppTemplate` records) and
  the declared :class:`Expect` invariants; round-trips through dicts/YAML.
- :mod:`~repro.scenarios.catalog` -- the seeded corpus (107 cases across
  eleven families), filterable by coordinate.
- :mod:`~repro.scenarios.runner` -- the one runner executing cases for
  pytest, the CLI, and CI, serially or over the parallel sweep harness.
- :mod:`~repro.scenarios.builders` -- the shared machine builders
  (hoisted from the test suite's conftest).
- :mod:`~repro.scenarios.golden` -- golden-pin storage with a first-class
  ``REPRO_UPDATE_GOLDEN`` regeneration path and uniform mismatch messages.
- :mod:`~repro.scenarios.cosim` -- the co-simulation oracle: the same
  task-queue workload through the simulator and through
  :mod:`repro.realsys` OS processes, timelines diffed within declared
  tolerance bands.

See ``docs/SCENARIOS.md`` for the schema and how to add a case.
"""

from repro.scenarios.catalog import (
    all_cases,
    case_names,
    coverage_summary,
    filter_cases,
    get_case,
)
from repro.scenarios.runner import (
    CaseOutcome,
    CatalogReport,
    run_case,
    run_catalog,
)
from repro.scenarios.spec import Expect, ScenarioCase

__all__ = [
    "CaseOutcome",
    "CatalogReport",
    "Expect",
    "ScenarioCase",
    "all_cases",
    "case_names",
    "coverage_summary",
    "filter_cases",
    "get_case",
    "run_case",
    "run_catalog",
]
