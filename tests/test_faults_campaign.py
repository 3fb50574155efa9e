"""The chaos campaign as a regression gate.

Runs the *default* campaign shape -- every stock injector plan crossed
with three schedulers and five seeds, sanitizer recording -- and holds it
to the acceptance bar: zero invariant violations, zero deadlocks, bounded
completion-time inflation, and a byte-identical report when the same
sweep is run twice.  The sweep is ~90 short simulations and finishes in a
few seconds via :meth:`repro.experiments.parallel.Runs.map`.
"""

from repro.experiments.parallel import Runs
from repro.faults.campaign import (
    DEFAULT_INJECTORS,
    DEFAULT_MAX_INFLATION,
    DEFAULT_SCHEDULERS,
    run_campaign,
)


def test_default_campaign_meets_the_acceptance_shape():
    # The acceptance bar asks for >= 3 injector kinds x >= 3 schedulers
    # x >= 5 seeds; the stock constants must satisfy it so `repro
    # experiments chaos` exercises the full grid by default.
    assert len(DEFAULT_INJECTORS) >= 3
    assert len(DEFAULT_SCHEDULERS) >= 3


def test_campaign_is_clean_and_reports_reproducibly():
    first = run_campaign(runs=Runs(sanitize="record"))
    second = run_campaign(runs=Runs(sanitize="record"))

    assert len(first.injectors) >= 3
    assert len(first.schedulers) >= 3
    assert len(first.seeds) >= 5

    # Zero invariant violations, zero deadlocks, bounded inflation.
    assert first.check(DEFAULT_MAX_INFLATION) == []
    first.assert_clean()

    # Same seeds twice -> byte-identical report.
    assert first.format_report() == second.format_report()

    # The sweep actually exercised the degradation paths, not just
    # healthy runs with a no-op injector: faults fired everywhere, and
    # the server-crash cells saw failed polls and stale-target expiries.
    fault_cells = [c for c in first.cells if c.injector != "baseline"]
    assert fault_cells and all(c.faults_injected > 0 for c in fault_cells)
    crash_cells = [c for c in fault_cells if c.injector == "server-crash"]
    assert crash_cells
    assert all(c.failed_polls > 0 for c in crash_cells)
    assert all(c.target_expiries > 0 for c in crash_cells)
