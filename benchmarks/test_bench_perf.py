"""Perf trajectory: record events/sec and wall time into BENCH_perf.json.

One benchmark per headline experiment.  Each runs its quick slice exactly
once (``run_once``: the interesting output is the recorded trajectory, not
host timing statistics) and merge-writes its entry into ``BENCH_perf.json``
at the repository root so future PRs can compare against this one.
"""

import pytest

from benchmarks.conftest import run_once
from benchmarks.perf import EXPERIMENTS, PERF_PATH, measure, record


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_perf_trajectory(benchmark, name):
    entry = run_once(benchmark, lambda: record([name])[name])
    print(f"\n{name}: {entry['wall_s']}s, {entry['events']} events, "
          f"{entry['events_per_sec']} events/sec")
    # The record must be usable by the next PR: nonzero work was measured
    # and the file landed where the CI artifact step expects it.
    assert entry["events"] > 0
    assert entry["wall_s"] > 0
    assert entry["events_per_sec"] > 0
    assert entry["scenario_runs"] > 0
    assert entry["peak_rss_mb"] > 0
    assert PERF_PATH.exists()


def test_measure_does_not_write():
    """`measure` is pure; only `record` touches BENCH_perf.json."""
    before = PERF_PATH.read_text() if PERF_PATH.exists() else None
    entry = measure("figure4")
    assert entry["events"] > 0
    after = PERF_PATH.read_text() if PERF_PATH.exists() else None
    assert before == after


def test_measure_records_the_collector():
    """The GC ledger: pause time and per-generation collection counts,
    from a ``gc.callbacks`` hook that is gone once the tier returns."""
    import gc

    callbacks = list(gc.callbacks)
    entry = measure("figure4")
    assert gc.callbacks == callbacks
    assert entry["gc_pause_s"] >= 0
    counts = [entry["gc_young"], entry["gc_middle"], entry["gc_full"]]
    assert all(isinstance(n, int) and n >= 0 for n in counts)
    # Tens of thousands of events allocate enough to run the young
    # generation at least once.
    assert entry["gc_young"] > 0
