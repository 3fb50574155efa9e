"""Smoke test of ``benchmarks/footprint.py`` on the quick ``figure4`` tier,
and the ``scale`` tier's traced-memory ceiling."""

import tracemalloc

import pytest

from benchmarks import footprint

#: Whole-run traced peak of the perf ``scale`` tier.  It was 58.3 MB on
#: CPython 3.11 (57.4 MB on 3.13) while each tenant's application was
#: built at set-up and each compute task held a separate body object;
#: ~47.5 MB (46.6 MB) with both built lazily and one record per task;
#: ~45.4 MB while every shard kept a machine-wide census view and every
#: compute task a name string; ~40.5 MB without them.
SCALE_TRACED_PEAK_CEILING_MB = 44


def test_figure4_footprint_report():
    fp = footprint.measure("figure4")
    assert not tracemalloc.is_tracing()
    assert 1 <= fp.peak_spawn <= fp.spawns
    assert fp.peak_traced > 0 and fp.end_traced > 0 and fp.run_peak > 0

    lines = footprint.report(fp, top=3).splitlines()
    assert lines[0].startswith("figure4: ")
    assert f"at spawn {fp.peak_spawn:,} of {fp.spawns:,}" in lines[0]
    assert any(line.startswith("figure4: run end") for line in lines)
    sites = [line for line in lines if " MB  " in line]
    assert len(sites) == 6  # three lines at each of the two points
    assert any("repro/" in line for line in sites)


def test_rejects_an_unknown_tier_and_a_nonpositive_top():
    with pytest.raises(SystemExit):
        footprint.main(["figure9"])
    with pytest.raises(SystemExit):
        footprint.main(["figure4", "--top", "0"])


def test_scale_whole_run_traced_peak():
    peak = footprint.run_peak("scale")
    assert not tracemalloc.is_tracing()
    assert peak <= SCALE_TRACED_PEAK_CEILING_MB * footprint.MB, (
        f"{peak / footprint.MB:.1f} MB traced at the peak"
    )
