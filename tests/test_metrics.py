"""Tests for the metrics layer: step series, speedup math, tables."""

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    LatencyStats,
    RequestLog,
    StepSeries,
    efficiency,
    format_latency_table,
    format_table,
    format_run_header,
    percentile,
    speedup,
    tier_stats,
)


class TestStepSeries:
    def test_value_at(self):
        series = StepSeries([(0, 1), (10, 3), (20, 0)])
        assert series.value_at(0) == 1
        assert series.value_at(9) == 1
        assert series.value_at(10) == 3
        assert series.value_at(25) == 0

    def test_value_before_first_point_is_zero(self):
        series = StepSeries([(5, 2)])
        assert series.value_at(0) == 0

    def test_same_time_overwrites(self):
        series = StepSeries([(5, 1), (5, 2)])
        assert series.value_at(5) == 2
        assert len(series) == 1

    def test_non_monotonic_rejected(self):
        series = StepSeries([(10, 1)])
        with pytest.raises(ValueError):
            series.append(5, 2)

    def test_maximum(self):
        assert StepSeries().maximum() == 0.0
        assert StepSeries([(0, 2), (5, 7), (9, 1)]).maximum() == 7

    def test_sample(self):
        series = StepSeries([(0, 1), (10, 2)])
        assert series.sample([0, 5, 10, 15]) == [1, 1, 2, 2]

    def test_time_average(self):
        series = StepSeries([(0, 0), (10, 10)])
        # 0 for 10us, 10 for 10us -> average 5 over [0, 20)
        assert series.time_average(0, 20) == pytest.approx(5.0)

    def test_time_average_partial_window(self):
        series = StepSeries([(0, 4)])
        assert series.time_average(2, 6) == pytest.approx(4.0)

    def test_time_average_bad_window(self):
        with pytest.raises(ValueError):
            StepSeries().time_average(5, 5)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1000),
                st.integers(min_value=0, max_value=50),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_time_average_bounded_by_extremes(self, raw_points):
        points = sorted(raw_points)
        series = StepSeries(points)
        average = series.time_average(0, 2000)
        values = [v for _, v in points] + [0]
        assert min(values) <= average <= max(values)


class TestSpeedup:
    def test_basic(self):
        assert speedup(100, 25) == 4.0
        assert efficiency(100, 25, 8) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            speedup(0, 5)
        with pytest.raises(ValueError):
            speedup(5, 0)
        with pytest.raises(ValueError):
            efficiency(5, 5, 0)


class TestFormatting:
    def test_table_alignment(self):
        table = format_table(["a", "long-header"], [[1, 2.5], [30, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "long-header" in lines[0]
        assert "2.50" in table  # floats formatted at 2 decimals

    def test_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_run_header(self):
        assert format_run_header("Test") == "== Test =="
        header = format_run_header("Test", q=5, a=1)
        assert header == "== Test (a=1, q=5) =="


class TestPercentile:
    def test_nearest_rank_fixture(self):
        samples = [10, 20, 30, 40]
        assert percentile(samples, 50) == 20
        assert percentile(samples, 75) == 30
        assert percentile(samples, 76) == 40
        assert percentile(samples, 100) == 40
        assert percentile([7], 99) == 7

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1], 0)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1], 101)

    @given(
        samples=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=200
        ),
        q=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_matches_sorted_reference(self, samples, q):
        """Nearest-rank against the textbook definition: the smallest
        observed sample with at least q% of the mass at or below it."""
        import math

        ordered = sorted(samples)
        expected = ordered[math.ceil(q / 100.0 * len(ordered)) - 1]
        got = percentile(samples, q)
        assert got == expected
        assert got in samples  # never an interpolated phantom value

    @given(
        samples=st.lists(
            st.integers(min_value=0, max_value=10**6), min_size=1, max_size=100
        )
    )
    def test_monotone_in_q(self, samples):
        qs = [10, 50, 90, 99, 100]
        values = [percentile(samples, q) for q in qs]
        assert values == sorted(values)
        assert min(samples) <= values[0]
        assert values[-1] == max(samples)


class TestLatencyStats:
    def test_goodput_and_violation_fixture(self):
        # Two of four requests breach a 25 us SLO over a 100 us window:
        # violation rate 1/2, goodput counts only the two that met it.
        stats = LatencyStats.from_samples(
            [10, 20, 30, 40], slo_us=25, window_us=100
        )
        assert stats.count == 4
        assert stats.violations == 2
        assert stats.violation_rate == pytest.approx(0.5)
        assert stats.goodput_per_s == pytest.approx(2 * 1e6 / 100)
        assert stats.p50 == 20
        assert stats.p99 == 40
        assert stats.max == 40
        assert stats.mean == pytest.approx(25.0)

    def test_exact_slo_boundary_is_met(self):
        stats = LatencyStats.from_samples([25], slo_us=25, window_us=10)
        assert stats.violations == 0

    def test_degenerate_window_floors_at_one(self):
        stats = LatencyStats.from_samples([5], slo_us=10, window_us=0)
        assert stats.goodput_per_s == pytest.approx(1e6)

    def test_validation(self):
        with pytest.raises(ValueError, match="no latency samples"):
            LatencyStats.from_samples([], slo_us=10, window_us=10)
        with pytest.raises(ValueError, match="slo_us"):
            LatencyStats.from_samples([1], slo_us=0, window_us=10)


class TestRequestLog:
    def test_append_returns_latency(self):
        log = RequestLog(slo_us=100)
        assert log.append(0, arrival=50, completed=80) == 30
        assert log.append(1, arrival=60, completed=200) == 140
        assert log.latencies == [30, 140]

    def test_stats_window_spans_first_arrival_to_last_completion(self):
        log = RequestLog(slo_us=100, tier="batch")
        log.append(0, arrival=50, completed=80)
        log.append(1, arrival=60, completed=250)
        stats = log.stats()
        assert stats.tier == "batch"
        assert stats.violations == 1
        # Window 50 -> 250; only the first request met the SLO.
        assert stats.goodput_per_s == pytest.approx(1e6 / 200)

    def test_empty_log_has_no_stats(self):
        assert RequestLog(slo_us=100).stats() is None


class TestTierStats:
    def test_merges_worst_member_percentiles(self):
        per_app = {
            "a": LatencyStats.from_samples(
                [10, 10], slo_us=50, window_us=100, tier="interactive"
            ),
            "b": LatencyStats.from_samples(
                [90, 90], slo_us=40, window_us=100, tier="interactive"
            ),
            "c": LatencyStats.from_samples(
                [500], slo_us=1000, window_us=100, tier="batch"
            ),
        }
        merged = tier_stats(per_app)
        assert set(merged) == {"interactive", "batch"}
        interactive = merged["interactive"]
        assert interactive.count == 4
        assert interactive.p99 == 90  # worst member wins
        assert interactive.slo_us == 40  # tightest member's objective
        assert interactive.violations == 2
        assert interactive.violation_rate == pytest.approx(0.5)
        assert interactive.goodput_per_s == pytest.approx(
            per_app["a"].goodput_per_s + per_app["b"].goodput_per_s
        )
        assert merged["batch"].count == 1

    def test_format_latency_table(self):
        per_app = {
            "svc": LatencyStats.from_samples(
                [1000, 2000], slo_us=1500, window_us=10_000
            )
        }
        table = format_latency_table(per_app)
        assert "svc" in table
        assert "p99_ms" in table
        assert "50.0" in table  # violation percentage
