"""Measurement utilities: step time series, speedup math, latency
accounting, report tables."""

from repro.metrics.timeseries import StepSeries
from repro.metrics.speedup import speedup, efficiency
from repro.metrics.latency import (
    LatencyStats,
    RequestLog,
    format_latency_table,
    percentile,
    tier_stats,
)
from repro.metrics.report import (
    format_run_header,
    format_sanitizer_summary,
    format_table,
)

__all__ = [
    "StepSeries",
    "speedup",
    "efficiency",
    "LatencyStats",
    "RequestLog",
    "percentile",
    "tier_stats",
    "format_latency_table",
    "format_table",
    "format_run_header",
    "format_sanitizer_summary",
]
