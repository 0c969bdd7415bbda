"""Measurement: latency reservoirs, summaries, run collectors."""

from repro.metrics.reservoir import LatencyReservoir
from repro.metrics.summary import LatencySummary, ThroughputSummary, RunMetrics
from repro.metrics.collector import MetricsCollector

__all__ = [
    "LatencyReservoir",
    "LatencySummary",
    "ThroughputSummary",
    "RunMetrics",
    "MetricsCollector",
]
