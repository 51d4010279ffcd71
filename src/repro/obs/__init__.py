"""Observability: metrics registry, causal spans, exporters.

See DESIGN.md "Observability" for the span model and wire format.
"""

from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (
    DEFAULT_SIZE_LADDER,
    DEFAULT_TIME_LADDER,
    Counter,
    CounterVec,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_from_snapshot,
    log_ladder,
    merge_snapshots,
)
from repro.obs.span import Span, SpanTracer

__all__ = [
    "Counter", "CounterVec", "Gauge", "Histogram", "MetricsRegistry",
    "merge_snapshots", "histogram_from_snapshot",
    "log_ladder", "DEFAULT_TIME_LADDER", "DEFAULT_SIZE_LADDER",
    "Span", "SpanTracer", "FlightRecorder",
]
