"""Observability layer: metrics registry, Chrome-trace timeline and
per-issue recorder.

See docs/observability.md for the user-facing walkthrough.  The
simulator publishes through :class:`~repro.obs.sink.ObsSink` — a null
object by default (:data:`~repro.obs.sink.NULL_SINK`), so nothing here
costs anything unless a run attaches a sink (``--metrics`` /
``--trace``, or ``python -m repro trace``).
"""

from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               metric_key, prometheus_text)
from repro.obs.issues import TraceEvent, TraceRecorder
from repro.obs.sink import NULL_SINK, Observer, ObsSink
from repro.obs.tracing import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
    "prometheus_text",
    "NULL_SINK",
    "Observer",
    "ObsSink",
    "Tracer",
    "TraceEvent",
    "TraceRecorder",
]
