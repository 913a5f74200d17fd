"""Observability: metrics, spans, and campaign telemetry.

The layer the tuner, the resilience machinery, and the crowd-tuning service
all report into — see :mod:`repro.observability.metrics` for the
counter/gauge/histogram registry (rendered as Prometheus text by the
server's ``GET /metrics``) and :mod:`repro.observability.spans` for the
nested, timestamped phase/model/backoff timers streamed into the campaign
log.  ``docs/OBSERVABILITY.md`` documents event kinds, span hierarchy, and
metric naming.
"""

from .metrics import DEFAULT_BUCKETS, Gauge, Histogram, MetricsRegistry
from .spans import (
    Span,
    SpanRecorder,
    SpanTimer,
    current_recorder,
    install_recorder,
    maybe_span,
    recording,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "SpanTimer",
    "current_recorder",
    "install_recorder",
    "maybe_span",
    "recording",
]
