"""Observability: metrics, spans, and campaign telemetry.

The layer the tuner, the resilience machinery, and the crowd-tuning service
all report into — see :mod:`repro.observability.events` for the campaign
log (every retry, downgrade, checkpoint and span as a timestamped event,
streamable to JSONL), :mod:`repro.observability.metrics` for the
counter/gauge/histogram registry (rendered as Prometheus text by the
server's ``GET /metrics``) and :mod:`repro.observability.spans` for the
nested, timestamped phase/model/backoff timers streamed into the campaign
log.  ``docs/OBSERVABILITY.md`` documents event kinds, span hierarchy, and
metric naming.
"""

from .events import CampaignEvent, CampaignLog, JsonlEventWriter
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
    "CampaignEvent",
    "CampaignLog",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "JsonlEventWriter",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "SpanTimer",
    "current_recorder",
    "install_recorder",
    "maybe_span",
    "recording",
]
