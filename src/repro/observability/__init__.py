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

The names below resolve on first use (PEP 562): the history server needs
only :class:`MetricsRegistry`, and does not import the campaign log or the
span recorder.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".events": ("CampaignEvent", "CampaignLog", "JsonlEventWriter"),
    ".metrics": ("DEFAULT_BUCKETS", "Gauge", "Histogram", "MetricsRegistry"),
    ".spans": (
        "Span",
        "SpanRecorder",
        "SpanTimer",
        "current_recorder",
        "install_recorder",
        "maybe_span",
        "recording",
    ),
})
