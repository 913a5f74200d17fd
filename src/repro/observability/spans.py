"""Timestamped, nestable spans for campaign-phase timing.

The paper's Table 3 breaks tuner overhead into sampling / modeling / search
/ evaluation phases; this module makes that breakdown observable in a *live*
campaign rather than only as post-hoc ``stats`` sums.  A :class:`SpanTimer`
is a context manager stamping **wall-clock** (``time.time``, for correlating
with external logs) and **monotonic** (``time.perf_counter``, for correct
durations across clock adjustments) times at entry, and recording a finished
:class:`Span` at exit.  Spans nest: each records the ``span_id`` of the
enclosing span on the same thread, so ``model.fit`` appears inside
``phase.modeling`` and ``model.predict_tasks`` inside ``phase.search``.

Instrumented code never talks to a recorder directly — it calls
:func:`maybe_span`, which returns a shared no-op context manager unless a
:class:`SpanRecorder` has been installed (:func:`install_recorder`).  The
disabled path is one module-global read plus a no-op ``with``, so telemetry
off costs nothing measurable even in the ``LCM.predict_tasks`` hot loop.

High-frequency spans (thousands of ``model.predict_tasks`` calls per search
phase) pass ``aggregate=True``: they fold into a per-name (count, total)
accumulator and a metrics histogram instead of appending one event each;
:meth:`SpanRecorder.flush` emits the accumulated totals as single
``"span-summary"`` events.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Span",
    "SpanRecorder",
    "SpanTimer",
    "current_recorder",
    "install_recorder",
    "maybe_span",
    "recording",
]


@dataclasses.dataclass(frozen=True)
class Span:
    """One finished timed interval.

    ``t_wall``/``t_mono`` are the wall-clock (epoch seconds) and monotonic
    stamps taken at entry; ``dur_s`` is the monotonic duration.  ``parent_id``
    is the ``span_id`` of the span that was open on the same thread when this
    one started (``None`` at top level).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    t_wall: float
    t_mono: float
    dur_s: float
    fields: Dict[str, Any] = dataclasses.field(default_factory=dict)


class _NullSpan:
    """Shared no-op stand-in returned when no recorder is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def annotate(self, **fields: Any) -> None:
        """Discard annotations (telemetry is off)."""


_NULL = _NullSpan()


class SpanTimer:
    """Context manager timing one span; created via :meth:`SpanRecorder.span`."""

    __slots__ = ("_recorder", "name", "aggregate", "fields", "span_id", "parent_id",
                 "t_wall", "t_mono")

    def __init__(self, recorder: "SpanRecorder", name: str, aggregate: bool,
                 fields: Dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.aggregate = aggregate
        self.fields = fields
        self.span_id: int = -1
        self.parent_id: Optional[int] = None
        self.t_wall = 0.0
        self.t_mono = 0.0

    def annotate(self, **fields: Any) -> None:
        """Attach extra structured fields mid-span (e.g. a result count)."""
        self.fields.update(fields)

    def __enter__(self) -> "SpanTimer":
        self._recorder._open(self)
        self.t_wall = time.time()
        self.t_mono = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        dur = time.perf_counter() - self.t_mono
        self._recorder._close(self, dur)
        return False


class SpanRecorder:
    """Collects finished spans, mirroring them into a log and a registry.

    Parameters
    ----------
    log:
        Optional :class:`~repro.observability.CampaignLog` (anything with
        ``record(kind, detail, **fields)``): each finished span appends a
        ``"span"`` event carrying the stamps in its structured fields, so the
        campaign's JSONL telemetry holds events *and* timings in one stream.
    metrics:
        Optional :class:`~repro.observability.metrics.MetricsRegistry`: every
        span observes ``repro_span_seconds{name=...}``.

    Nesting state is thread-local, so spans opened by executor worker
    threads during concurrent evaluations nest correctly per thread.
    """

    def __init__(self, log: Any = None, metrics: Any = None):
        self.log = log
        self.metrics = metrics
        self._spans: List[Span] = []
        self._agg: Dict[str, List[float]] = {}  # name -> [count, total_s]
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._local = threading.local()

    # -- SpanTimer plumbing --------------------------------------------------
    def _stack(self) -> List[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, timer: SpanTimer) -> None:
        stack = self._stack()
        timer.parent_id = stack[-1] if stack else None
        timer.span_id = next(self._ids)
        stack.append(timer.span_id)

    def _close(self, timer: SpanTimer, dur: float) -> None:
        stack = self._stack()
        if stack and stack[-1] == timer.span_id:
            stack.pop()
        if self.metrics is not None:
            self.metrics.observe("repro_span_seconds", dur, span=timer.name)
        if timer.aggregate:
            with self._lock:
                acc = self._agg.setdefault(timer.name, [0.0, 0.0])
                acc[0] += 1
                acc[1] += dur
            return
        span = Span(
            name=timer.name,
            span_id=timer.span_id,
            parent_id=timer.parent_id,
            t_wall=timer.t_wall,
            t_mono=timer.t_mono,
            dur_s=dur,
            fields=dict(timer.fields),
        )
        with self._lock:
            self._spans.append(span)
        if self.log is not None:
            self.log.record(
                "span",
                f"{span.name} {dur * 1e3:.3f}ms",
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                t_wall=span.t_wall,
                t_mono=span.t_mono,
                dur_s=span.dur_s,
                **timer.fields,
            )

    # -- public API ----------------------------------------------------------
    def span(self, name: str, aggregate: bool = False, **fields: Any) -> SpanTimer:
        """Open a new (nested) span; use as ``with recorder.span("x"): ...``."""
        return SpanTimer(self, str(name), bool(aggregate), dict(fields))

    @property
    def spans(self) -> List[Span]:
        """Finished non-aggregated spans in completion order (copy)."""
        with self._lock:
            return list(self._spans)

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """Per-name ``(count, total seconds)`` over all finished spans."""
        out: Dict[str, List[float]] = {}
        for s in self.spans:
            acc = out.setdefault(s.name, [0, 0.0])
            acc[0] += 1
            acc[1] += s.dur_s
        with self._lock:
            for name, (n, tot) in self._agg.items():
                acc = out.setdefault(name, [0, 0.0])
                acc[0] += n
                acc[1] += tot
        return {k: (int(n), float(t)) for k, (n, t) in out.items()}

    def flush(self) -> None:
        """Emit aggregated spans as ``"span-summary"`` events and reset them."""
        with self._lock:
            agg, self._agg = self._agg, {}
        if self.log is None:
            return
        for name in sorted(agg):
            n, tot = agg[name]
            self.log.record(
                "span-summary",
                f"{name} count={int(n)} total={tot:.6g}s",
                name=name,
                count=int(n),
                total_s=tot,
            )


# -- module-global recorder ---------------------------------------------------
_active: Optional[SpanRecorder] = None
_install_lock = threading.Lock()


def install_recorder(recorder: Optional[SpanRecorder]) -> Optional[SpanRecorder]:
    """Install ``recorder`` as the process-wide span sink; returns the
    previous one so callers can restore it (``None`` uninstalls)."""
    global _active
    with _install_lock:
        prev, _active = _active, recorder
        return prev


def current_recorder() -> Optional[SpanRecorder]:
    """The active recorder, or ``None`` when telemetry is off."""
    return _active


def maybe_span(name: str, aggregate: bool = False, **fields: Any) -> Any:
    """A span on the active recorder, or a shared no-op when telemetry is off.

    This is the only call sites ever make; its disabled cost is one global
    read, so instrumentation can live on hot paths.
    """
    rec = _active
    if rec is None:
        return _NULL
    return rec.span(name, aggregate=aggregate, **fields)


@contextmanager
def recording(recorder: SpanRecorder):
    """Scope helper: install ``recorder`` for the block, restore on exit."""
    prev = install_recorder(recorder)
    try:
        yield recorder
    finally:
        recorder.flush()
        install_recorder(prev)
