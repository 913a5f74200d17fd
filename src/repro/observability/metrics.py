"""A dependency-free, thread-safe metrics registry.

Production autotuning services need the standard trio of instruments —
**counters** (monotone totals: requests served, evaluations run), **gauges**
(point-in-time values: queue depth, live campaigns), and **histograms**
(latency distributions over fixed buckets) — without pulling in a metrics
client library.  :class:`MetricsRegistry` implements all three over plain
dicts behind one lock, with:

* **labels** — every instrument takes keyword labels, so one metric name
  covers a family (``repro_http_requests_total{method="GET", status="200"}``);
* **snapshot / merge** — a registry serializes to a JSON-able snapshot and
  absorbs another registry's (or snapshot's) values, which is how per-worker
  registries roll up into one scrape target;
* **two renderings** — the Prometheus text exposition format (served by the
  crowd-tuning server's ``GET /metrics``) and plain JSON (for archiving next
  to benchmark results).

Counters are incremented directly (:meth:`MetricsRegistry.inc`); the
gauge and histogram handles (:class:`Gauge`, :class:`Histogram`) are thin
bound views.  All state lives in the registry, so handles are cheap to
create on the fly and safe to share across threads.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS"]

#: Default histogram buckets (seconds) — spans µs-scale predict calls to
#: minute-scale objective runs.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0, 300.0
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Internal key: (metric name, sorted (label, value) pairs).
_Key = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Mapping[str, Any]) -> _Key:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    items = []
    for k in sorted(labels):
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
        items.append((k, str(labels[k])))
    return name, tuple(items)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_labels(labels: Sequence[Tuple[str, str]], extra: str = "") -> str:
    parts = [f'{k}="{_escape(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(v: float) -> str:
    if v == float("inf"):
        return "+Inf"
    f = float(v)
    return str(int(f)) if f.is_integer() else repr(f)


class Gauge:
    """Bound handle to one gauge series in a registry."""

    __slots__ = ("_registry", "_name", "_labels")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: Dict[str, Any]):
        self._registry, self._name, self._labels = registry, name, labels

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self._registry.set_gauge(self._name, value, **self._labels)

    def add(self, value: float) -> None:
        """Add ``value`` (may be negative) to the gauge."""
        self._registry.add_gauge(self._name, value, **self._labels)


class Histogram:
    """Bound handle to one fixed-bucket histogram series in a registry."""

    __slots__ = ("_registry", "_name", "_labels")

    def __init__(self, registry: "MetricsRegistry", name: str, labels: Dict[str, Any]):
        self._registry, self._name, self._labels = registry, name, labels

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._registry.observe(self._name, value, **self._labels)


class MetricsRegistry:
    """Thread-safe container of counters, gauges, and histograms.

    All mutation goes through one lock; reads (:meth:`snapshot`,
    :meth:`render_text`) take the same lock and copy, so scrapes never see a
    half-updated histogram.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[_Key, float] = {}
        self._gauges: Dict[_Key, float] = {}
        # histogram series: key -> [bucket counts..., count, sum]
        self._hists: Dict[_Key, List[float]] = {}
        self._hist_buckets: Dict[str, Tuple[float, ...]] = {}

    # -- instrument factories ------------------------------------------------
    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Bound gauge handle."""
        _key(name, labels)
        return Gauge(self, name, labels)

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> Histogram:
        """Bound histogram handle with fixed ``buckets`` (default seconds scale)."""
        _key(name, labels)
        self._ensure_buckets(name, buckets)
        return Histogram(self, name, labels)

    # -- direct mutation -----------------------------------------------------
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Increment counter ``name`` by ``value`` (>= 0)."""
        if value < 0:
            raise ValueError("counters only go up")
        k = _key(name, labels)
        with self._lock:
            self._counters[k] = self._counters.get(k, 0.0) + float(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set gauge ``name`` to ``value``."""
        k = _key(name, labels)
        with self._lock:
            self._gauges[k] = float(value)

    def add_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Add ``value`` (may be negative) to gauge ``name``."""
        k = _key(name, labels)
        with self._lock:
            self._gauges[k] = self._gauges.get(k, 0.0) + float(value)

    def observe(
        self, name: str, value: float, buckets: Optional[Sequence[float]] = None, **labels: Any
    ) -> None:
        """Record one histogram observation."""
        k = _key(name, labels)
        bounds = self._ensure_buckets(name, buckets)
        v = float(value)
        with self._lock:
            series = self._hists.get(k)
            if series is None:
                series = self._hists[k] = [0.0] * (len(bounds) + 2)
            for i, b in enumerate(bounds):
                if v <= b:
                    series[i] += 1
                    break
            series[-2] += 1  # count (the implicit +Inf bucket is derived)
            series[-1] += v  # sum

    def _ensure_buckets(
        self, name: str, buckets: Optional[Sequence[float]]
    ) -> Tuple[float, ...]:
        with self._lock:
            bounds = self._hist_buckets.get(name)
            if bounds is None:
                bounds = tuple(sorted(float(b) for b in (buckets or DEFAULT_BUCKETS)))
                if not bounds:
                    raise ValueError("histogram needs at least one bucket")
                self._hist_buckets[name] = bounds
            elif buckets is not None and tuple(sorted(map(float, buckets))) != bounds:
                raise ValueError(f"histogram {name!r} already registered with other buckets")
            return bounds

    # -- point reads ---------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> float:
        """Current value of one counter series (0.0 if never incremented).

        Typed point reads keep tests and benchmark gates off string-matching
        the Prometheus rendering.
        """
        k = _key(name, labels)
        with self._lock:
            return self._counters.get(k, 0.0)

    def gauge_value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Current value of one gauge series (``default`` if never set)."""
        k = _key(name, labels)
        with self._lock:
            return self._gauges.get(k, default)

    # -- snapshot / merge ----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able copy of every series (the merge/export interchange form)."""
        with self._lock:
            return {
                "counters": [
                    {"name": n, "labels": dict(ls), "value": v}
                    for (n, ls), v in sorted(self._counters.items())
                ],
                "gauges": [
                    {"name": n, "labels": dict(ls), "value": v}
                    for (n, ls), v in sorted(self._gauges.items())
                ],
                "histograms": [
                    {
                        "name": n,
                        "labels": dict(ls),
                        "buckets": list(self._hist_buckets[n]),
                        "counts": list(s[:-2]),
                        "count": s[-2],
                        "sum": s[-1],
                    }
                    for (n, ls), s in sorted(self._hists.items())
                ],
            }

    def merge(self, other: Any) -> "MetricsRegistry":
        """Absorb another registry or snapshot: counters/histograms add,
        gauges take the other side's value (last writer wins)."""
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for c in snap.get("counters", ()):
            self.inc(c["name"], c["value"], **c["labels"])
        for g in snap.get("gauges", ()):
            self.set_gauge(g["name"], g["value"], **g["labels"])
        for h in snap.get("histograms", ()):
            bounds = self._ensure_buckets(h["name"], h["buckets"])
            if list(bounds) != [float(b) for b in h["buckets"]]:
                raise ValueError(f"histogram {h['name']!r}: bucket layouts differ")
            k = _key(h["name"], h["labels"])
            with self._lock:
                series = self._hists.get(k)
                if series is None:
                    series = self._hists[k] = [0.0] * (len(bounds) + 2)
                for i, c in enumerate(h["counts"]):
                    series[i] += c
                series[-2] += h["count"]
                series[-1] += h["sum"]
        return self

    # -- rendering -----------------------------------------------------------
    def render_text(self) -> str:
        """Prometheus text exposition (format version 0.0.4)."""
        snap = self.snapshot()
        lines: List[str] = []
        seen_type: set = set()

        def typeline(name: str, kind: str) -> None:
            if name not in seen_type:
                lines.append(f"# TYPE {name} {kind}")
                seen_type.add(name)

        for c in snap["counters"]:
            typeline(c["name"], "counter")
            labels = sorted(c["labels"].items())
            lines.append(f"{c['name']}{_fmt_labels(labels)} {_fmt_value(c['value'])}")
        for g in snap["gauges"]:
            typeline(g["name"], "gauge")
            labels = sorted(g["labels"].items())
            lines.append(f"{g['name']}{_fmt_labels(labels)} {_fmt_value(g['value'])}")
        for h in snap["histograms"]:
            typeline(h["name"], "histogram")
            labels = sorted(h["labels"].items())
            cum = 0.0
            for bound, n in zip(h["buckets"], h["counts"]):
                cum += n
                le = _fmt_labels(labels, extra=f'le="{_fmt_value(bound)}"')
                lines.append(f"{h['name']}_bucket{le} {_fmt_value(cum)}")
            inf = _fmt_labels(labels, extra='le="+Inf"')
            lines.append(f"{h['name']}_bucket{inf} {_fmt_value(h['count'])}")
            lines.append(f"{h['name']}_sum{_fmt_labels(labels)} {_fmt_value(h['sum'])}")
            lines.append(f"{h['name']}_count{_fmt_labels(labels)} {_fmt_value(h['count'])}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_json(self, indent: Optional[int] = None) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)
