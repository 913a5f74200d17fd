"""Campaign event log: the tuner's auditable record of what it did.

:class:`CampaignLog` records *tuning-campaign lifecycle* events —
evaluation retries, timeouts, model downgrades, worker deaths, checkpoints,
phase spans — so a production run leaves an auditable trail of every action
the driver took (see :mod:`repro.runtime.resilience` and
:mod:`repro.observability.spans`).  A :class:`JsonlEventWriter` sink streams
the log to a JSONL telemetry file as it grows, and
:meth:`CampaignLog.load_jsonl` reads one back for ``repro report``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Any, Callable, Dict, List, Mapping

__all__ = ["CampaignEvent", "CampaignLog", "JsonlEventWriter"]


@dataclasses.dataclass(frozen=True)
class CampaignEvent:
    """One recorded campaign lifecycle event.

    ``seq`` is the 0-based record order; ``kind`` is a short tag.  The
    resilience layer records ``"retry"``, ``"timeout"``, ``"exception"``,
    ``"nonfinite"``, ``"eval-failure"``, ``"worker-death"``, ``"checkpoint"``
    and ``"resume"``; the tuning-history service adds ``"service-append"``,
    ``"service-compact"`` and ``"service-torn-line"`` (storage layer); the
    modeling phase records ``"model-fit"`` (with its ``n_starts=`` multi-start
    count), ``"model-extend"`` (posterior extended in place with
    ``n_starts=0`` — see ``Options.refit_interval``), ``"model-downgrade"``,
    ``"model-cache-hit"`` and ``"model-cache-store"`` (surrogate cache); and
    the observability layer records ``"span"`` / ``"span-summary"`` (phase
    timings, see :mod:`repro.observability.spans`) plus one final ``"stats"``
    event carrying the campaign's phase totals.

    ``t_wall`` (epoch seconds) and ``t_mono`` (``time.perf_counter``) stamp
    when the event was recorded; ``fields`` carries structured annotations
    (e.g. ``{"n_starts": 3}``) that take precedence over parsing the
    human-readable ``detail`` string in :meth:`CampaignLog.total`.
    """

    seq: int
    kind: str
    detail: str = ""
    t_wall: float = 0.0
    t_mono: float = 0.0
    fields: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (the JSONL telemetry line)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "detail": self.detail,
            "t_wall": self.t_wall,
            "t_mono": self.t_mono,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CampaignEvent":
        """Inverse of :meth:`to_dict`; tolerates pre-timestamp payloads."""
        if "kind" not in raw:
            raise ValueError("event payload lacks a 'kind'")
        return cls(
            seq=int(raw.get("seq", 0)),
            kind=str(raw["kind"]),
            detail=str(raw.get("detail", "")),
            t_wall=float(raw.get("t_wall", 0.0)),
            t_mono=float(raw.get("t_mono", 0.0)),
            fields=dict(raw.get("fields") or {}),
        )


class CampaignLog:
    """Thread-safe append-only log of campaign events.

    Optional sinks (:meth:`add_sink`) observe every event as it is recorded
    — the streaming-telemetry hook (`repro tune --telemetry out.jsonl`
    attaches a :class:`JsonlEventWriter`).  Sinks run under the log's lock so
    their output preserves ``seq`` order; keep them fast and non-reentrant.
    """

    def __init__(self):
        self._events: List[CampaignEvent] = []
        self._lock = threading.Lock()
        self._sinks: List[Callable[[CampaignEvent], None]] = []

    def add_sink(self, sink: Callable[[CampaignEvent], None]) -> None:
        """Attach a callable observing every subsequently recorded event."""
        with self._lock:
            self._sinks.append(sink)

    def record(self, kind: str, detail: str = "", **fields: Any) -> CampaignEvent:
        """Append one event (stamped now) and return it.

        Keyword arguments become the event's structured ``fields``; numeric
        annotations recorded here are authoritative for :meth:`total`, the
        ``detail`` string stays purely human-readable.
        """
        with self._lock:
            ev = CampaignEvent(
                len(self._events),
                str(kind),
                str(detail),
                t_wall=time.time(),
                t_mono=time.perf_counter(),
                fields=fields,
            )
            self._events.append(ev)
            for sink in self._sinks:
                sink(ev)
        return ev

    @property
    def events(self) -> List[CampaignEvent]:
        """All events in record order (copy)."""
        with self._lock:
            return list(self._events)

    def of_kind(self, kind: str) -> List[CampaignEvent]:
        """Events with the given kind tag."""
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        """Event count per kind."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def count(self, kind: str) -> int:
        """Number of events with one kind tag."""
        return len(self.of_kind(kind))

    def total(self, kind: str, field: str) -> int:
        """Sum an integer ``field`` annotation over one kind's events.

        E.g. ``log.total("model-fit", "n_starts")`` is the campaign's total
        L-BFGS multi-start count — the quantity the surrogate cache exists
        to shrink.  A structured entry in the event's ``fields`` dict takes
        precedence; only events without one fall back to parsing a
        ``field=N`` token out of the ``detail`` string (trailing punctuation
        like ``"n_starts=8,"`` is stripped before conversion).  Events
        lacking the annotation in either form contribute 0.
        """
        total = 0
        needle = field + "="
        for e in self.of_kind(kind):
            if field in e.fields:
                try:
                    total += int(float(e.fields[field]))
                    continue
                except (TypeError, ValueError):
                    pass
            for tok in e.detail.split():
                if tok.startswith(needle):
                    try:
                        total += int(float(tok[len(needle):].rstrip(",;:.)]}")))
                    except ValueError:
                        pass
                    break
        return total

    # -- JSONL export / import ----------------------------------------------
    def dump_jsonl(self, path: str) -> int:
        """Write every event as one JSON object per line; returns the count."""
        ev = self.events
        with open(path, "w", encoding="utf-8") as fh:
            for e in ev:
                fh.write(json.dumps(e.to_dict()) + "\n")
        return len(ev)

    @classmethod
    def load_jsonl(cls, path: str) -> "CampaignLog":
        """Rebuild a log from a JSONL telemetry file (see :meth:`dump_jsonl`).

        Events keep their recorded timestamps and fields; ``seq`` is
        reassigned to the file order.  Blank lines are skipped; a malformed
        line raises ``ValueError`` naming the path and line number.
        """
        log = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    ev = CampaignEvent.from_dict(json.loads(line))
                except (json.JSONDecodeError, ValueError, TypeError) as e:
                    raise ValueError(f"{path}:{ln}: bad telemetry line ({e})") from e
                with log._lock:
                    log._events.append(dataclasses.replace(ev, seq=len(log._events)))
        return log


class JsonlEventWriter:
    """Streaming sink writing each :class:`CampaignEvent` as a JSONL line.

    Attach to a log via :meth:`CampaignLog.add_sink`; each event is written
    and flushed as it is recorded, so a killed campaign leaves a telemetry
    file complete up to its last event (the ``--telemetry`` CLI flag).
    """

    def __init__(self, path: str):
        self.path = path
        self.count = 0
        self._fh = open(path, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def __call__(self, event: CampaignEvent) -> None:
        """Write one event (called by the log under its lock)."""
        with self._lock:
            if self._fh is None:
                return
            self._fh.write(json.dumps(event.to_dict()) + "\n")
            self._fh.flush()
            self.count += 1

    def close(self) -> None:
        """Flush and close the file (idempotent)."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
