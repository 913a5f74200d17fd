"""Event tracing for the simulated runtime.

Real MPI work is debugged with timeline tools (Vampir, HPCToolkit); the
simulated runtime deserves the same.  A :class:`Tracer` collects per-rank
``(t_start, t_end, kind, detail)`` events — instrumented jobs record their
compute and communication phases against the virtual clocks — and renders a
text Gantt chart plus summary statistics (compute/communication split per
rank, critical-path rank).

Instrumentation is opt-in and zero-cost when absent: wrap a rank's
communicator with :func:`traced` inside the SPMD function.

Separately, :class:`CampaignLog` records *tuning-campaign lifecycle* events —
evaluation retries, timeouts, model downgrades, worker deaths, checkpoints —
so a production run leaves an auditable trail of every resilience action the
driver took (see :mod:`repro.runtime.resilience`).
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from .mpi import SimComm

__all__ = [
    "CampaignEvent",
    "CampaignLog",
    "JsonlEventWriter",
    "TraceEvent",
    "Tracer",
    "traced",
]


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


@dataclasses.dataclass(frozen=True)
class TraceEvent:
    """One traced interval on one rank's virtual timeline."""

    rank: int
    t_start: float
    t_end: float
    kind: str  # "compute" | "send" | "recv" | "collective"
    detail: str = ""

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.t_end - self.t_start


class Tracer:
    """Thread-safe event collector with text rendering."""

    def __init__(self):
        self._events: List[TraceEvent] = []
        self._lock = threading.Lock()

    def record(self, event: TraceEvent) -> None:
        """Append one event (called by instrumented communicators)."""
        if event.t_end < event.t_start:
            raise ValueError("event ends before it starts")
        with self._lock:
            self._events.append(event)

    @property
    def events(self) -> List[TraceEvent]:
        """All events, ordered by (rank, start time)."""
        with self._lock:
            return sorted(self._events, key=lambda e: (e.rank, e.t_start, e.t_end))

    # -- analysis ------------------------------------------------------------
    def rank_summary(self) -> Dict[int, Dict[str, float]]:
        """Per-rank totals: time in compute vs communication."""
        out: Dict[int, Dict[str, float]] = {}
        for e in self.events:
            bucket = out.setdefault(e.rank, {"compute": 0.0, "comm": 0.0})
            key = "compute" if e.kind == "compute" else "comm"
            bucket[key] += e.duration
        return out

    def critical_rank(self) -> Optional[int]:
        """The rank whose timeline ends last (the makespan owner)."""
        ev = self.events
        if not ev:
            return None
        return max(ev, key=lambda e: e.t_end).rank

    def gantt(self, width: int = 60) -> str:
        """Text Gantt chart: one row per rank, '#' compute, '~' communication."""
        ev = self.events
        if not ev:
            return "(no events)"
        t_max = max(e.t_end for e in ev) or 1.0
        ranks = sorted({e.rank for e in ev})
        lines = []
        for r in ranks:
            row = [" "] * width
            for e in ev:
                if e.rank != r or e.duration <= 0:
                    continue
                a = min(width - 1, int(e.t_start / t_max * width))
                b = min(width, max(a + 1, int(e.t_end / t_max * width)))
                ch = "#" if e.kind == "compute" else "~"
                for k in range(a, b):
                    row[k] = ch
            lines.append(f"rank {r:>3} |{''.join(row)}|")
        lines.append(f"          0{' ' * (width - 10)}{t_max:.4g}s")
        return "\n".join(lines)


class _TracedComm:
    """Proxy around :class:`SimComm` recording events into a tracer."""

    def __init__(self, comm: SimComm, tracer: Tracer):
        self._comm = comm
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        return getattr(self._comm, name)

    def _timed(self, kind: str, detail: str, fn, *args, **kw):
        t0 = self._comm.clock.now
        out = fn(*args, **kw)
        self._tracer.record(
            TraceEvent(self._comm.rank, t0, self._comm.clock.now, kind, detail)
        )
        return out

    # -- instrumented operations -------------------------------------------
    def compute(self, seconds: float) -> None:
        self._timed("compute", f"{seconds:.3g}s", self._comm.compute, seconds)

    def send(self, obj, dest: int, tag: int = 0) -> None:
        self._timed("send", f"->{dest}", self._comm.send, obj, dest, tag)

    def recv(self, source: int, tag: int = 0):
        return self._timed("recv", f"<-{source}", self._comm.recv, source, tag)

    def bcast(self, obj, root: int = 0):
        return self._timed("collective", "bcast", self._comm.bcast, obj, root)

    def gather(self, obj, root: int = 0):
        return self._timed("collective", "gather", self._comm.gather, obj, root)

    def allgather(self, obj):
        return self._timed("collective", "allgather", self._comm.allgather, obj)

    def scatter(self, objs, root: int = 0):
        return self._timed("collective", "scatter", self._comm.scatter, objs, root)

    def reduce(self, obj, op=None, root: int = 0):
        return self._timed("collective", "reduce", self._comm.reduce, obj, op, root)

    def allreduce(self, obj, op=None):
        return self._timed("collective", "allreduce", self._comm.allreduce, obj, op)

    def barrier(self) -> None:
        self._timed("collective", "barrier", self._comm.barrier)


def traced(comm: SimComm, tracer: Tracer) -> _TracedComm:
    """Wrap a communicator so its operations are recorded in ``tracer``."""
    return _TracedComm(comm, tracer)
