"""Event tracing for the simulated runtime.

Real MPI work is debugged with timeline tools (Vampir, HPCToolkit); the
simulated runtime deserves the same.  A :class:`Tracer` collects per-rank
``(t_start, t_end, kind, detail)`` events — instrumented jobs record their
compute and communication phases against the virtual clocks — and renders a
text Gantt chart plus summary statistics (compute/communication split per
rank, critical-path rank).

Instrumentation is opt-in and zero-cost when absent: wrap a rank's
communicator with :func:`traced` inside the SPMD function.  (The tuner's
own campaign log is :mod:`repro.observability.events`.)
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Any, Dict, List, Optional

from .mpi import SimComm

__all__ = ["TraceEvent", "Tracer", "traced"]


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
