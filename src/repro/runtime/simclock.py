"""Virtual clocks for the simulated-MPI runtime.

Each simulated MPI rank owns a :class:`SimClock` that accumulates *simulated*
seconds — compute time charged by cost models plus communication time charged
by the collectives.  The "wall clock" of a simulated parallel program is the
maximum over its ranks' clocks at completion, exactly how makespan is defined
for a bulk-synchronous code.
"""

from __future__ import annotations

__all__ = ["SimClock"]


class SimClock:
    """A monotonically advancing virtual clock (seconds, float)."""

    def __init__(self, start: float = 0.0):
        self._t = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._t

    def advance(self, dt: float) -> float:
        """Advance by ``dt >= 0`` seconds; returns the new time."""
        dt = float(dt)
        if dt < 0:
            raise ValueError(f"cannot advance time by {dt}")
        self._t += dt
        return self._t

    def advance_to(self, t: float) -> float:
        """Advance to absolute time ``t`` (no-op if already past)."""
        self._t = max(self._t, float(t))
        return self._t

    def reset(self, t: float = 0.0) -> None:
        """Reset to an absolute time (test helper)."""
        self._t = float(t)
