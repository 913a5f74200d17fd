"""Tests for the simulated-runtime tracer (repro.runtime.trace)."""

import pytest

from repro.runtime import Machine, run_spmd
from repro.runtime.trace import TraceEvent, Tracer, traced

MACH = Machine(nodes=2, cores_per_node=4)


def _traced_job(tracer):
    def fn(comm):
        c = traced(comm, tracer)
        c.compute(1.0 * (comm.rank + 1))
        c.barrier()
        if comm.rank == 0:
            c.send("payload", dest=1)
        elif comm.rank == 1:
            c.recv(source=0)
        c.allreduce(comm.rank)

    return fn


class TestTraceEvent:
    def test_duration(self):
        e = TraceEvent(0, 1.0, 3.5, "compute")
        assert e.duration == 2.5

    def test_negative_duration_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError):
            t.record(TraceEvent(0, 2.0, 1.0, "compute"))


class TestTracer:
    def test_events_collected_per_rank(self):
        tracer = Tracer()
        run_spmd(2, _traced_job(tracer), machine=MACH)
        ranks = {e.rank for e in tracer.events}
        assert ranks == {0, 1}
        kinds = {e.kind for e in tracer.events}
        assert {"compute", "collective"} <= kinds
        assert "send" in kinds and "recv" in kinds

    def test_events_sorted(self):
        tracer = Tracer()
        run_spmd(2, _traced_job(tracer), machine=MACH)
        ev = tracer.events
        for a, b in zip(ev, ev[1:]):
            assert (a.rank, a.t_start) <= (b.rank, b.t_start)

    def test_rank_summary_split(self):
        tracer = Tracer()
        run_spmd(2, _traced_job(tracer), machine=MACH)
        summary = tracer.rank_summary()
        assert summary[0]["compute"] == pytest.approx(1.0)
        assert summary[1]["compute"] == pytest.approx(2.0)
        # rank 0 waits at the barrier for the slower rank 1
        assert summary[0]["comm"] >= 1.0

    def test_critical_rank(self):
        tracer = Tracer()
        run_spmd(2, _traced_job(tracer), machine=MACH)
        assert tracer.critical_rank() in (0, 1)
        assert Tracer().critical_rank() is None

    def test_gantt_rendering(self):
        tracer = Tracer()
        run_spmd(2, _traced_job(tracer), machine=MACH)
        chart = tracer.gantt(width=40)
        lines = chart.splitlines()
        assert lines[0].startswith("rank   0 |")
        assert "#" in chart and "~" in chart
        assert Tracer().gantt() == "(no events)"

    def test_collectives_recorded(self):
        tracer = Tracer()

        def fn(comm):
            c = traced(comm, tracer)
            c.bcast("x", root=0)
            c.gather(comm.rank, root=0)
            c.allgather(comm.rank)
            c.scatter([10, 11] if comm.rank == 0 else None, root=0)
            c.reduce(comm.rank, root=0)

        run_spmd(2, fn, machine=MACH)
        names = ["bcast", "gather", "allgather", "scatter", "reduce"]
        for rank in (0, 1):
            ev = [e for e in tracer.events if e.rank == rank]
            assert [e.detail for e in ev] == names
            assert all(e.kind == "collective" for e in ev)

    def test_proxy_passthrough(self):
        tracer = Tracer()

        def fn(comm):
            c = traced(comm, tracer)
            return (c.Get_rank(), c.Get_size())  # untraced attribute access

        results, _ = run_spmd(2, fn, machine=MACH)
        assert results == [(0, 2), (1, 2)]
