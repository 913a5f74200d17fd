"""Outside-in layer trace for the end-to-end campaign benchmark.

The program under test carries no benchmark hooks.  :class:`LayerTrace`
replaces public entry points of each module with timing wrappers for the
length of one campaign, keeps the spans in memory, and restores the
originals afterwards.  Spans are ``(name, start, end, parent, campaign)``
rows; a span's *self time* is its duration minus the time its direct
children cover, so the layers' self times plus the root's own self time
(``unattributed``) add up to the campaign exactly.

Wrapping happens on the classes, so it reaches every caller no matter how
the class was imported.  ``scipy.optimize`` is reached through the
``optimize`` name inside :mod:`repro.core.lcm` only, which counts the
likelihood evaluations of LCM fits and nothing else.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: (span name, module, class, method names); ``tune`` is the root span
WRAPPED = [
    ("tune", "repro.core.mla", "GPTune", ("tune",)),
    ("sampling", "repro.core.sampling", "LHSSampler", ("sample",)),
    ("lcm.fit", "repro.core.lcm", "LCM", ("fit", "refit_at")),
    ("lcm.extend", "repro.core.lcm", "LCM", ("extend",)),
    ("lcm.predict", "repro.core.lcm", "LCM", ("predict", "predict_tasks")),
    ("sparse.fit", "repro.core.model.sparse_lcm", "SparseLCM", ("fit",)),
    ("sparse.extend", "repro.core.model.sparse_lcm", "SparseLCM", ("extend",)),
    ("sparse.predict", "repro.core.model.sparse_lcm", "SparseLCM", ("predict", "predict_tasks")),
    ("gp.fit", "repro.core.gp", "GaussianProcess", ("fit",)),
    ("search", "repro.core.search.pso", "ParticleSwarm", ("maximize",)),
    ("search", "repro.core.search.pso_batched", "BatchedParticleSwarm", ("maximize",)),
    ("search", "repro.core.search.nsga2", "NSGA2", ("ask", "tell", "minimize")),
    ("eval", "repro.core.problem", "TuningProblem", ("evaluate_outcome",)),
    ("engine.start", "repro.runtime.async_engine", "SimScheduler", ("start",)),
    ("engine.wait", "repro.runtime.async_engine", "SimScheduler", ("wait",)),
    ("checkpoint", "repro.runtime.resilience", "RunCheckpoint", ("save",)),
    ("store.append", "repro.service.store", "ShardedStore", ("append",)),
    ("store.records", "repro.service.store", "ShardedStore", ("records",)),
    ("client.append", "repro.service.client", "ServiceClient", ("append",)),
    ("client.records", "repro.service.client", "ServiceClient", ("records",)),
    ("cache.lookup", "repro.service.modelcache", "SurrogateCache", ("lookup",)),
    ("cache.put", "repro.service.modelcache", "SurrogateCache", ("put",)),
]

#: spans of the benchmark's own work inside the campaign (speed marks)
BENCH_SPAN = "bench.mark"


def _rows_predicted(args, kwargs) -> int:
    # predict(task, Xstar) or predict_tasks(tasks, Xstar)
    first = args[1] if len(args) > 1 else kwargs.get("task", kwargs.get("tasks"))
    xstar = np.asarray(args[2] if len(args) > 2 else kwargs["Xstar"])
    n_tasks = len(first) if isinstance(first, (list, tuple, np.ndarray)) else 1
    return n_tasks * int(xstar.shape[-2] if xstar.ndim > 1 else 1)


def _checkpoint_bytes(args, kwargs) -> int:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


#: per-span annotations taken from the call: name -> fn(args, kwargs, result)
_NOTES: Dict[str, Callable[[Any, Any, Any], Dict[str, Any]]] = {
    "lcm.predict": lambda a, k, out: {"rows": _rows_predicted(a, k)},
    "sparse.predict": lambda a, k, out: {"rows": _rows_predicted(a, k)},
    "eval": lambda a, k, out: {"failed": bool(out.failed)},
    "engine.wait": lambda a, k, out: {"completed": len(out)},
    "checkpoint": lambda a, k, out: {"bytes": _checkpoint_bytes(a, k)},
    "store.records": lambda a, k, out: {"rows": len(out)},
    "cache.lookup": lambda a, k, out: {"hit": out is not None},
}


class _CountingOptimize:
    """Stands in for ``scipy.optimize`` inside ``repro.core.lcm``: forwards
    everything, and sums ``nfev`` over ``minimize`` calls."""

    def __init__(self, module):
        self._module = module
        self.nfev = 0

    def __getattr__(self, name):
        return getattr(self._module, name)

    def minimize(self, *args, **kwargs):
        res = self._module.minimize(*args, **kwargs)
        self.nfev += int(res.nfev)
        return res


class LayerTrace:
    """Spans around the public entry points of every layer, for one campaign.

    Use as a context manager around ``GPTune.tune``; the wrappers exist only
    inside the ``with`` block.
    """

    def __init__(self, campaign: int = 0):
        self.campaign = int(campaign)
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._undo: List[tuple] = []
        self._optimize: Optional[_CountingOptimize] = None

    @property
    def nll_evals(self) -> int:
        """Likelihood evaluations of LCM fits (``nfev`` summed)."""
        return self._optimize.nfev if self._optimize is not None else 0

    # -- span bookkeeping ----------------------------------------------------
    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, name: str) -> int:
        """Start a span under the innermost open span of this thread."""
        stack = self._stack()
        idx = len(self.spans)
        self.spans.append({
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "campaign": self.campaign,
        })
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End the span ``idx`` (the innermost open one)."""
        self.spans[idx]["end"] = time.perf_counter()
        self._stack().pop()

    # -- wrapping ------------------------------------------------------------
    def _wrap(self, owner, attr: str, name: str) -> None:
        orig = owner.__dict__[attr]
        note = _NOTES.get(name)
        trace = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = trace.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                trace.close(idx)
            if note is not None:
                trace.spans[idx].update(note(args, kwargs, out))
            return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def __enter__(self) -> "LayerTrace":
        import importlib

        for name, module, cls, methods in WRAPPED:
            owner = getattr(importlib.import_module(module), cls)
            for attr in methods:
                self._wrap(owner, attr, name)
        lcm_module = importlib.import_module("repro.core.lcm")
        self._optimize = _CountingOptimize(lcm_module.optimize)
        lcm_module.optimize = self._optimize
        self._undo.append((lcm_module, "optimize", self._optimize._module))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write(self, path: str) -> None:
        """Append the spans as JSON lines."""
        with open(path, "a", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps(dict(span, id=i)) + "\n")


def self_times(spans: List[Dict[str, Any]]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def root_seconds(spans: List[Dict[str, Any]]) -> float:
    """The root span's duration minus the benchmark's speed marks, which
    are recorded only while the root span is open."""
    root = next(i for i, s in enumerate(spans) if s["name"] == "tune")
    marks = sum(s["end"] - s["start"] for s in spans if s["name"] == BENCH_SPAN)
    return spans[root]["end"] - spans[root]["start"] - marks


def layer_metrics(spans: List[Dict[str, Any]], nll_evals: int, events,
                  server: Dict[str, float], makespan_ratio: float) -> Dict[str, float]:
    """Per-layer metrics of one traced campaign.

    Busy times are shares of the campaign (:func:`root_seconds`), so a
    layer that a workload never calls reads 0 rather than a time.
    ``server`` holds the service's end-of-run ``/metrics`` totals (empty
    when no service ran).
    """
    selfs = self_times(spans)
    root = next(i for i, s in enumerate(spans) if s["name"] == "tune")
    campaign = root_seconds(spans)

    def calls(*names):
        return float(sum(1 for s in spans if s["name"] in names))

    def share(*names):
        return sum(t for s, t in zip(spans, selfs) if s["name"] in names) / campaign

    def total(name, field):
        return float(sum(s.get(field, 0) for s in spans if s["name"] == name))

    inflight, started, done = [], 0, 0
    for s in sorted((s for s in spans if s["name"] in ("engine.start", "engine.wait")),
                    key=lambda s: s["start"]):
        if s["name"] == "engine.start":
            started += 1
        else:
            inflight.append(started - done)
            done += s["completed"]
    append_s = sum(s["end"] - s["start"] for s in spans if s["name"] == "client.append")
    commits = server.get("commits", 0.0)
    return {
        "lcm.fit.calls": calls("lcm.fit"),
        "lcm.fit.self_frac": share("lcm.fit"),
        "lcm.lbfgs_starts": float(events.total("model-fit", "n_starts")),
        "lcm.nll_evals": float(nll_evals),
        "lcm.extend.calls": calls("lcm.extend"),
        "lcm.extend.self_frac": share("lcm.extend"),
        "lcm.predict.calls": calls("lcm.predict"),
        "lcm.predict.rows": total("lcm.predict", "rows"),
        "lcm.predict.self_frac": share("lcm.predict"),
        "sparse.fit.calls": calls("sparse.fit"),
        "sparse.fit.self_frac": share("sparse.fit"),
        "sparse.fit.total_frac": sum(
            s["end"] - s["start"] for s in spans if s["name"] == "sparse.fit"
        ) / campaign,
        "sparse.extend.self_frac": share("sparse.extend"),
        "sparse.predict.calls": calls("sparse.predict"),
        "sparse.predict.self_frac": share("sparse.predict"),
        "gp.fit.calls": calls("gp.fit"),
        "search.calls": calls("search"),
        "search.self_frac": share("search"),
        "sampling.calls": calls("sampling"),
        "sampling.self_frac": share("sampling"),
        "eval.calls": calls("eval"),
        "eval.self_frac": share("eval"),
        "eval.failed": float(sum(1 for s in spans if s.get("failed"))),
        "engine.starts": calls("engine.start"),
        "engine.waits": calls("engine.wait"),
        "engine.self_frac": share("engine.start", "engine.wait"),
        "engine.inflight_mean": float(np.mean(inflight)) if inflight else 0.0,
        "engine.makespan_ratio": makespan_ratio,
        "checkpoint.calls": calls("checkpoint"),
        "checkpoint.self_frac": share("checkpoint"),
        "checkpoint.bytes": total("checkpoint", "bytes"),
        "store.append.calls": calls("store.append"),
        "store.append.self_frac": share("store.append"),
        "store.records.rows": total("store.records", "rows"),
        "store.records.self_frac": share("store.records"),
        "client.append.calls": calls("client.append"),
        "client.append.self_frac": share("client.append"),
        "client.append.wait_frac": max(0.0, append_s - server.get("append_s", 0.0)) / campaign,
        "server.request_frac": server.get("request_s", 0.0) / campaign,
        "server.commits": commits,
        "server.records_per_commit": server.get("records", 0.0) / commits if commits else 0.0,
        "server.flush_frac": server.get("flush_s", 0.0) / campaign,
        "cache.lookup.calls": calls("cache.lookup"),
        "cache.hits": float(events.count("model-cache-hit")),
        "cache.self_frac": share("cache.lookup", "cache.put"),
        "unattributed_frac": selfs[root] / campaign,
    }
