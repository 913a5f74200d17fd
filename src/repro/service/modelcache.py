"""Surrogate-model cache: reuse fitted LCM hyperparameters across campaigns.

The modeling phase dominates GPTune's tuner overhead (Table 3: multi-start
L-BFGS over the LCM likelihood).  Yet a resumed campaign, or a neighboring
one crowd-tuning against the same shared archive, refits from scratch on
(almost) the same data.  :class:`SurrogateCache` persists each successful
fit's flat hyperparameter vector θ keyed by the **content fingerprints** of
the records it was fitted on (:func:`repro.service.store.content_fingerprint`
— rid-independent, so two campaigns holding equal evaluations hit the same
entry).

Lookup matches loosely on purpose: a cached fit is reusable when its data is
a **subset or superset** of the querying campaign's data (same problem,
objective, and model shape).  The driver then warm-starts L-BFGS from the
cached θ with a *single* start instead of ``n_start`` cold multi-starts —
the posterior landscape barely moves when a handful of points are added, so
the cached optimum is an excellent initial iterate.

The cache is an append-only JSONL file guarded by the same advisory lock
machinery as the record shards, so concurrent campaigns can share one cache
file; :meth:`compact` bounds its growth by keeping the freshest entries.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence

from ..runtime.durable import fsync_dir
from .store import ShardLock

__all__ = ["CachedFit", "SurrogateCache"]


class CachedFit:
    """One cached surrogate fit.

    Attributes
    ----------
    problem, objective:
        What the surrogate modeled.
    n_tasks, n_dims, n_latent:
        LCM shape (δ, input dimension incl. model features, Q); the flat θ
        is only meaningful for an identical shape.
    theta:
        The optimized flat hyperparameter vector.
    log_likelihood:
        The fit's log marginal likelihood (diagnostic).
    fingerprints:
        Content fingerprints of the records the fit saw.
    backend, n_inducing:
        The surrogate backend that produced θ and (for the sparse backend)
        its inducing-set size.  Both are part of the entry's identity and
        the lookup filter: a sparse fit's θ is optimized against the
        Nyström likelihood on M inducing rows and must never warm-start an
        exact fit (or a sparse fit with a different M), and vice versa.
        Rows written before this field existed load as
        ``("exact-lcm", 0)`` — exactly what produced them.
    """

    def __init__(
        self,
        problem: str,
        objective: int,
        n_tasks: int,
        n_dims: int,
        n_latent: int,
        theta: Sequence[float],
        log_likelihood: float,
        fingerprints: Iterable[str],
        backend: str = "exact-lcm",
        n_inducing: int = 0,
    ):
        self.problem = str(problem)
        self.objective = int(objective)
        self.n_tasks = int(n_tasks)
        self.n_dims = int(n_dims)
        self.n_latent = int(n_latent)
        self.theta = [float(v) for v in theta]
        self.log_likelihood = float(log_likelihood)
        self.fingerprints: FrozenSet[str] = frozenset(str(f) for f in fingerprints)
        self.backend = str(backend)
        self.n_inducing = int(n_inducing)

    @property
    def key(self) -> str:
        """Stable identity of this entry (backend + shape + data fingerprints)."""
        h = hashlib.sha1()
        h.update(
            f"{self.problem}|{self.objective}|{self.n_tasks}|{self.n_dims}"
            f"|{self.n_latent}|{self.backend}|{self.n_inducing}".encode()
        )
        for fp in sorted(self.fingerprints):
            h.update(fp.encode("ascii"))
        return h.hexdigest()

    def to_json(self) -> Dict[str, Any]:
        """The entry as one JSON-serializable cache row."""
        return {
            "problem": self.problem,
            "objective": self.objective,
            "n_tasks": self.n_tasks,
            "n_dims": self.n_dims,
            "n_latent": self.n_latent,
            "theta": self.theta,
            "log_likelihood": self.log_likelihood,
            "fingerprints": sorted(self.fingerprints),
            "backend": self.backend,
            "n_inducing": self.n_inducing,
        }

    @classmethod
    def from_json(cls, row: Mapping[str, Any]) -> "CachedFit":
        return cls(
            row["problem"],
            row["objective"],
            row["n_tasks"],
            row["n_dims"],
            row["n_latent"],
            row["theta"],
            row["log_likelihood"],
            row["fingerprints"],
            # rows from before the backend field were always exact fits
            backend=row.get("backend", "exact-lcm"),
            n_inducing=row.get("n_inducing", 0),
        )


class SurrogateCache:
    """JSONL-backed cache of fitted LCM hyperparameters.

    Parameters
    ----------
    path:
        Cache file (created on first :meth:`put`); its directory must exist
        or be creatable.
    min_overlap:
        Minimum Jaccard overlap ``|cached ∩ query| / |cached ∪ query|``
        for a subset/superset entry to count as a hit.  1.0 restricts
        lookups to exact data matches.
    """

    def __init__(self, path: str, min_overlap: float = 0.5):
        if not 0.0 < min_overlap <= 1.0:
            raise ValueError("min_overlap must be in (0, 1]")
        self.path = str(path)
        self.min_overlap = float(min_overlap)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._entries: Dict[str, CachedFit] = {}
        self._loaded_size = -1
        # memoized lookup results: query tuple -> best entry key (or None);
        # valid only for the currently loaded file version
        self._lookup_memo: Dict[Any, Optional[str]] = {}

    def _lock(self) -> ShardLock:
        return ShardLock(self.path + ".lock")

    def _load(self) -> None:
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size == self._loaded_size:
            return
        entries: Dict[str, CachedFit] = {}
        if size:
            with open(self.path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        fit = CachedFit.from_json(json.loads(line))
                    except (ValueError, KeyError, TypeError):
                        continue  # torn or foreign line
                    entries[fit.key] = fit  # later lines win
        self._entries = entries
        self._loaded_size = size
        self._lookup_memo.clear()  # memo keys are per file version

    # -- public API ----------------------------------------------------------
    def __len__(self) -> int:
        self._load()
        return len(self._entries)

    def put(self, fit: CachedFit) -> str:
        """Persist one fit; returns its key.  Idempotent per key."""
        with self._lock():
            self._load()
            if fit.key in self._entries:
                return fit.key
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(fit.to_json(), sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._entries[fit.key] = fit
            self._loaded_size = os.path.getsize(self.path)
            self._lookup_memo.clear()
        return fit.key

    def lookup(
        self,
        problem: str,
        objective: int,
        fingerprints: Iterable[str],
        n_tasks: int,
        n_dims: int,
        n_latent: int,
        backend: str = "exact-lcm",
        n_inducing: int = 0,
    ) -> Optional[CachedFit]:
        """Best reusable fit for the given data, or ``None``.

        A candidate must match the problem, objective, LCM shape, **and
        surrogate backend** (including the sparse backend's inducing count
        — θ optimized against a different likelihood is not a warm start,
        it is a wrong start), and its fingerprint set must be a subset or
        superset of the query's with Jaccard overlap ≥ ``min_overlap``.
        Among candidates the largest overlap wins (ties: higher log
        likelihood).

        Repeated lookups are memoized per loaded file version: a driver
        polling the cache every refit with the same (slowly growing) data
        pays the linear scan once, not once per iteration.  Any reload,
        :meth:`put`, or :meth:`compact` invalidates the memo.
        """
        query = frozenset(str(f) for f in fingerprints)
        if not query:
            return None
        self._load()
        memo_key = (
            str(problem), int(objective), query, int(n_tasks), int(n_dims),
            int(n_latent), str(backend), int(n_inducing),
        )
        if memo_key in self._lookup_memo:
            hit = self._lookup_memo[memo_key]
            return self._entries.get(hit) if hit is not None else None
        best: Optional[CachedFit] = None
        best_rank = (-1.0, -float("inf"))
        for fit in self._entries.values():
            if (
                fit.problem != problem
                or fit.objective != int(objective)
                or fit.n_tasks != int(n_tasks)
                or fit.n_dims != int(n_dims)
                or fit.n_latent != int(n_latent)
                or fit.backend != str(backend)
                or fit.n_inducing != int(n_inducing)
                or not fit.fingerprints
            ):
                continue
            if not (fit.fingerprints <= query or query <= fit.fingerprints):
                continue
            overlap = len(fit.fingerprints & query) / len(fit.fingerprints | query)
            if overlap < self.min_overlap:
                continue
            rank = (overlap, fit.log_likelihood)
            if rank > best_rank:
                best, best_rank = fit, rank
        if len(self._lookup_memo) >= 512:  # bound a long campaign's memo
            self._lookup_memo.clear()
        self._lookup_memo[memo_key] = best.key if best is not None else None
        return best

    def compact(self, keep_latest: int = 64) -> int:
        """Rewrite the cache keeping at most ``keep_latest`` entries per
        (problem, objective); returns the number of entries kept.

        "Latest" follows file order — entries appended later (fitted on more
        data, typically) survive.
        """
        if keep_latest < 1:
            raise ValueError("keep_latest must be >= 1")
        with self._lock():
            self._loaded_size = -1
            self._load()
            by_group: Dict[Any, List[CachedFit]] = {}
            for fit in self._entries.values():  # dict preserves file order
                by_group.setdefault((fit.problem, fit.objective), []).append(fit)
            kept: List[CachedFit] = []
            for group in by_group.values():
                kept.extend(group[-keep_latest:])
            tmp = self.path + ".compacting"
            with open(tmp, "w", encoding="utf-8") as fh:
                for fit in kept:
                    fh.write(json.dumps(fit.to_json(), sort_keys=True) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            fsync_dir(os.path.dirname(os.path.abspath(self.path)))
            self._entries = {f.key: f for f in kept}
            self._loaded_size = os.path.getsize(self.path)
            self._lookup_memo.clear()
        return len(kept)
