"""Shared tuning-history service.

The production layer of GPTune's "archive and reuse" goal (Sec. 1, goal 3):
a sharded append-only record store safe for concurrent campaigns
(:mod:`~repro.service.store`) with an etag-keyed hot-shard read cache, a
group-commit write batcher with bounded-queue backpressure
(:mod:`~repro.service.batch`), a cache of fitted surrogate hyperparameters
(:mod:`~repro.service.modelcache`), nearest-task queries feeding transfer
learning (:mod:`~repro.service.query`), a stdlib HTTP server/client pair
for crowd tuning across machines (:mod:`~repro.service.server`,
:mod:`~repro.service.client`), and consistent-hash routing over N server
processes (:mod:`~repro.service.router`).  See ``docs/SERVICE.md``.

The names below resolve on first use (PEP 562): a campaign that appends
to a local store does not import the HTTP server, router or client.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".batch": ("BackpressureError", "WriteBatcher"),
    ".client": ("ServiceClient", "ServiceError", "StaleEtagError"),
    ".modelcache": ("CachedFit", "SurrogateCache"),
    ".query": ("archive_source", "group_by_task", "nearest_tasks", "source_data_from_records"),
    ".router": ("HashRing", "RouterClient", "ShardSupervisor", "rebalance_stores", "shard_id"),
    ".server": ("TuningHistoryServer", "make_server", "serve"),
    ".store": (
        "ShardLock",
        "ShardReadCache",
        "ShardedStore",
        "canonical_payload",
        "content_fingerprint",
    ),
})
