"""Hot-row embedding cache subsystem.

Skewed (zipfian) recommendation traffic re-fetches a small set of hot
rows over and over; replicating those rows on the requesting device
turns repeat remote fetches into local gathers and removes their wire
bytes entirely.  This package provides:

* :mod:`repro.cache.policy` — pluggable replacement policies
  (``lru``, ``lfu`` with aging, ``static-topk`` from a profiled pass);
* :mod:`repro.cache.hotrow` — the per-device cache: slot storage
  allocated from the simulated HBM budget, hit/miss/eviction stats,
  warm-up and invalidation hooks;
* :mod:`repro.cache.retrieval` — :class:`CachedRetrieval`, which fronts
  either base backend with the caches on both the timed (DES) and the
  functional (numpy, bit-identical) path.

The ``repro`` package registers the ``"pgas+cache"`` and
``"baseline+cache"`` backends (one feature-table entry in
:mod:`repro.core.factory`), so

>>> emb = DistributedEmbedding(cfg, n_devices=2, backend="pgas+cache",
...                            features=FeatureSpec(cache=CacheConfig(policy="lru")))

works exactly like the uncached backends (``repro`` imports it for you).
"""

from __future__ import annotations

from .hotrow import CacheAccess, CacheConfig, CacheStats, HotRowCache
from .policy import (
    CacheKey,
    CachePolicy,
    LFUPolicy,
    LRUPolicy,
    StaticTopKPolicy,
    make_policy,
)
from .retrieval import CacheBatchPlan, CachedRetrieval

__all__ = [
    "CacheAccess",
    "CacheBatchPlan",
    "CacheConfig",
    "CacheKey",
    "CachePolicy",
    "CacheStats",
    "CachedRetrieval",
    "HotRowCache",
    "LFUPolicy",
    "LRUPolicy",
    "StaticTopKPolicy",
    "make_policy",
]

