"""Per-device hot-row cache: slot storage, capacity accounting, stats.

A :class:`HotRowCache` replicates frequently accessed *remote* embedding
rows on one simulated device.  Its storage is allocated from the device's
:class:`~repro.simgpu.memory.MemoryPool`, so cache capacity competes with
the resident embedding shards for the same HBM budget — an over-sized
cache raises :class:`~repro.simgpu.memory.OutOfDeviceMemory` exactly like
an over-sized table would.

The cache keys on ``(table_name, hashed_row_id)`` — post-hash row ids,
the coordinates gradients are applied at, so invalidation composes with
the backward pass.  When materialised it stores exact bitwise replicas of
the owner's rows, which is what lets the cached functional forward stay
bit-identical to the uncached backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.sharding import minibatch_bounds
from ..dlrm.batch import SparseBatch
from ..dlrm.embedding import EmbeddingTableConfig
from ..dlrm.hashing import hash_indices
from ..simgpu.device import Device
from .policy import CacheKey, CachePolicy, make_policy

__all__ = ["CacheConfig", "CacheStats", "CacheAccess", "HotRowCache", "remote_lookups"]


@dataclass(frozen=True)
class CacheConfig:
    """Knobs of one per-device hot-row cache.

    Capacity is either absolute (``capacity_rows``) or a fraction of the
    rows the device does *not* own (``capacity_fraction``, the default 5 %
    of remote rows).  ``policy`` selects the replacement policy; the aging
    knobs only apply to ``"lfu"``.
    """

    capacity_rows: Optional[int] = None
    capacity_fraction: float = 0.05
    policy: str = "lru"
    aging_interval: int = 1024
    aging_factor: float = 0.5

    def __post_init__(self) -> None:
        if self.capacity_rows is not None and self.capacity_rows < 0:
            raise ValueError("capacity_rows must be non-negative")
        if not (0.0 <= self.capacity_fraction <= 1.0):
            raise ValueError("capacity_fraction must be in [0, 1]")
        if self.policy not in ("lru", "lfu", "static-topk"):
            raise ValueError(
                f"unknown cache policy {self.policy!r} (use lru, lfu, or static-topk)"
            )
        if self.aging_interval <= 0:
            raise ValueError("aging_interval must be positive")
        if not (0.0 <= self.aging_factor < 1.0):
            raise ValueError("aging_factor must be in [0, 1)")

    def resolve_capacity(self, remote_rows: int) -> int:
        """Concrete row capacity for a device seeing ``remote_rows`` remote rows."""
        if self.capacity_rows is not None:
            return self.capacity_rows
        return int(remote_rows * self.capacity_fraction)

    def build_policy(self, capacity_rows: int) -> CachePolicy:
        """Instantiate this config's replacement policy."""
        return make_policy(
            self.policy,
            capacity_rows,
            aging_interval=self.aging_interval,
            aging_factor=self.aging_factor,
        )


@dataclass
class CacheStats:
    """Cumulative cache counters (one device, or aggregated)."""

    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def copy(self) -> "CacheStats":
        """Snapshot for later delta computation."""
        return replace(self)

    def delta(self, since: "CacheStats") -> "CacheStats":
        """Counter increments since an earlier snapshot."""
        return CacheStats(
            hits=self.hits - since.hits,
            misses=self.misses - since.misses,
            installs=self.installs - since.installs,
            evictions=self.evictions - since.evictions,
            invalidations=self.invalidations - since.invalidations,
        )

    def add(self, other: "CacheStats") -> None:
        """Accumulate another stats object (cross-device aggregation)."""
        self.hits += other.hits
        self.misses += other.misses
        self.installs += other.installs
        self.evictions += other.evictions
        self.invalidations += other.invalidations


@dataclass
class CacheAccess:
    """Result of one vectorised row-lookup walk.

    ``hit_mask`` flags, per lookup (in original order), whether the row was
    cached *at access time* — later installs in the same walk never
    retroactively flip earlier lookups.  ``values`` carries the gathered
    ``(n, dim)`` row vectors (hits from the cache store, misses from the
    owner's weights) when a source array was supplied, else ``None``.
    """

    hit_mask: np.ndarray
    values: Optional[np.ndarray] = None

    @property
    def hits(self) -> int:
        """Lookups served from cache."""
        return int(np.count_nonzero(self.hit_mask))

    @property
    def misses(self) -> int:
        """Lookups forwarded to the owner."""
        return int(self.hit_mask.size - self.hits)


class HotRowCache:
    """One device's software-managed cache of remote embedding rows.

    ``table_configs`` are the *remote* tables this device may cache rows
    of; they must share one ``(dim, dtype)`` because all rows live in one
    slab.  The slab is allocated through ``device.memory`` (debiting the
    simulated HBM budget); with ``materialize=True`` it carries a real
    numpy array so the functional path can gather exact row replicas.
    """

    def __init__(
        self,
        device: Device,
        table_configs: Sequence[EmbeddingTableConfig],
        config: CacheConfig,
        *,
        materialize: bool = False,
    ):
        self.device = device
        self.config = config
        self.table_configs = list(table_configs)
        dims = {(t.dim, t.dtype) for t in self.table_configs}
        if len(dims) > 1:
            raise ValueError("cached tables must share one (dim, dtype)")
        if self.table_configs:
            self.dim, self.dtype = self.table_configs[0].dim, self.table_configs[0].dtype
        else:
            self.dim, self.dtype = 0, np.dtype(np.float32)
        self.remote_rows = sum(t.num_rows for t in self.table_configs)
        self.capacity_rows = config.resolve_capacity(self.remote_rows)
        self.policy = config.build_policy(self.capacity_rows)
        self.stats = CacheStats()
        self._slot: Dict[CacheKey, int] = {}
        self._free: List[int] = list(range(self.capacity_rows - 1, -1, -1))
        self._buffer = None
        self._store: Optional[np.ndarray] = None
        if self.capacity_rows > 0 and self.dim > 0:
            self._buffer = device.memory.alloc(
                (self.capacity_rows, self.dim),
                self.dtype,
                materialize=materialize,
                label=f"cache.dev{device.id}",
            )
            if materialize:
                self._store = self._buffer.array()

    @classmethod
    def per_device(
        cls, cluster, plan, config: CacheConfig, *, materialize: bool = False
    ) -> List["HotRowCache"]:
        """One cache per device of ``cluster``, each over the tables of
        sharding ``plan`` that device does not own."""
        return [
            cls(
                dev,
                [t for t in plan.table_configs if plan.owner_of(t.name) != dev.id],
                config,
                materialize=materialize,
            )
            for dev in cluster.devices
        ]

    # -- queries -----------------------------------------------------------------

    @property
    def resident_rows(self) -> int:
        """Rows currently cached."""
        return len(self._slot)

    @property
    def nbytes(self) -> int:
        """HBM bytes the cache slab occupies."""
        return self._buffer.nbytes if self._buffer is not None else 0

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._slot

    # -- access ------------------------------------------------------------------

    def lookup_rows(
        self,
        table_name: str,
        rows: np.ndarray,
        source: Optional[np.ndarray] = None,
    ) -> CacheAccess:
        """Walk hashed ``rows`` in order: classify hits, install misses.

        Hit values are captured *at access time* (a later install may evict
        and reuse the slot within the same walk).  ``source`` is the owning
        table's full weight array; when given, the returned ``values`` is
        the complete ``(n, dim)`` gather — hits from the cache store,
        misses from ``source`` — so callers can pool it directly.
        """
        rows = np.asarray(rows, dtype=np.int64)
        n = rows.size
        hit_mask = np.zeros(n, dtype=bool)
        values: Optional[np.ndarray] = None
        if source is not None:
            values = np.empty((n, self.dim), dtype=self.dtype)
        policy = self.policy
        slot = self._slot
        store = self._store
        stats = self.stats
        for j, r in enumerate(rows.tolist()):
            key = (table_name, r)
            if policy.access(key):
                hit_mask[j] = True
                stats.hits += 1
                if values is not None:
                    values[j] = store[slot[key]] if store is not None else source[r]
            else:
                stats.misses += 1
                if values is not None:
                    values[j] = source[r]
                admitted, evicted = policy.admit(key)
                if admitted:
                    if evicted is not None:
                        self._release(evicted)
                        stats.evictions += 1
                    self._install(key, source)
        return CacheAccess(hit_mask=hit_mask, values=values)

    def _install(self, key: CacheKey, source: Optional[np.ndarray]) -> None:
        s = self._free.pop()
        self._slot[key] = s
        self.stats.installs += 1
        if self._store is not None and source is not None:
            self._store[s] = source[key[1]]

    def _release(self, key: CacheKey) -> None:
        self._free.append(self._slot.pop(key))

    # -- warm / invalidate --------------------------------------------------------

    def warm(
        self,
        keys: Iterable[CacheKey],
        source_of: Optional[Callable[[str], np.ndarray]] = None,
    ) -> int:
        """Pre-fill from ranked ``keys`` (hottest first); returns seeded count.

        This is the profiled-frequency path the static-topk policy needs
        (and the only way rows enter it); lru/lfu accept warming too.
        ``source_of(table_name)`` supplies weight arrays for materialised
        caches.
        """
        seeded = 0
        for key in keys:
            if key in self._slot:
                continue
            admitted, evicted = self.policy.seed(key)
            if not admitted:
                continue
            if evicted is not None:
                self._release(evicted)
                self.stats.evictions += 1
            self._install(key, source_of(key[0]) if source_of is not None else None)
            seeded += 1
        return seeded

    def invalidate(
        self, table_name: Optional[str] = None, rows: Optional[np.ndarray] = None
    ) -> int:
        """Drop stale replicas; returns how many were dropped.

        ``rows`` are post-hash row ids (the coordinates the backward pass
        updates).  ``rows=None`` drops the whole table; ``table_name=None``
        flushes everything.  This is the staleness hook: call it after any
        owner-side weight update so the functional guarantee holds.
        """
        if table_name is None:
            victims = list(self._slot)
        elif rows is None:
            victims = [k for k in self._slot if k[0] == table_name]
        else:
            victims = [
                (table_name, int(r))
                for r in np.unique(np.asarray(rows, dtype=np.int64))
                if (table_name, int(r)) in self._slot
            ]
        for key in victims:
            self.policy.remove(key)
            self._release(key)
        self.stats.invalidations += len(victims)
        return len(victims)

    def release(self) -> None:
        """Free the cache slab back to the device memory pool."""
        if self._buffer is not None and not self._buffer.freed:
            self.device.memory.free(self._buffer)
        self._buffer = None
        self._store = None
        self._slot.clear()
        self._free = list(range(self.capacity_rows - 1, -1, -1))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<HotRowCache dev={self.device.id} {self.policy.name} "
            f"{self.resident_rows}/{self.capacity_rows} rows d={self.dim}>"
        )


def remote_lookups(
    plan, batches: Iterable[SparseBatch]
) -> Iterator[Tuple[int, EmbeddingTableConfig, np.ndarray]]:
    """``(device, table, hashed rows)`` for every non-empty remote lookup
    of ``batches`` under sharding ``plan``: each device's mini-batch slice
    of each table it does not own, in batch, table, device order (the
    order a cache warmed from them sees the rows)."""
    G = plan.n_devices
    for batch in batches:
        bounds = minibatch_bounds(batch.batch_size, G)
        for t in plan.table_configs:
            owner = plan.owner_of(t.name)
            fld = batch.field(t.name)
            for g in range(G):
                if g == owner:
                    continue
                sl = fld.slice_samples(*bounds[g])
                if sl.nnz:
                    yield g, t, hash_indices(sl.indices, t.num_rows, t.hash_kind)
