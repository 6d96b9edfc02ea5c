"""Skew-aware online resharding: dynamic load balancing of table shards.

Static table-wise placement balances *capacity*, but real recommendation
traffic is zipf-skewed per table: a handful of hot tables can leave one
GPU moving several times the retrieval bytes of its neighbours, and the
hot device's EMB + comm time bounds every batch.  This package adds the
closed observe → plan → migrate → cutover loop that fixes the placement
online:

* :mod:`repro.reshard.spec` — the frozen :class:`ReshardSpec` policy
  (window length, planning cadence, imbalance threshold, move budget,
  migration bandwidth share);
* :mod:`repro.reshard.tracker` — :class:`LoadTracker`, sliding-window
  per-table traffic from what the retrieval layer already knows (batch
  lookup bytes, optional cache hit rates);
* :mod:`repro.reshard.planner` — :class:`ReshardPlanner`, greedy
  whole-table moves under :class:`~repro.simgpu.memory.MemoryPool`
  capacity, plus :class:`RowSplitAdvisory` for tables too hot for any
  table-wise placement;
* :mod:`repro.reshard.executor` — :class:`ReshardExecutor`, background
  engine processes streaming moving shards over the real interconnect,
  chunked and bandwidth-share-paced like replication recovery;
* :mod:`repro.reshard.retrieval` — :class:`ReshardRetrieval`, the
  serving wrapper: batches snapshot ownership at start and migrating
  tables keep serving from the old owner until their last chunk lands,
  so functional outputs stay bit-identical throughout.

The ``repro`` package registers the ``"pgas+reshard"`` and
``"baseline+reshard"`` backends (one feature-table entry in
:mod:`repro.core.factory`), so

>>> emb = DistributedEmbedding(cfg, n_devices=4, backend="pgas+reshard",
...                            features=FeatureSpec(reshard=ReshardSpec()))

works exactly like the static backends (``repro`` imports it for you).
"""

from __future__ import annotations

from .executor import (
    ADVISORIES_COUNTER,
    MIGRATION_BYTES_COUNTER,
    MIGRATION_NS_COUNTER,
    MIGRATIONS_COUNTER,
    MOVES_COUNTER,
    PLANS_COUNTER,
    ReshardExecutor,
)
from .planner import MigrationPlan, ReshardPlanner, RowSplitAdvisory, TableMove
from .retrieval import ReshardLedger, ReshardRetrieval
from .spec import ReshardSpec
from .tracker import LoadTracker

__all__ = [
    "ADVISORIES_COUNTER",
    "LoadTracker",
    "MIGRATIONS_COUNTER",
    "MIGRATION_BYTES_COUNTER",
    "MIGRATION_NS_COUNTER",
    "MOVES_COUNTER",
    "MigrationPlan",
    "PLANS_COUNTER",
    "ReshardExecutor",
    "ReshardLedger",
    "ReshardPlanner",
    "ReshardRetrieval",
    "ReshardSpec",
    "RowSplitAdvisory",
    "TableMove",
]

