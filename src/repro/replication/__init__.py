"""High-availability layer: shard replication, failover, online recovery.

The PGAS fused-retrieval path (and the collective baseline) assume every
owner GPU stays reachable; the fault layer's transient windows are
survivable by retrying, but a permanent ``device_down`` failure takes a
device's table shards with it.  This package adds the production answer —
k-way shard replication with failover routing and bandwidth-charged
re-replication:

* :mod:`repro.replication.spec` — the frozen :class:`ReplicationSpec`
  (replication factor, ``spread``/``ring`` placement, failure-detector
  cadence, recovery bandwidth share) and its deterministic per-table
  replica placement;
* :mod:`repro.replication.retrieval` — :class:`ReplicatedRetrieval`,
  which fronts either base backend: a heartbeat monitor on the engine
  clock detects ``device_down`` failures, lookup blocks of a dead
  primary re-home to the nearest live replica on both comm paths, and a
  background engine process re-replicates the lost shards over the real
  interconnect, stamping ``availability.*`` counters and per-link
  recovery bytes into traces.

The ``repro`` package registers the ``"pgas+replicated"`` and
``"baseline+replicated"`` backends (one feature-table entry in
:mod:`repro.core.factory`), so

>>> emb = DistributedEmbedding(cfg, n_devices=4, backend="pgas+replicated",
...                            features=FeatureSpec(replication=ReplicationSpec(k=2)))

works exactly like the unreplicated backends (``repro`` imports it for
you).
"""

from __future__ import annotations

from .retrieval import (
    BATCH_LOOKUPS_COUNTER,
    DETECTION_COUNTER,
    FAILOVER_COUNTER,
    FAILURES_COUNTER,
    RECOVERY_COUNTER,
    REPROTECT_COUNTER,
    AvailabilityLedger,
    ReplicatedRetrieval,
)
from .spec import PLACEMENTS, ReplicationSpec

__all__ = [
    "AvailabilityLedger",
    "BATCH_LOOKUPS_COUNTER",
    "DETECTION_COUNTER",
    "FAILOVER_COUNTER",
    "FAILURES_COUNTER",
    "PLACEMENTS",
    "RECOVERY_COUNTER",
    "REPROTECT_COUNTER",
    "ReplicatedRetrieval",
    "ReplicationSpec",
]

