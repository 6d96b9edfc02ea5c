"""Topology-aware hierarchical communication: the ``"+hier"`` backends.

Flat routing sends every device→device payload point-to-point, so a
multi-node cluster of ``N`` nodes × ``P`` GPUs pays ``(N·P)²`` NIC message
streams where ``N²`` coalesced ones would do.  The ``"+hier"`` backends
build either base engine with the two-level routing layer of
:mod:`repro.comm.hier` as an engine option (a
:class:`~repro.core.retrieval.BaseAdapter` given the
:class:`~repro.comm.hier.HierSpec`), not as a wrapper:

* ``baseline+hier`` — the all-to-all runs through
  :class:`~repro.comm.hier.TwoLevelAllToAll`: intra-node gather of
  per-destination-node payloads to a node leader over NVLink, one
  coalesced NIC transfer per ordered node pair, intra-node scatter and
  unpack on the far side;
* ``pgas+hier`` — off-node one-sided writes route through the
  :class:`~repro.comm.hier.NodeStagingRouter`: forwarded to the node
  leader, staged per destination node, and flushed across the NIC as one
  aggregated message stream per node pair.

Routing changes **timing only** — functional outputs stay bit-identical
to the flat backends, and an inactive
:class:`~repro.comm.hier.HierSpec` (``devices_per_node == 1`` or a
single node) leaves the flat path event-identical.

The ``repro`` package registers the ``"pgas+hier"`` and
``"baseline+hier"`` backends (one feature-table entry in
:mod:`repro.core.factory`), so

>>> emb = DistributedEmbedding(cfg, n_devices=8, backend="pgas+hier",
...                            features=FeatureSpec(hier=HierSpec(devices_per_node=4)))

works exactly like the flat backends (``repro`` imports it for you); with
no cluster given, a matching multi-node cluster is built from the spec's
node geometry.
"""

from __future__ import annotations

from ..comm.hier import (
    FWD_COUNTER,
    NIC_COUNTER,
    SCATTER_COUNTER,
    HierSpec,
    NodeStagingRouter,
    TwoLevelAllToAll,
    inter_node_message_count,
    inter_node_wire_bytes,
)
__all__ = [
    "FWD_COUNTER",
    "HierSpec",
    "NIC_COUNTER",
    "NodeStagingRouter",
    "SCATTER_COUNTER",
    "TwoLevelAllToAll",
    "inter_node_message_count",
    "inter_node_wire_bytes",
]

