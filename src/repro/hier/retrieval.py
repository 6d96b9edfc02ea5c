"""The ``"+hier"`` retrieval adapter: base engines with hierarchical routing.

Unlike the cache/compress wrappers, hierarchical routing needs no state of
its own around the base engine — the routing layer plugs *into* the base
engines (:class:`~repro.core.baseline.BaselineRetrieval` takes a
``hier_spec`` that swaps its all-to-all for the two-level variant;
:class:`~repro.core.pgas_retrieval.PGASFusedRetrieval` takes one that
routes off-node puts through the node-staging router).  The adapter here
just builds those engines with the spec attached and keeps the functional
path identical to the flat backends — routing changes timing only.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..comm.collective import CollectiveSpec
from ..comm.hier import HierSpec
from ..comm.pgas import PGASSpec
from ..core.baseline import BaselineRetrieval, PhaseTiming
from ..core.functional import (
    ShardedEmbeddingTables,
    baseline_functional_forward,
    pgas_functional_forward,
)
from ..core.pgas_retrieval import PGASFusedRetrieval
from ..core.retrieval import RetrievalBackend
from ..core.workload import DeviceWorkload
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from ..simgpu.engine import ProcessGenerator

__all__ = ["HierRetrieval", "hier_retrieval_for"]


class HierRetrieval(RetrievalBackend):
    """Either base backend with topology-aware hierarchical routing.

    The timed path runs the base engine constructed with the
    :class:`~repro.comm.hier.HierSpec` attached; when the spec is inactive
    for the cluster's device count (``devices_per_node == 1`` or a single
    node) the engines bypass the hierarchy and the flat path runs
    event-identically.  The functional path is exactly the base backend's
    numpy forward — routing never touches payload contents.
    """

    def __init__(
        self,
        cluster: Cluster,
        spec: HierSpec,
        base: str = "pgas",
        collective_spec: Optional[CollectiveSpec] = None,
        pgas_spec: Optional[PGASSpec] = None,
        sharded: Optional[ShardedEmbeddingTables] = None,
    ):
        if base not in ("pgas", "baseline"):
            raise ValueError(f"unknown base backend {base!r} for +hier")
        self.cluster = cluster
        self.spec = spec
        self.base = base
        self.sharded = sharded
        if base == "pgas":
            self._engine = PGASFusedRetrieval(cluster, pgas_spec, hier_spec=spec)
        else:
            self._engine = BaselineRetrieval(
                cluster, collective_spec, hier_spec=spec
            )

    @property
    def active(self) -> bool:
        """Whether routing actually changes this cluster's traffic."""
        return self.spec.active(self.cluster.n_devices)

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ) -> ProcessGenerator:
        """The routed engine's own generator (no wrapping frame)."""
        return self._engine.batch_process(
            cluster, workloads, timing, stream_suffix=stream_suffix
        )

    def run_timed(
        self,
        workloads: Sequence[DeviceWorkload],
        batch: Optional[SparseBatch] = None,
    ) -> PhaseTiming:
        """Simulate one batch through the hierarchically-routed engine."""
        return self._engine.run_batch(workloads)

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """The base backend's numpy forward — bit-identical to flat routing."""
        assert self.sharded is not None
        if self.base == "pgas":
            return pgas_functional_forward(self.sharded, batch)
        outputs, _blocks = baseline_functional_forward(self.sharded, batch)
        return outputs


def hier_retrieval_for(emb, base: str) -> HierRetrieval:
    """Build a :class:`HierRetrieval` bound to an EMB host
    (see :func:`~repro.core.factory.build_adapter`; the registry
    factories' shared implementation).

    Without a configured :class:`~repro.comm.hier.HierSpec` the wrapper
    defaults to ``devices_per_node=1`` — flat routing, valid for any
    device count; set ``features=FeatureSpec(hier=HierSpec(...))`` to
    enable staging.
    """
    spec = emb.features.hier
    if spec is not None and not isinstance(spec, HierSpec):
        raise TypeError(
            f"features.hier must be a HierSpec, "
            f"got {type(spec).__name__}"
        )
    return HierRetrieval(
        emb.cluster,
        spec or HierSpec(devices_per_node=1),
        base=base,
        collective_spec=emb.collective_spec,
        pgas_spec=emb.pgas_spec,
        sharded=emb.sharded,
    )
