"""repro — PGAS-style multi-GPU embedding retrieval for DLRM.

Reproduction of Chen, Buluç, Yelick & Owens, *Accelerating Multi-GPU
Embedding Retrieval with PGAS-Style Communication for Deep Learning
Recommendation Systems* (SC 2024), as a pure-Python library over a
discrete-event multi-GPU simulator.

Packages
--------
:mod:`repro.core`
    The paper's contribution: distributed EMB retrieval with baseline
    (NCCL-style collective) and PGAS fused (one-sided) backends.
:mod:`repro.simgpu`
    The substrate: devices, streams, kernel cost model, NVLink fabric,
    profiler.
:mod:`repro.comm`
    Collective and PGAS communication layers.
:mod:`repro.compress`
    Wire codecs (fp32/fp16/int8/int4) and the ``"+compress"`` backends.
:mod:`repro.replication`
    Shard replication, failover routing, online recovery — the
    ``"+replicated"`` backends.
:mod:`repro.reshard`
    Skew-aware online resharding: traffic tracking, migration planning,
    paced shard streaming — the ``"+reshard"`` backends.
:mod:`repro.hier`
    Topology-aware hierarchical communication: two-level all-to-all and
    node-leader PGAS staging — the ``"+hier"`` backends.
:mod:`repro.dlrm`
    Numpy DLRM: embedding tables, jagged batches, MLPs, interaction,
    synthetic data.
:mod:`repro.bench`
    Experiment harness regenerating every table and figure of §IV.
:mod:`repro.telemetry`
    Derived gauges, paper-facing metrics (overlap, burstiness), and the
    versioned :class:`~repro.telemetry.RunReport` JSON artifact.
:mod:`repro.obs`
    Request-level tracing (trace contexts, Perfetto flows),
    critical-path analysis, and the perf regression gate.

Quickstart
----------
>>> import repro
>>> cfg = repro.WorkloadConfig(num_tables=8, rows_per_table=1000, dim=16,
...                            batch_size=64, max_pooling=8)
>>> emb = repro.DistributedEmbedding(cfg, n_devices=2, backend="pgas",
...                                  materialize=True)
>>> batch = repro.SyntheticDataGenerator(cfg).sparse_batch()
>>> result = emb.forward(batch)
"""

from . import comm, core, dlrm, simgpu, telemetry
from .core import (
    BackendInfo,
    BackendName,
    BaselineRetrieval,
    DLRMInferencePipeline,
    DistributedEmbedding,
    FeatureSpec,
    ForwardResult,
    InferenceServer,
    PGASFusedRetrieval,
    PhaseTiming,
    RowWiseSharding,
    RunSpec,
    SchedulerSpec,
    ServingSpec,
    ShardedEmbeddingTables,
    TableWiseSharding,
    available_backends,
    build_backend,
    preset_runspec,
)

# The feature packages, each a FeatureLayer (or, for hier, an engine option)
# over the core adapters; the "<base>+<feature>" names are registered once
# they are all importable (the end of this block).
from . import cache
from .cache import CacheConfig, CachedRetrieval

from . import faults
from .faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    ResilienceSpec,
    ResilientRetrieval,
)

from . import compress
from .compress import CompressedRetrieval, CompressionSpec

from . import replication
from .replication import ReplicatedRetrieval, ReplicationSpec

from . import reshard
from .reshard import ReshardRetrieval, ReshardSpec

from . import hier
from .hier import HierSpec

from .core.factory import register_feature_backends

register_feature_backends()

from .dlrm import (
    DLRM,
    DLRMConfig,
    EmbeddingBagCollection,
    EmbeddingTable,
    EmbeddingTableConfig,
    JaggedField,
    SparseBatch,
    SyntheticDataGenerator,
    WorkloadConfig,
)
from . import obs
from .obs import TraceSpec
from .simgpu import Cluster, DeviceSpec, dgx_v100
from .telemetry import MetricsRegistry, RunReport, collect_run_report

__version__ = "0.1.0"

__all__ = [
    "BackendInfo",
    "BackendName",
    "BaselineRetrieval",
    "CacheConfig",
    "CachedRetrieval",
    "Cluster",
    "CompressedRetrieval",
    "CompressionSpec",
    "DLRM",
    "DLRMConfig",
    "DLRMInferencePipeline",
    "DeviceSpec",
    "DistributedEmbedding",
    "InferenceServer",
    "EmbeddingBagCollection",
    "EmbeddingTable",
    "EmbeddingTableConfig",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FeatureSpec",
    "ForwardResult",
    "HierSpec",
    "JaggedField",
    "MetricsRegistry",
    "PGASFusedRetrieval",
    "PhaseTiming",
    "RunReport",
    "ReplicatedRetrieval",
    "ReplicationSpec",
    "ResilienceSpec",
    "ResilientRetrieval",
    "ReshardRetrieval",
    "ReshardSpec",
    "RowWiseSharding",
    "RunSpec",
    "SchedulerSpec",
    "ServingSpec",
    "ShardedEmbeddingTables",
    "SparseBatch",
    "SyntheticDataGenerator",
    "TableWiseSharding",
    "TraceSpec",
    "WorkloadConfig",
    "__version__",
    "available_backends",
    "build_backend",
    "preset_runspec",
    "cache",
    "collect_run_report",
    "comm",
    "compress",
    "core",
    "dgx_v100",
    "dlrm",
    "faults",
    "hier",
    "obs",
    "replication",
    "reshard",
    "simgpu",
    "telemetry",
]
