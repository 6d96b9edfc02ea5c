"""One EMB construction path: the inference pipeline runs the adapter the
factory builds, so its EMB stage times exactly what ``DistributedEmbedding``
times for every registered backend, and a name it cannot run raises."""

from __future__ import annotations

import dataclasses

import pytest

import repro  # noqa: F401  (registers every feature backend)
from repro.cache import CacheConfig
from repro.comm.hier import HierSpec
from repro.compress import CompressionSpec
from repro.core.factory import FeatureSpec
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.retrieval import DistributedEmbedding, available_backends
from repro.core.runspec import preset_runspec
from repro.core.serving import InferenceServer, ServingSpec
from repro.core.workload import lengths_from_batch
from repro.dlrm.data import SyntheticDataGenerator
from repro.faults import ResilienceSpec
from repro.replication import ReplicationSpec
from repro.reshard import ReshardSpec

#: Every feature section set to a config that changes what its wrapper does.
SPEC = preset_runspec(
    "tiny",
    n_devices=4,
    cache=CacheConfig(capacity_fraction=0.25),
    compression=CompressionSpec(codec="int8"),
    replication=ReplicationSpec(k=2),
    hier=HierSpec(devices_per_node=2),
    resilience=ResilienceSpec(),
    reshard=ReshardSpec(),
)


@pytest.mark.parametrize("backend", [str(b) for b in available_backends()])
def test_pipeline_emb_timing_equals_distributed_embedding(backend):
    spec = dataclasses.replace(SPEC, backend=backend)
    batch = SyntheticDataGenerator(spec.workload).sparse_batch()
    emb = DistributedEmbedding.from_spec(spec)
    pipe = DLRMInferencePipeline.from_spec(spec)
    assert pipe.cluster.n_devices == emb.cluster.n_devices
    if emb.backend_adapter().requires_indices:
        expected = emb.forward(batch).timing
        got = pipe.run_batch(batch=batch).emb
    else:
        lengths = lengths_from_batch(batch)
        expected = emb.forward_timed(lengths)
        got = pipe.run_batch(lengths).emb
    assert got.as_dict() == expected.as_dict()


def test_int8_compressed_server_moves_fewer_wire_bytes():
    def wire_bytes(backend, features):
        pipe = DLRMInferencePipeline(
            SPEC.pipeline_config(), 4, backend=backend, features=features
        )
        server = InferenceServer(
            pipe, ServingSpec(arrival_qps=200_000.0, max_batch=64, seed=3)
        )
        result = server.simulate(128)
        assert result.n_requests == 128
        return pipe.cluster.interconnect.total_wire_bytes()

    plain = wire_bytes("pgas", None)
    int8 = wire_bytes(
        "pgas+compress", FeatureSpec(compression=CompressionSpec(codec="int8"))
    )
    assert 0 < int8 < plain


@pytest.mark.parametrize(
    "name",
    ["", "nope", "pgas+", "+cache", "pgas++cache", "pgas+nonsense",
     "pgas+compress+replicated", "pgas+cache+cache"],
)
def test_bad_names_raise_at_pipeline_construction(name):
    with pytest.raises(ValueError):
        DLRMInferencePipeline(PipelineConfig(workload=SPEC.workload), 2, backend=name)
