"""HierSpec geometry, validation, and the factory/auto-cluster wiring."""

from __future__ import annotations

import pytest

from repro.comm.hier import HierSpec
from repro.core.factory import CANONICAL_FEATURE_ORDER, FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.runspec import RunSpec, preset_runspec
from repro.dlrm.data import WorkloadConfig
from repro.simgpu.cluster import dgx_v100


def small_cfg(**kw):
    defaults = dict(
        num_tables=4, rows_per_table=256, dim=8, batch_size=32,
        max_pooling=2, seed=9,
    )
    defaults.update(kw)
    return WorkloadConfig(**defaults)


class TestHierSpecGeometry:
    def test_node_and_leader_mapping(self):
        spec = HierSpec(devices_per_node=4)
        assert [spec.node_of(d) for d in range(8)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert spec.leader_of(0) == 0 and spec.leader_of(1) == 4
        assert spec.same_node(1, 3) and not spec.same_node(3, 4)
        assert spec.n_nodes(8) == 2

    def test_leader_rank_offsets_the_leader(self):
        spec = HierSpec(devices_per_node=4, leader_rank=2)
        assert spec.leader_of(0) == 2 and spec.leader_of(1) == 6

    def test_validate_for_requires_divisibility(self):
        spec = HierSpec(devices_per_node=4)
        spec.validate_for(8)  # fine
        with pytest.raises(ValueError, match="divide"):
            spec.validate_for(6)

    def test_active_only_between_one_and_all(self):
        spec = HierSpec(devices_per_node=2)
        assert spec.active(4)
        assert not spec.active(2)  # single node
        assert not HierSpec(devices_per_node=1).active(4)  # flat geometry

    @pytest.mark.parametrize("kwargs", [
        dict(devices_per_node=0),
        dict(devices_per_node=2, leader_rank=2),
        dict(devices_per_node=2, leader_rank=-1),
        dict(devices_per_node=2, stage_flush_bytes=0),
        dict(devices_per_node=2, stage_max_wait_ns=0.0),
        dict(devices_per_node=2, nic_message_bytes=-1),
        dict(devices_per_node=2, nic_header_bytes=-1),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            HierSpec(**kwargs)

    def test_frozen(self):
        spec = HierSpec(devices_per_node=2)
        with pytest.raises(Exception):
            spec.devices_per_node = 4  # type: ignore[misc]


class TestFactoryWiring:
    def test_hier_is_innermost_feature(self):
        assert CANONICAL_FEATURE_ORDER[0] == "hier"

    def test_auto_multinode_cluster_from_spec_geometry(self):
        emb = DistributedEmbedding(
            small_cfg(), 4, backend="pgas+hier",
            features=FeatureSpec(hier=HierSpec(devices_per_node=2)),
        )
        inter = emb.cluster.interconnect
        # devices 0,1 share a node (NVLink class), 1->2 crosses (NIC class)
        assert inter.link(0, 1).spec.bandwidth > 20.0
        assert inter.link(1, 2).spec.bandwidth < 20.0

    def test_explicit_cluster_wins_over_auto(self):
        cluster = dgx_v100(4)
        emb = DistributedEmbedding(
            small_cfg(), 4, backend="pgas+hier", cluster=cluster,
            features=FeatureSpec(hier=HierSpec(devices_per_node=2)),
        )
        assert emb.cluster is cluster

    def test_unconfigured_hier_defaults_to_flat_routing(self):
        emb = DistributedEmbedding(small_cfg(), 2, backend="pgas+hier")
        adapter = emb.backend_adapter()
        assert adapter.hier_spec.devices_per_node == 1
        assert not adapter.hier_spec.active(emb.n_devices)

    def test_wrong_hier_config_type_rejected(self):
        with pytest.raises(TypeError, match="HierSpec"):
            DistributedEmbedding(
                small_cfg(), 4, backend="pgas+hier",
                features=FeatureSpec(hier={"devices_per_node": 2}),
            )

    def test_mismatched_geometry_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            DistributedEmbedding(
                small_cfg(), 3, backend="pgas+hier",
                features=FeatureSpec(hier=HierSpec(devices_per_node=2)),
            )

    def test_backend_info_flags_hierarchical(self):
        from repro.core.factory import parse_backend_name
        from repro.core.retrieval import available_backends

        flags = {
            str(b): "hier" in parse_backend_name(b)[1] for b in available_backends()
        }
        assert flags["pgas+hier"] and flags["baseline+hier"]
        assert not flags["pgas"] and not flags["baseline"]


class TestRunSpecSection:
    def test_round_trip_bit_exact(self):
        spec = preset_runspec(
            "tiny", 4, backend="pgas+hier",
            hier=HierSpec(devices_per_node=2, stage_flush_bytes=4096),
        )
        clone = RunSpec.from_json(spec.to_json())
        assert clone == spec
        assert isinstance(clone.hier, HierSpec)
        assert clone.hier.stage_flush_bytes == 4096

    def test_none_hier_round_trips(self):
        spec = preset_runspec("tiny", 2)
        assert RunSpec.from_json(spec.to_json()).hier is None

    def test_wrong_type_rejected(self):
        with pytest.raises(TypeError, match="HierSpec"):
            preset_runspec("tiny", 4, hier={"devices_per_node": 2})
