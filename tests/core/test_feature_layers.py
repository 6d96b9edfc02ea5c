"""Golden pin of every feature backend on a non-identity path.

Each of the twelve ``<base>+<feature>`` names runs three batches of the
``tiny`` preset on 4 GPUs with its feature doing real work:

* ``+compress`` — the int8 codec;
* ``+cache`` — a 25 % static-topk cache warmed by ``warm_static`` over the
  three batches;
* ``+resilient`` — a 20 us deadline with link 1 -> 0 down for the whole
  run (traffic reroutes through a healthy peer);
* ``+replicated`` — k=2 with device 1 failed and declared failed by the
  heartbeat detector before the first batch;
* ``+reshard`` — ``sparse_0`` (owned by device 0) force-cut over to
  device 3 before the first batch;
* ``+hier`` — ``devices_per_node=2`` (two 2-GPU nodes).

Every batch runs through ``DistributedEmbedding.forward`` with real
weights, so the functional path stamps its counters too.  The pins are
each batch's :class:`~repro.core.baseline.PhaseTiming` fields and the
profiler's counter totals after the three batches, sorted by name.  The
identity tests (fp32 passthrough, zero-capacity cache, healthy resilient,
k=1 replication, uniform reshard, degenerate hier) only show that a
feature can vanish; these show that a refactor moved nothing while the
feature acts.

Regenerate (only when a change is *meant* to move simulated time) with::

    PYTHONPATH=src python tests/core/test_feature_layers.py

which prints the ``GOLDEN`` literal below.
"""

from __future__ import annotations

import pprint
from typing import Callable, Dict, List, Tuple

import numpy as np
import pytest

import repro  # noqa: F401  (registers every feature backend)
from repro.cache import CacheConfig
from repro.comm.hier import HierSpec
from repro.compress import CompressionSpec
from repro.core.factory import FeatureSpec
from repro.core.retrieval import DistributedEmbedding
from repro.core.runspec import preset_runspec
from repro.dlrm.data import SyntheticDataGenerator
from repro.faults import FaultEvent, FaultInjector, FaultPlan, ResilienceSpec
from repro.replication import ReplicationSpec
from repro.reshard import ReshardSpec
from repro.simgpu.units import ms, us

SPEC = preset_runspec("tiny", n_devices=4)
N_BATCHES = 3

#: feature -> (FeatureSpec, hook(emb, adapter, batches) run before the batches)
Setup = Tuple[FeatureSpec, Callable]


def _warm_cache(emb, adapter, batches):
    adapter.warm_static(batches)


def _down_link(emb, adapter, batches):
    FaultInjector(
        emb.cluster, FaultPlan((FaultEvent("link_down", 0.0, 1000 * ms, src=1, dst=0),))
    ).install()


def _fail_device(emb, adapter, batches):
    FaultInjector(
        emb.cluster, FaultPlan((FaultEvent("device_down", 1.0, 1e9, device=1),))
    ).install()
    spec = adapter.spec
    emb.cluster.engine.run(
        until=spec.detection_latency_bound_ns + 2 * spec.heartbeat_interval_ns
    )
    assert adapter.failed_devices == (1,)


def _cut_over(emb, adapter, batches):
    adapter.force_cutover("sparse_0", 3)


def _nothing(emb, adapter, batches):
    pass


SETUPS: Dict[str, Setup] = {
    "compress": (FeatureSpec(compression=CompressionSpec(codec="int8")), _nothing),
    "cache": (
        FeatureSpec(cache=CacheConfig(capacity_fraction=0.25, policy="static-topk")),
        _warm_cache,
    ),
    "resilient": (FeatureSpec(resilience=ResilienceSpec(deadline_ns=20 * us)), _down_link),
    "replicated": (
        FeatureSpec(replication=ReplicationSpec(k=2, heartbeat_interval_ns=5 * us)),
        _fail_device,
    ),
    "reshard": (FeatureSpec(reshard=ReshardSpec()), _cut_over),
    "hier": (FeatureSpec(hier=HierSpec(devices_per_node=2)), _nothing),
}

NAMES = [f"{base}+{feature}" for feature in SETUPS for base in ("pgas", "baseline")]


def run_case(name: str) -> Dict[str, object]:
    """Three batches of ``name`` on its non-identity path; the pinned figures."""
    features, hook = SETUPS[name.split("+", 1)[1]]
    gen = SyntheticDataGenerator(SPEC.workload)
    batches = [gen.sparse_batch() for _ in range(N_BATCHES)]
    emb = DistributedEmbedding(
        SPEC.workload, SPEC.n_devices, backend=name, features=features,
        materialize=True, rng=np.random.default_rng(0),
    )
    hook(emb, emb.backend_adapter(), batches)
    timings: List[Tuple[float, float, float, float]] = []
    for batch in batches:
        t = emb.forward(batch).timing
        timings.append((t.compute_ns, t.comm_ns, t.sync_unpack_ns, t.total_ns))
    counters = sorted(
        (cname, c.total) for cname, c in emb.cluster.profiler.counters.items()
    )
    return {"timings": timings, "counters": counters}


GOLDEN: Dict[str, Dict[str, object]] = {'pgas+compress': {'timings': [(27327.461988304098,
                                0.0,
                                14062.877192982454,
                                41390.33918128655),
                               (27543.04093567252,
                                0.0,
                                14062.877192982458,
                                41605.91812865498),
                               (27307.251461988315,
                                0.0,
                                14062.877192982458,
                                41370.12865497077)],
                   'counters': [('compress.bytes_on_wire', 92160.0),
                                ('compress.bytes_uncompressed', 294912.0),
                                ('compress.decode_ns', 754.5263157894736),
                                ('compress.encode_ns', 754.5263157894736),
                                ('compress.error_elems', 73728.0),
                                ('compress.max_abs_error', 0.0009770444594323635),
                                ('compress.sq_error', 0.0004992170608665396),
                                ('pgas_bytes', 92160.0),
                                ('pgas_bytes.dev0->dev1', 7680.0),
                                ('pgas_bytes.dev0->dev2', 7680.0),
                                ('pgas_bytes.dev0->dev3', 7680.0),
                                ('pgas_bytes.dev1->dev0', 7680.0),
                                ('pgas_bytes.dev1->dev2', 7680.0),
                                ('pgas_bytes.dev1->dev3', 7680.0),
                                ('pgas_bytes.dev2->dev0', 7680.0),
                                ('pgas_bytes.dev2->dev1', 7680.0),
                                ('pgas_bytes.dev2->dev3', 7680.0),
                                ('pgas_bytes.dev3->dev0', 7680.0),
                                ('pgas_bytes.dev3->dev1', 7680.0),
                                ('pgas_bytes.dev3->dev2', 7680.0)]},
 'baseline+compress': {'timings': [(24280.79532163743,
                                    995.1041666666642,
                                    66916.21052631579,
                                    92192.11001461989),
                                   (24496.374269005843,
                                    995.104166666657,
                                    66916.21052631579,
                                    92407.68896198829),
                                   (24260.58479532163,
                                    995.104166666657,
                                    66916.21052631579,
                                    92171.89948830407)],
                       'counters': [('comm_bytes', 92160.0),
                                    ('comm_bytes.dev0->dev1', 7680.0),
                                    ('comm_bytes.dev0->dev2', 7680.0),
                                    ('comm_bytes.dev0->dev3', 7680.0),
                                    ('comm_bytes.dev1->dev0', 7680.0),
                                    ('comm_bytes.dev1->dev2', 7680.0),
                                    ('comm_bytes.dev1->dev3', 7680.0),
                                    ('comm_bytes.dev2->dev0', 7680.0),
                                    ('comm_bytes.dev2->dev1', 7680.0),
                                    ('comm_bytes.dev2->dev3', 7680.0),
                                    ('comm_bytes.dev3->dev0', 7680.0),
                                    ('comm_bytes.dev3->dev1', 7680.0),
                                    ('comm_bytes.dev3->dev2', 7680.0),
                                    ('compress.bytes_on_wire', 92160.0),
                                    ('compress.bytes_uncompressed', 294912.0),
                                    ('compress.decode_ns', 754.5263157894736),
                                    ('compress.encode_ns', 754.5263157894736),
                                    ('compress.error_elems', 73728.0),
                                    ('compress.max_abs_error', 0.0009770444594323635),
                                    ('compress.sq_error', 0.0004992170608665396)]},
 'pgas+cache': {'timings': [(25566.900584795323, 0.0, 0.0, 25566.900584795323),
                            (25667.409356725148, 0.0, 0.0, 25667.409356725148),
                            (25574.567251461987, 0.0, 0.0, 25574.567251461987)],
                'counters': [('cache.evictions.dev0', 0.0),
                             ('cache.evictions.dev1', 0.0),
                             ('cache.evictions.dev2', 0.0),
                             ('cache.evictions.dev3', 0.0),
                             ('cache.hits.dev0', 4723.0),
                             ('cache.hits.dev1', 4570.0),
                             ('cache.hits.dev2', 4463.0),
                             ('cache.hits.dev3', 4640.0),
                             ('cache.misses.dev0', 0.0),
                             ('cache.misses.dev1', 0.0),
                             ('cache.misses.dev2', 0.0),
                             ('cache.misses.dev3', 0.0),
                             ('pgas_bytes', 33920.0),
                             ('pgas_bytes.dev0->dev1', 2816.0),
                             ('pgas_bytes.dev0->dev2', 3328.0),
                             ('pgas_bytes.dev0->dev3', 2624.0),
                             ('pgas_bytes.dev1->dev0', 2048.0),
                             ('pgas_bytes.dev1->dev2', 2624.0),
                             ('pgas_bytes.dev1->dev3', 2304.0),
                             ('pgas_bytes.dev2->dev0', 3200.0),
                             ('pgas_bytes.dev2->dev1', 3200.0),
                             ('pgas_bytes.dev2->dev3', 3712.0),
                             ('pgas_bytes.dev3->dev0', 2624.0),
                             ('pgas_bytes.dev3->dev1', 2560.0),
                             ('pgas_bytes.dev3->dev2', 2880.0)]},
 'baseline+cache': {'timings': [(22818.900584795323,
                                 852.875,
                                 52334.22222222222,
                                 76005.99780701754),
                                (22899.742690058483,
                                 867.1041666666715,
                                 52398.22222222222,
                                 76165.06907894737),
                                (22818.90058479531,
                                 852.875,
                                 52341.33333333334,
                                 76013.10891812865)],
                    'counters': [('cache.evictions.dev0', 0.0),
                                 ('cache.evictions.dev1', 0.0),
                                 ('cache.evictions.dev2', 0.0),
                                 ('cache.evictions.dev3', 0.0),
                                 ('cache.hits.dev0', 4723.0),
                                 ('cache.hits.dev1', 4570.0),
                                 ('cache.hits.dev2', 4463.0),
                                 ('cache.hits.dev3', 4640.0),
                                 ('cache.misses.dev0', 0.0),
                                 ('cache.misses.dev1', 0.0),
                                 ('cache.misses.dev2', 0.0),
                                 ('cache.misses.dev3', 0.0),
                                 ('comm_bytes', 33920.0),
                                 ('comm_bytes.dev0->dev1', 2816.0),
                                 ('comm_bytes.dev0->dev2', 3328.0),
                                 ('comm_bytes.dev0->dev3', 2624.0),
                                 ('comm_bytes.dev1->dev0', 2048.0),
                                 ('comm_bytes.dev1->dev2', 2624.0),
                                 ('comm_bytes.dev1->dev3', 2304.0),
                                 ('comm_bytes.dev2->dev0', 3200.0),
                                 ('comm_bytes.dev2->dev1', 3200.0),
                                 ('comm_bytes.dev2->dev3', 3712.0),
                                 ('comm_bytes.dev3->dev0', 2624.0),
                                 ('comm_bytes.dev3->dev1', 2560.0),
                                 ('comm_bytes.dev3->dev2', 2880.0)]},
 'pgas+resilient': {'timings': [(24771.742690058483, 0.0, 0.0, 249478.43162567343),
                                (24987.32163742691, 0.0, 0.0, 235912.6815748426),
                                (24751.532163742697, 0.0, 0.0, 267736.29958568915)],
                    'counters': [('faults.degraded_bags', 4608.0),
                                 ('faults.rerouted_bytes', 147456.0),
                                 ('faults.rerouted_bytes.delivered', 73728.0),
                                 ('faults.rerouted_bytes.dev1->dev2', 73728.0),
                                 ('faults.rerouted_bytes.dev2->dev0', 73728.0),
                                 ('faults.retries', 9.0),
                                 ('faults.windows', 1.0),
                                 ('pgas_bytes', 811008.0),
                                 ('pgas_bytes.dev0->dev1', 73728.0),
                                 ('pgas_bytes.dev0->dev2', 73728.0),
                                 ('pgas_bytes.dev0->dev3', 73728.0),
                                 ('pgas_bytes.dev1->dev2', 73728.0),
                                 ('pgas_bytes.dev1->dev3', 73728.0),
                                 ('pgas_bytes.dev2->dev0', 73728.0),
                                 ('pgas_bytes.dev2->dev1', 73728.0),
                                 ('pgas_bytes.dev2->dev3', 73728.0),
                                 ('pgas_bytes.dev3->dev0', 73728.0),
                                 ('pgas_bytes.dev3->dev1', 73728.0),
                                 ('pgas_bytes.dev3->dev2', 73728.0)]},
 'baseline+resilient': {'timings': [(22771.742690058483,
                                     0.0,
                                     52000.0,
                                     299478.43162567343),
                                    (22987.321637426852,
                                     0.0,
                                     52000.0,
                                     285912.68157484254),
                                    (22751.532163742697,
                                     0.0,
                                     52000.0,
                                     317736.2995856892)],
                        'counters': [('comm_bytes', 811008.0),
                                     ('comm_bytes.dev0->dev1', 73728.0),
                                     ('comm_bytes.dev0->dev2', 73728.0),
                                     ('comm_bytes.dev0->dev3', 73728.0),
                                     ('comm_bytes.dev1->dev2', 73728.0),
                                     ('comm_bytes.dev1->dev3', 73728.0),
                                     ('comm_bytes.dev2->dev0', 73728.0),
                                     ('comm_bytes.dev2->dev1', 73728.0),
                                     ('comm_bytes.dev2->dev3', 73728.0),
                                     ('comm_bytes.dev3->dev0', 73728.0),
                                     ('comm_bytes.dev3->dev1', 73728.0),
                                     ('comm_bytes.dev3->dev2', 73728.0),
                                     ('faults.degraded_bags', 4608.0),
                                     ('faults.rerouted_bytes', 147456.0),
                                     ('faults.rerouted_bytes.delivered', 73728.0),
                                     ('faults.rerouted_bytes.dev1->dev2', 73728.0),
                                     ('faults.rerouted_bytes.dev2->dev0', 73728.0),
                                     ('faults.retries', 9.0),
                                     ('faults.windows', 1.0)]},
 'pgas+replicated': {'timings': [(31094.666666666664, 0.0, 0.0, 31094.666666666664),
                                 (30651.53216374269, 0.0, 0.0, 30651.53216374269),
                                 (30398.900584795323, 0.0, 0.0, 30398.900584795323)],
                     'counters': [('availability.batch_lookups', 24520.0),
                                  ('availability.detection_ns', 9999.0),
                                  ('availability.failover_lookups', 6284.0),
                                  ('availability.failures', 1.0),
                                  ('availability.recovery_bytes', 1048576.0),
                                  ('availability.recovery_bytes.dev0->dev2', 524288.0),
                                  ('availability.recovery_bytes.dev2->dev3', 524288.0),
                                  ('faults.windows', 1.0),
                                  ('pgas_bytes', 294912.0),
                                  ('pgas_bytes.dev0->dev1', 36864.0),
                                  ('pgas_bytes.dev0->dev2', 36864.0),
                                  ('pgas_bytes.dev0->dev3', 36864.0),
                                  ('pgas_bytes.dev2->dev0', 36864.0),
                                  ('pgas_bytes.dev2->dev1', 36864.0),
                                  ('pgas_bytes.dev2->dev3', 36864.0),
                                  ('pgas_bytes.dev3->dev0', 24576.0),
                                  ('pgas_bytes.dev3->dev1', 24576.0),
                                  ('pgas_bytes.dev3->dev2', 24576.0)]},
 'baseline+replicated': {'timings': [(27140.584795321636,
                                      2075.9999999999927,
                                      55640.88888888889,
                                      84857.47368421052),
                                     (27231.532163742682,
                                      2076.0,
                                      55640.888888888876,
                                      84948.42105263156),
                                     (26978.900584795338,
                                      2076.0,
                                      55640.888888888876,
                                      84695.78947368421)],
                         'counters': [('availability.batch_lookups', 24520.0),
                                      ('availability.detection_ns', 9999.0),
                                      ('availability.failover_lookups', 6284.0),
                                      ('availability.failures', 1.0),
                                      ('availability.recovery_bytes', 1310720.0),
                                      ('availability.recovery_bytes.dev0->dev2',
                                       524288.0),
                                      ('availability.recovery_bytes.dev2->dev3',
                                       524288.0),
                                      ('availability.recovery_bytes.dev3->dev2',
                                       262144.0),
                                      ('availability.time_to_reprotect_ns',
                                       133225.66666666663),
                                      ('comm_bytes', 294912.0),
                                      ('comm_bytes.dev0->dev1', 36864.0),
                                      ('comm_bytes.dev0->dev2', 36864.0),
                                      ('comm_bytes.dev0->dev3', 36864.0),
                                      ('comm_bytes.dev2->dev0', 36864.0),
                                      ('comm_bytes.dev2->dev1', 36864.0),
                                      ('comm_bytes.dev2->dev3', 36864.0),
                                      ('comm_bytes.dev3->dev0', 24576.0),
                                      ('comm_bytes.dev3->dev1', 24576.0),
                                      ('comm_bytes.dev3->dev2', 24576.0),
                                      ('faults.windows', 1.0)]},
 'pgas+reshard': {'timings': [(30142.900584795323, 0.0, 0.0, 30142.900584795323),
                              (30240.584795321636, 0.0, 0.0, 30240.584795321636),
                              (30388.795321637437, 0.0, 0.0, 30388.795321637437)],
                  'counters': [('pgas_bytes', 294912.0),
                               ('pgas_bytes.dev0->dev1', 12288.0),
                               ('pgas_bytes.dev0->dev2', 12288.0),
                               ('pgas_bytes.dev0->dev3', 12288.0),
                               ('pgas_bytes.dev1->dev0', 24576.0),
                               ('pgas_bytes.dev1->dev2', 24576.0),
                               ('pgas_bytes.dev1->dev3', 24576.0),
                               ('pgas_bytes.dev2->dev0', 24576.0),
                               ('pgas_bytes.dev2->dev1', 24576.0),
                               ('pgas_bytes.dev2->dev3', 24576.0),
                               ('pgas_bytes.dev3->dev0', 36864.0),
                               ('pgas_bytes.dev3->dev1', 36864.0),
                               ('pgas_bytes.dev3->dev2', 36864.0)]},
 'baseline+reshard': {'timings': [(26722.900584795323,
                                   2076.0,
                                   55185.77777777778,
                                   83984.6783625731),
                                  (26820.584795321643,
                                   2076.0,
                                   55185.77777777778,
                                   84082.36257309942),
                                  (26968.795321637415,
                                   2076.0,
                                   55185.77777777778,
                                   84230.5730994152)],
                      'counters': [('comm_bytes', 294912.0),
                                   ('comm_bytes.dev0->dev1', 12288.0),
                                   ('comm_bytes.dev0->dev2', 12288.0),
                                   ('comm_bytes.dev0->dev3', 12288.0),
                                   ('comm_bytes.dev1->dev0', 24576.0),
                                   ('comm_bytes.dev1->dev2', 24576.0),
                                   ('comm_bytes.dev1->dev3', 24576.0),
                                   ('comm_bytes.dev2->dev0', 24576.0),
                                   ('comm_bytes.dev2->dev1', 24576.0),
                                   ('comm_bytes.dev2->dev3', 24576.0),
                                   ('comm_bytes.dev3->dev0', 36864.0),
                                   ('comm_bytes.dev3->dev1', 36864.0),
                                   ('comm_bytes.dev3->dev2', 36864.0)]},
 'pgas+hier': {'timings': [(32974.15417331207, 0.0, 0.0, 32974.15417331207),
                           (33220.048910154175, 0.0, 0.0, 33220.048910154175),
                           (32846.15417331208, 0.0, 0.0, 32846.15417331208)],
               'counters': [('hier.flushes', 6.0),
                            ('hier.fwd_bytes', 98304.0),
                            ('hier.fwd_bytes.dev1->dev0', 49152.0),
                            ('hier.fwd_bytes.dev3->dev2', 49152.0),
                            ('hier.nic_bytes', 196608.0),
                            ('hier.nic_bytes.dev0->dev2', 98304.0),
                            ('hier.nic_bytes.dev2->dev0', 98304.0),
                            ('hier.nic_transfers', 6.0),
                            ('hier.scatter_bytes', 98304.0),
                            ('hier.scatter_bytes.dev0->dev1', 49152.0),
                            ('hier.scatter_bytes.dev2->dev3', 49152.0),
                            ('hier.stores', 24.0),
                            ('pgas_bytes', 98304.0),
                            ('pgas_bytes.dev0->dev1', 24576.0),
                            ('pgas_bytes.dev1->dev0', 24576.0),
                            ('pgas_bytes.dev2->dev3', 24576.0),
                            ('pgas_bytes.dev3->dev2', 24576.0)]},
 'baseline+hier': {'timings': [(22771.74269005848,
                                8609.602272727265,
                                54730.66666666667,
                                86112.01162945242),
                               (22987.321637426896,
                                8609.602272727265,
                                54730.66666666666,
                                86327.59057682082),
                               (22751.532163742697,
                                8609.602272727265,
                                54730.66666666666,
                                86091.80110313662)],
                   'counters': [('comm_bytes', 98304.0),
                                ('comm_bytes.dev0->dev1', 24576.0),
                                ('comm_bytes.dev1->dev0', 24576.0),
                                ('comm_bytes.dev2->dev3', 24576.0),
                                ('comm_bytes.dev3->dev2', 24576.0),
                                ('hier.fwd_bytes', 98304.0),
                                ('hier.fwd_bytes.dev1->dev0', 49152.0),
                                ('hier.fwd_bytes.dev3->dev2', 49152.0),
                                ('hier.nic_bytes', 196608.0),
                                ('hier.nic_bytes.dev0->dev2', 98304.0),
                                ('hier.nic_bytes.dev2->dev0', 98304.0),
                                ('hier.nic_transfers', 6.0),
                                ('hier.scatter_bytes', 98304.0),
                                ('hier.scatter_bytes.dev0->dev1', 49152.0),
                                ('hier.scatter_bytes.dev2->dev3', 49152.0)]}}


@pytest.mark.parametrize("name", NAMES)
def test_feature_backend_matches_golden(name):
    got = run_case(name)
    want = GOLDEN[name]
    assert got["timings"] == want["timings"]
    assert got["counters"] == want["counters"]


if __name__ == "__main__":
    print("GOLDEN: Dict[str, Dict[str, object]] = " + pprint.pformat(
        {name: run_case(name) for name in NAMES}, width=88, sort_dicts=False
    ))
