"""``fabric-4x8``: timing-only EMB forward on 4 nodes x 8 GPUs.

16 tables per GPU (512 in all), d = 64, batch 16384, pooling 0..32.  The
weights are never materialised, so the host time is all simulator: the
pgas backend sends one link transfer per destination per kernel wave,
and the baseline spends most of a batch in ``core.workload``'s unpack
accounting.  Every round runs on a freshly built cluster.  Each operation
is one batch on one backend: the benchmark times
``DistributedEmbedding.build_workloads`` and
``backend_adapter(be).run_timed`` and checks that the payload bytes the
interconnect delivered (its ``comm_bytes`` and ``pgas_bytes`` counters)
equal the off-diagonal all-to-all split.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

import numpy as np

from harness import EVENT_LOOP_PACE, NUMPY_PACE, Outcome, Recorder, Workload, sample_percentile
from metrics import BACKENDS
from repro import DistributedEmbedding, SyntheticDataGenerator, WorkloadConfig
from repro.comm.pgas import PGASContext
from repro.core.workload import alltoall_split_bytes
from repro.simgpu.cluster import multinode
from repro.simgpu.interconnect import Interconnect

NODES, GPUS_PER_NODE, TABLES_PER_GPU = 4, 8, 16
#: ``Recorder`` pace of each call: pgas ``run_timed`` is the event loop; the
#: baseline's ``run_timed`` spends two thirds of its time in ``ufunc.reduce``
#: (``core.workload``'s unpack accounting), ``build_workloads`` most of its
#: in ``astype`` and ``reduceat``.
PACE = {"pgas.run_timed": EVENT_LOOP_PACE, "baseline.run_timed": NUMPY_PACE,
        "build_workloads": NUMPY_PACE}


def link_totals(cluster) -> Dict[str, float]:
    """Transfers, messages and wire bytes summed over every link so far."""
    links = cluster.interconnect.links()
    return {
        "transfers": float(sum(lk.transfer_count for lk in links)),
        "messages": float(sum(lk.messages_sent for lk in links)),
        "wire_bytes": float(sum(lk.bytes_carried for lk in links)),
    }


def link_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    """Per-operation link work."""
    return {k: after[k] - before[k] for k in before}


def delivered_bytes(cluster) -> float:
    """Payload bytes the interconnect delivered: collective plus one-sided."""
    counters = cluster.profiler.counters
    return float(sum(
        counters[name].total
        for name in (Interconnect.COUNTER, PGASContext.COUNTER) if name in counters
    ))


def delivered_matches_split(delivered: float, split: np.ndarray) -> bool:
    """The output check: delivered payload == off-diagonal split bytes."""
    off_diagonal = float(split.sum() - np.trace(split))
    # Byte totals summed in different orders agree to rounding, not bitwise.
    return math.isclose(delivered, off_diagonal, rel_tol=1e-9)


class Fabric(Workload):
    name = "fabric-4x8"
    why = ("32-GPU timing-only EMB forward: host time is all simulator (event heap, links, "
           "PGAS puts, workload accounting); the numpy gather/pool is absent")
    distinct = 3
    fresh_state = True

    def __init__(self, seed: int):
        self.config = WorkloadConfig(
            num_tables=TABLES_PER_GPU * NODES * GPUS_PER_NODE,
            rows_per_table=1_000_000,
            dim=64,
            batch_size=16_384,
            max_pooling=32,
            seed=seed,
        )
        gen = SyntheticDataGenerator(self.config)
        self.inputs = [gen.lengths_batch() for _ in range(self.distinct)]
        self.rows = [int(sum(int(v.sum()) for v in lengths.values()))
                     for lengths in self.inputs]

    def build(self) -> DistributedEmbedding:
        emb = DistributedEmbedding(
            self.config, NODES * GPUS_PER_NODE, backend="pgas",
            cluster=multinode(NODES, GPUS_PER_NODE),
        )
        for be in BACKENDS:
            emb.backend_adapter(be)
        return emb

    def round(self, emb: DistributedEmbedding, j: int, rec: Recorder, out: Outcome) -> Any:
        i = j % self.distinct
        lengths = self.inputs[i]
        cluster = emb.cluster
        entry: Dict[str, Any] = {}
        for be in (BACKENDS if j % 2 == 0 else BACKENDS[::-1]):
            what = f"{self.name} round {j} {be}"
            try:
                cluster.reset_profiler()
                links0 = link_totals(cluster)
                with rec.span(f"{be}.build_workloads", profile=be, pace=PACE["build_workloads"]):
                    workloads = emb.build_workloads(lengths)
                with rec.span(f"{be}.run_timed", profile=be, pace=PACE[f"{be}.run_timed"]):
                    timing = emb.backend_adapter(be).run_timed(workloads)
                rec.counts.setdefault("rows", []).append(self.rows[i])
                with rec.span("oracle.check"):
                    delivered = delivered_bytes(cluster)
                    ok = delivered_matches_split(delivered, alltoall_split_bytes(workloads))
                out.check(ok, f"{what}: delivered {delivered} B != all-to-all split")
                entry[be] = {
                    **timing.as_dict(),
                    **link_delta(links0, link_totals(cluster)),
                    "profiler_spans": len(cluster.profiler.spans),
                    "delivered_bytes": delivered,
                }
            except Exception as exc:  # one failed operation; keep measuring
                out.op_raised(what, exc)
        cluster.reset_profiler()
        return entry

    # -- metrics -----------------------------------------------------------------

    def _calls(self, be: str):
        return f"{be}.build_workloads", f"{be}.run_timed"

    def _sim(self, sims: List[Any], be: str, key: str) -> np.ndarray:
        return np.array([e[be][key] for e in sims], dtype=np.float64)

    def end_to_end(self, sims, rec, out) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for be in BACKENDS:
            metrics[f"{be}.sim_batches_per_s"] = 1e3 / rec.mean_ms(*self._calls(be), scaled=True)
            out.table[f"{be}.unscaled_batches_per_s"] = (1e3 / rec.mean_ms(*self._calls(be)), "1/s")
            total_ms = self._sim(sims, be, "total_ns") / 1e6
            weights = np.full(total_ms.size, self.config.batch_size)
            metrics[f"{be}.sim_ms_per_batch"] = float(total_ms.mean())
            metrics[f"{be}.sim_p50_ms"] = sample_percentile(total_ms, weights, 50)
            metrics[f"{be}.sim_p99_ms"] = sample_percentile(total_ms, weights, 99)
            out.table[f"{be}.sim_requests_per_s"] = (
                self.config.batch_size * metrics[f"{be}.sim_batches_per_s"], "1/s")
        calls = [c for be in BACKENDS for c in self._calls(be)]
        metrics["lookup_rows_per_s"] = rec.work("rows") / rec.total(*calls, scaled=True)
        return metrics

    def per_layer(self, sims, rec, out) -> Dict[str, float]:
        builds = [f"{be}.build_workloads" for be in BACKENDS]
        metrics: Dict[str, float] = {
            "core.workload.build_ms": rec.mean_ms(*builds),
            "oracle.check_ms": rec.mean_ms("oracle.check"),
        }
        for be in BACKENDS:
            host_ms = sum(rec.mean_ms(c) for c in self._calls(be))
            transfers = float(self._sim(sims, be, "transfers").mean())
            metrics[f"{be}.host_ms_per_batch"] = host_ms
            metrics[f"{be}.host_us_per_transfer"] = 1e3 * host_ms / transfers
            metrics[f"{be}.link_transfers"] = transfers
            metrics[f"{be}.link_messages"] = float(self._sim(sims, be, "messages").mean())
            metrics[f"{be}.wire_mb"] = float(self._sim(sims, be, "wire_bytes").mean()) / 1e6
            metrics[f"{be}.profiler_spans"] = float(
                self._sim(sims, be, "profiler_spans").mean())
            for phase in ("compute", "comm", "sync_unpack"):
                metrics[f"{be}.sim_{phase}_ms"] = float(
                    self._sim(sims, be, f"{phase}_ns").mean()) / 1e6
            metrics[f"{be}.sim_emb_fwd_ms"] = float(self._sim(sims, be, "total_ns").mean()) / 1e6
        return metrics
