"""Replicated distributed retrieval: the ``"+replicated"`` backends.

:class:`ReplicatedRetrieval` wraps either base backend (``pgas`` or
``baseline``) with a high-availability layer over the table shards:

* **replica placement** — every table's weights live on its primary
  owner plus ``k - 1`` replica devices chosen by the
  :class:`~repro.replication.spec.ReplicationSpec`; replica storage is
  charged against the real per-device
  :class:`~repro.simgpu.memory.MemoryPool`, so an over-committed ``k``
  raises :class:`~repro.simgpu.memory.OutOfDeviceMemory` at
  construction;
* **failure detection** — a heartbeat monitor on the engine clock probes
  every device each ``heartbeat_interval_ns``; a device whose permanent
  ``device_down`` fault has fired misses consecutive probes and is
  declared failed after ``miss_threshold`` misses (detection latency is
  bounded by ``interval * miss_threshold``);
* **failover routing** — once a primary is declared failed, its tables'
  lookup blocks are rerouted to the nearest live replica by rebuilding
  the per-device workloads under the effective ownership (which
  recomputes the baseline's all-to-all splits and the PGAS put targets
  for free, since both paths derive their wire traffic from the
  workloads' ``block_dst_bytes``);
* **online recovery** — detection also starts a background engine
  process that re-replicates every shard the dead device held from a
  surviving holder to a fresh device, chunked over the real
  interconnect at a configured bandwidth share.  Recovery bytes are
  stamped on the ``availability.recovery_bytes`` counter *and* its
  per-link variants, so they show up on interconnect rows in Chrome
  traces next to the foreground traffic they compete with.

The healthy path is a pure passthrough: with no failed devices the
wrapper yields the wrapped backend's generator unchanged and stamps
nothing — heartbeat probes are zero-duration no-ops against healthy
devices — so traces, timings, and functional outputs are bit-identical
to the bare base backend.

Counter names are module constants (also read by
``repro.telemetry.metrics`` — keep the ``availability.`` prefix stable).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..core.baseline import PhaseTiming
from ..core.functional import ShardedEmbeddingTables
from ..core.retrieval import FeatureLayer
from ..core.sharding import TableWiseSharding
from ..core.workload import DeviceWorkload, rehome_workloads, table_segments
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from ..simgpu.device import Device
from ..simgpu.memory import OutOfDeviceMemory
from .spec import ReplicationSpec

__all__ = [
    "AvailabilityLedger",
    "BATCH_LOOKUPS_COUNTER",
    "DETECTION_COUNTER",
    "FAILOVER_COUNTER",
    "FAILURES_COUNTER",
    "RECOVERY_COUNTER",
    "REPROTECT_COUNTER",
    "ReplicatedRetrieval",
    "SPAN_CATEGORY",
    "UNAVAILABLE_COUNTER",
]

#: lookups rerouted from a failed primary to a live replica
FAILOVER_COUNTER = "availability.failover_lookups"
#: lookups dropped because no live replica held the table
UNAVAILABLE_COUNTER = "availability.unavailable_lookups"
#: total lookups of batches that ran while a failure was active
BATCH_LOOKUPS_COUNTER = "availability.batch_lookups"
#: re-replication bytes (per-link variants appear in Chrome traces)
RECOVERY_COUNTER = "availability.recovery_bytes"
#: failure-detection latency (down edge -> declared failed), ns per failure
DETECTION_COUNTER = "availability.detection_ns"
#: down edge -> replication factor restored, ns per recovered failure
REPROTECT_COUNTER = "availability.time_to_reprotect_ns"
#: devices declared failed by the heartbeat detector
FAILURES_COUNTER = "availability.failures"
#: profiler span category of detection/recovery extents
SPAN_CATEGORY = "availability"


@dataclass
class AvailabilityLedger:
    """Python-side per-adapter availability accounting (never stamped on
    healthy batches, so it cannot perturb trace byte-identity)."""

    batches: int = 0
    impaired_batches: int = 0
    lookups_total: int = 0
    failover_lookups: int = 0
    unavailable_lookups: int = 0

    @property
    def availability(self) -> float:
        """Fraction of all lookups served (from a primary or a replica)."""
        if self.lookups_total == 0:
            return 1.0
        return 1.0 - self.unavailable_lookups / self.lookups_total

    def as_dict(self) -> Dict[str, float]:
        return {
            "batches": float(self.batches),
            "impaired_batches": float(self.impaired_batches),
            "lookups_total": float(self.lookups_total),
            "failover_lookups": float(self.failover_lookups),
            "unavailable_lookups": float(self.unavailable_lookups),
            "availability": self.availability,
        }


class ReplicatedRetrieval(FeatureLayer):
    """A base retrieval backend with k-way shard replication and failover.

    Standalone use takes a cluster plus sharding plan; as a registered
    backend (``"pgas+replicated"``, ``"baseline+replicated"``) it is
    built from an EMB host and its ``features.replication`` config.
    """

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        spec: Optional[ReplicationSpec] = None,
        *,
        base: str = "pgas",
        collective_spec=None,
        pgas_spec=None,
        sharded: Optional[ShardedEmbeddingTables] = None,
    ):
        super().__init__(
            cluster, plan, base=base, collective_spec=collective_spec,
            pgas_spec=pgas_spec, sharded=sharded,
        )
        self.spec = spec or ReplicationSpec()
        if self.spec.k > cluster.n_devices:
            raise ValueError(
                f"replication factor k={self.spec.k} exceeds the "
                f"{cluster.n_devices}-device cluster"
            )
        G = cluster.n_devices
        #: per-table holder device lists, primary first; recovery appends
        self._holders: List[List[int]] = [
            list(self.spec.replicas_for(plan.owner_of(cfg.name), f, G))
            for f, cfg in enumerate(plan.table_configs)
        ]
        # Replica weight storage is accounted against the real per-device
        # memory pools up front; an over-committed k raises OutOfDeviceMemory.
        self._replica_buffers: List[object] = []
        for f, cfg in enumerate(plan.table_configs):
            for dev_id in self._holders[f][1:]:
                self._replica_buffers.append(
                    cluster.device(dev_id).memory.alloc(
                        (cfg.num_rows, cfg.dim),
                        cfg.dtype,
                        materialize=False,
                        label=f"replica.{cfg.name}",
                    )
                )
        self._failed: Set[int] = set()
        self._misses: Dict[int, int] = {d.id: 0 for d in cluster.devices}
        self._recovery_procs: List[object] = []
        #: down edge -> reprotected latency per recovered device id
        self.reprotect_ns: Dict[int, float] = {}
        self.ledger = AvailabilityLedger()
        # The monitor runs whenever a failure is even possible (G > 1) —
        # detection is independent of k, since a k == 1 failure must still
        # be noticed so its lookups count as unavailable rather than being
        # silently billed to a dead device.  Heartbeat probes are no-op
        # callbacks while every device is healthy, so they stamp nothing
        # and consume no simulated time: healthy traces, timings, and
        # outputs stay bit-identical to the bare base backend.
        if G > 1:
            cluster.engine.call_in(self.spec.heartbeat_interval_ns, self._heartbeat)

    # -- failure detection -------------------------------------------------------

    @property
    def failed_devices(self) -> Tuple[int, ...]:
        """Devices the heartbeat detector has declared failed, sorted."""
        return tuple(sorted(self._failed))

    def _heartbeat(self) -> None:
        engine = self.cluster.engine
        for dev in self.cluster.devices:
            if dev.id in self._failed:
                continue
            if dev.is_down:
                self._misses[dev.id] += 1
                if self._misses[dev.id] >= self.spec.miss_threshold:
                    self._declare_failed(dev)
            else:
                self._misses[dev.id] = 0
        engine.call_in(self.spec.heartbeat_interval_ns, self._heartbeat)

    def _declare_failed(self, dev: Device) -> None:
        engine = self.cluster.engine
        prof = self.cluster.profiler
        now = engine.now
        self._failed.add(dev.id)
        prof.record_span(
            f"availability.detect.dev{dev.id}", SPAN_CATEGORY, dev.id, dev.down_since, now
        )
        prof.add_count(FAILURES_COUNTER, now, 1.0, unit="failures")
        prof.add_count(DETECTION_COUNTER, now, now - dev.down_since, unit="ns")
        jobs = self._plan_recovery(dev.id)
        if jobs:
            proc = engine.process(
                self._recovery_process(dev, jobs), name=f"recover.dev{dev.id}"
            )
            self._recovery_procs.append(proc)

    # -- online recovery ---------------------------------------------------------

    def _plan_recovery(self, failed_id: int) -> List[Tuple[int, int, int]]:
        """Re-replication jobs ``(table_index, src, target)`` for one failure.

        Each table the dead device held gets one new copy, streamed from
        the nearest (first) live holder to the first live non-holder with
        enough free memory.  Target buffers are reserved now so the space
        is committed before any bytes move.
        """
        jobs: List[Tuple[int, int, int]] = []
        G = self.cluster.n_devices
        for f, cfg in enumerate(self.table_plan.table_configs):
            holders = self._holders[f]
            if failed_id not in holders:
                continue
            live = [h for h in holders if h not in self._failed]
            if not live:
                continue  # nothing left to copy from: the table is unavailable
            src = live[0]
            for step in range(G):
                cand = (failed_id + 1 + step) % G
                if cand in holders or cand in self._failed:
                    continue
                try:
                    self._replica_buffers.append(
                        self.cluster.device(cand).memory.alloc(
                            (cfg.num_rows, cfg.dim),
                            cfg.dtype,
                            materialize=False,
                            label=f"replica.{cfg.name}",
                        )
                    )
                except OutOfDeviceMemory:
                    continue
                jobs.append((f, src, cand))
                break
        return jobs

    def _recovery_process(self, dev: Device, jobs: List[Tuple[int, int, int]]):
        """Engine process: stream lost shards to fresh replicas, paced to the
        configured bandwidth share, then stamp the reprotect latency."""
        engine = self.cluster.engine
        share = self.spec.recovery_bandwidth_share
        for f, src, target in jobs:
            cfg = self.table_plan.table_configs[f]
            remaining = float(cfg.nbytes)
            while remaining > 0:
                size = min(float(self.spec.recovery_chunk_bytes), remaining)
                remaining -= size
                t0 = engine.now
                yield self.cluster.interconnect.transfer(
                    src, target, size, counter=RECOVERY_COUNTER
                )
                if share < 1.0:
                    # Pacing: after a chunk occupies the link for dt, idle
                    # long enough that this stream averages share * bandwidth.
                    pause = (engine.now - t0) * (1.0 / share - 1.0)
                    if pause > 0:
                        yield engine.timeout(pause)
            self._holders[f].append(target)
        now = engine.now
        elapsed = now - dev.down_since
        self.reprotect_ns[dev.id] = elapsed
        prof = self.cluster.profiler
        prof.record_span(
            f"availability.reprotect.dev{dev.id}", SPAN_CATEGORY, dev.id, dev.down_since, now
        )
        prof.add_count(REPROTECT_COUNTER, now, elapsed, unit="ns")

    def wait_for_reprotect(self, limit_ns: Optional[float] = None) -> None:
        """Run the simulated clock forward until pending recoveries finish.

        Recovery processes outlive the batch that detected the failure;
        call this (e.g. at the end of a benchmark) to let them drain.
        No-op when nothing is recovering.
        """
        engine = self.cluster.engine
        pending = [p for p in self._recovery_procs if not p.triggered]
        if not pending:
            return
        engine.run_until_event(engine.all_of(pending), limit=limit_ns)

    # -- failover routing --------------------------------------------------------

    def effective_owners(self) -> Dict[str, Optional[int]]:
        """Current serving device per table: the first live holder in
        placement order, or ``None`` when every holder is dead."""
        owners: Dict[str, Optional[int]] = {}
        for f, cfg in enumerate(self.table_plan.table_configs):
            live = [h for h in self._holders[f] if h not in self._failed]
            owners[cfg.name] = live[0] if live else None
        return owners

    def _failover_workloads(
        self, workloads: Sequence[DeviceWorkload]
    ) -> Tuple[List[DeviceWorkload], int, int]:
        """Rebuild per-device workloads under the effective ownership.

        Built on the shared :func:`~repro.core.workload.table_segments` /
        :func:`~repro.core.workload.rehome_workloads` machinery (also used
        by reshard migration cutover): each table's block segment is
        lifted out of its dead primary's workload and re-homed exactly,
        with ``block_dst_bytes`` columns needing no adjustment.  Returns
        ``(workloads, failover_nnz, unavailable_nnz)``.
        """
        plan = self.table_plan
        owners = self.effective_owners()
        segments = table_segments(plan, workloads)
        moved = 0
        unavailable = 0
        for cfg in plan.table_configs:
            eff = owners[cfg.name]
            nnz = segments[cfg.name][2] if cfg.name in segments else 0
            if eff is None:
                unavailable += nnz
            elif eff != plan.owner_of(cfg.name):
                moved += nnz
        try:
            out = rehome_workloads(plan, workloads, owners)
        except ValueError as exc:
            if "mix row byte sizes" in str(exc):
                raise ValueError(
                    "failover would mix row byte sizes on one device; "
                    "replicated failover needs tables of equal row_bytes"
                ) from exc
            raise
        return out, moved, unavailable

    # -- timed path --------------------------------------------------------------

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ):
        """Process generator for one batch, failing over around any detected
        failures.  With no detected failures this is the wrapped backend's
        generator, event for event."""
        if not self._failed:
            yield from self.inner.batch_process(
                cluster, workloads, timing, stream_suffix=stream_suffix
            )
            self._ledger_batch(workloads, moved=0, unavailable=0, impaired=False)
            return
        adjusted, moved, unavailable = self._failover_workloads(list(workloads))
        yield from self.inner.batch_process(
            cluster, adjusted, timing, stream_suffix=stream_suffix
        )
        self._ledger_batch(workloads, moved=moved, unavailable=unavailable, impaired=True)
        self._stamp_counters(workloads, moved, unavailable)

    def _ledger_batch(
        self,
        workloads: Sequence[DeviceWorkload],
        *,
        moved: int,
        unavailable: int,
        impaired: bool,
    ) -> None:
        led = self.ledger
        led.batches += 1
        led.lookups_total += int(sum(wl.nnz for wl in workloads))
        led.failover_lookups += moved
        led.unavailable_lookups += unavailable
        if impaired:
            led.impaired_batches += 1

    def _stamp_counters(
        self, workloads: Sequence[DeviceWorkload], moved: int, unavailable: int
    ) -> None:
        # Only impaired batches stamp anything (and only non-zero deltas),
        # so healthy traces stay byte-identical to the bare backend.
        prof = self.cluster.profiler
        t = self.cluster.engine.now
        total = float(sum(wl.nnz for wl in workloads))
        prof.add_count(BATCH_LOOKUPS_COUNTER, t, total, unit="lookups")
        if moved:
            prof.add_count(FAILOVER_COUNTER, t, float(moved), unit="lookups")
        if unavailable:
            prof.add_count(UNAVAILABLE_COUNTER, t, float(unavailable), unit="lookups")

    # -- functional path ---------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward honouring the current failover routing.

        Replicas alias the primary's weights, so as long as every table
        has a live holder the outputs are bit-identical to the healthy
        reference; tables with no live holder are zero-filled.
        """
        if not self._failed:
            return self.inner.functional_forward(batch)
        if self.sharded is None:
            raise ValueError("functional forward needs materialize=True weights")
        plan = self.table_plan
        owners = self.effective_owners()
        # The re-shard must stay an exact partition, so tables with no live
        # holder keep their dead primary here and are zeroed afterwards.
        assignment = {
            name: (dev if dev is not None else plan.owner_of(name))
            for name, dev in owners.items()
        }
        outputs = self.inner.functional_forward(
            batch, sharded=self.sharded.reassigned(assignment)
        )
        for name, dev in owners.items():
            if dev is None:
                fidx = plan.feature_index(name)
                for out in outputs:
                    out[:, fidx, :] = 0.0
        return outputs

    # -- reporting ---------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Cross-batch availability totals (Python-side ledger)."""
        d = self.ledger.as_dict()
        d["failures_detected"] = float(len(self._failed))
        d["time_to_reprotect_ns"] = (
            max(self.reprotect_ns.values()) if self.reprotect_ns else 0.0
        )
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReplicatedRetrieval base={self.base_name} k={self.spec.k} "
            f"placement={self.spec.placement} failed={sorted(self._failed)}>"
        )
