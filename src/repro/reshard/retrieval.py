"""Skew-aware online resharding: the ``"+reshard"`` backends.

:class:`ReshardRetrieval` wraps either base backend (``pgas`` or
``baseline``) with a closed-loop load balancer over table placement:

* **observe** — after every batch the wrapper feeds the per-table
  retrieval bytes (recovered exactly from the workloads'
  block segments via :func:`~repro.core.workload.table_segments`) into a
  sliding-window :class:`~repro.reshard.tracker.LoadTracker`;
* **plan** — every ``check_interval_batches`` batches the
  :class:`~repro.reshard.planner.ReshardPlanner` compares the windowed
  max/mean per-device traffic against the spec threshold and, when the
  placement is skewed, emits a bounded
  :class:`~repro.reshard.planner.MigrationPlan`;
* **migrate** — the :class:`~repro.reshard.executor.ReshardExecutor`
  streams each moving table's weights over the simulated interconnect in
  background engine processes, chunked and paced to a bandwidth share so
  foreground batches keep the rest of the link;
* **cutover** — a batch snapshots the ownership map when its generator
  starts, and a migrating table flips owner only when its last chunk has
  landed, so **no batch ever observes a half-migrated table**; weights
  are aliased by name and outputs partition by sample, so functional
  outputs are bit-identical before, during, and after any migration.

Under uniform traffic the planner provably proposes nothing (max/mean is
~1.0, below any legal threshold), no counter is stamped and no process is
spawned, so zero-skew runs are event-for-event identical to the bare
base backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.baseline import PhaseTiming
from ..core.functional import ShardedEmbeddingTables
from ..core.retrieval import FeatureLayer
from ..core.sharding import ShardingError, TableWiseSharding
from ..core.workload import DeviceWorkload, rehome_workloads, table_segments
from ..dlrm.batch import SparseBatch
from ..simgpu.cluster import Cluster
from .executor import (
    ADVISORIES_COUNTER,
    MOVES_COUNTER,
    PLANS_COUNTER,
    ReshardExecutor,
)
from .planner import MigrationPlan, ReshardPlanner, TableMove
from .spec import ReshardSpec
from .tracker import LoadTracker

__all__ = ["ReshardLedger", "ReshardRetrieval"]


@dataclass
class ReshardLedger:
    """Python-side per-adapter resharding tally (never stamped on
    no-migration batches, so it cannot perturb trace bit-identity)."""

    batches: int = 0
    plans_adopted: int = 0
    moves_submitted: int = 0
    advisories: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "batches": float(self.batches),
            "plans_adopted": float(self.plans_adopted),
            "moves_submitted": float(self.moves_submitted),
            "advisories": float(self.advisories),
        }


class ReshardRetrieval(FeatureLayer):
    """A base retrieval backend with skew-aware online table migration.

    Standalone use takes a cluster plus sharding plan; as a registered
    backend (``"pgas+reshard"``, ``"baseline+reshard"``) it is built from
    an EMB host, its ``features.reshard`` config and its
    ``weight_buffers`` (which migration cutover re-homes).
    """

    host_attrs = ("weight_buffers",)

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        spec: Optional[ReshardSpec] = None,
        *,
        base: str = "pgas",
        collective_spec=None,
        pgas_spec=None,
        sharded: Optional[ShardedEmbeddingTables] = None,
        weight_buffers: Optional[Dict[str, object]] = None,
    ):
        super().__init__(
            cluster, plan, base=base, collective_spec=collective_spec,
            pgas_spec=pgas_spec, sharded=sharded,
        )
        self.spec = spec or ReshardSpec()
        self._static_owners: Dict[str, int] = {
            cfg.name: plan.owner_of(cfg.name) for cfg in plan.table_configs
        }
        #: current serving ownership; only cutover (or force_cutover) mutates it
        self._owners: Dict[str, int] = dict(self._static_owners)
        self._row_bytes = {cfg.name: cfg.row_bytes for cfg in plan.table_configs}
        self.tracker = LoadTracker(self.spec.window_batches)
        self.planner = ReshardPlanner(plan, self.spec)
        self.executor = ReshardExecutor(
            cluster, plan, self.spec, weight_buffers=weight_buffers
        )
        #: optional hook returning per-table cache hit rates in ``[0, 1]``
        #: (the cache layer's view); tracked traffic shrinks accordingly.
        self.hit_rates_fn: Optional[Callable[[], Mapping[str, float]]] = None
        #: most recent planner verdict (None until the first planning round)
        self.last_plan: Optional[MigrationPlan] = None
        self.ledger = ReshardLedger()

    # -- ownership ---------------------------------------------------------------

    @property
    def owners(self) -> Dict[str, int]:
        """Current serving ownership, table name → device (a copy)."""
        return dict(self._owners)

    def moved_tables(self) -> Dict[str, int]:
        """Tables serving away from their static placement, name → device."""
        return {
            name: dev
            for name, dev in self._owners.items()
            if dev != self._static_owners[name]
        }

    def imbalance(self) -> float:
        """Windowed max/mean device traffic under the current ownership."""
        return self.tracker.imbalance(self._owners, self.table_plan.n_devices)

    def force_cutover(self, table_name: str, dst: int) -> None:
        """Test hook: flip a table's serving owner instantly, no streaming.

        Exists so property tests can interleave ownership changes with
        batches at arbitrary points; production cutover only ever happens
        from the executor's migration stream.
        """
        if table_name not in self._owners:
            raise ShardingError(f"unknown table {table_name!r}")
        if not (0 <= dst < self.table_plan.n_devices):
            raise ShardingError(
                f"device {dst} outside 0..{self.table_plan.n_devices - 1}"
            )
        self._owners[table_name] = dst

    def _on_cutover(self, move: TableMove) -> None:
        self._owners[move.table_name] = move.dst

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
        """Process generator for one batch under the current ownership,
        which it then observes.  Ownership is snapshotted here, at
        generator start: a cutover that fires mid-batch (in simulated
        time) only affects the *next* batch.  While ownership still
        matches the static plan this is the wrapped backend's generator,
        event for event."""
        owners = dict(self._owners)
        if owners == self._static_owners:
            yield from self.inner.batch_process(
                cluster, workloads, timing, stream_suffix=stream_suffix
            )
        else:
            adjusted = rehome_workloads(self.table_plan, list(workloads), owners)
            yield from self.inner.batch_process(
                cluster, adjusted, timing, stream_suffix=stream_suffix
            )
        self._after_batch(list(workloads))

    # -- observe / plan loop -----------------------------------------------------

    def _after_batch(self, workloads: List[DeviceWorkload]) -> None:
        """Feed the tracker and, on planning rounds, maybe start migrations."""
        self.ledger.batches += 1
        segments = table_segments(self.table_plan, workloads)
        table_bytes = {
            name: float(seg[2]) * self._row_bytes[name]
            for name, seg in segments.items()
        }
        hit_rates = self.hit_rates_fn() if self.hit_rates_fn is not None else None
        self.tracker.observe(table_bytes, hit_rates)
        if self.tracker.batches_observed % self.spec.check_interval_batches != 0:
            return
        if self.tracker.window_fill < self.spec.min_batches:
            return
        self._plan_round()

    def _plan_round(self) -> None:
        """One planning round: propose, stamp, submit migration streams."""
        G = self.table_plan.n_devices
        free = [self.cluster.device(d).memory.free_bytes for d in range(G)]
        plan = self.planner.propose(
            self.tracker.table_traffic(),
            self._owners,
            free,
            frozen=tuple(self.executor.in_flight),
        )
        self.last_plan = plan
        if plan.empty and not plan.advisories:
            return
        # Only rounds that actually act stamp counters, so balanced runs
        # stay byte-identical to the bare base backend.
        prof = self.cluster.profiler
        now = self.cluster.engine.now
        if plan.advisories:
            self.ledger.advisories += len(plan.advisories)
            prof.add_count(
                ADVISORIES_COUNTER, now, float(len(plan.advisories)), unit="advisories"
            )
        if plan.empty:
            return
        started = self.executor.submit(plan, self._on_cutover)
        if not started:
            return
        self.ledger.plans_adopted += 1
        self.ledger.moves_submitted += len(started)
        prof.add_count(PLANS_COUNTER, now, 1.0, unit="plans")
        prof.add_count(MOVES_COUNTER, now, float(len(started)), unit="moves")

    def wait_for_migrations(self, limit_ns: Optional[float] = None) -> None:
        """Run the simulated clock until in-flight migrations cut over."""
        self.executor.wait_for_migrations(limit_ns)

    # -- functional path ---------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward honouring the current serving ownership.

        A migrated table's weights alias the original tensor by name, and
        outputs partition by sample, so results are bit-identical to the
        static-plan reference regardless of how many tables have moved.
        """
        if self._owners == self._static_owners:
            return self.inner.functional_forward(batch)
        if self.sharded is None:
            raise ValueError("functional forward needs materialize=True weights")
        return self.inner.functional_forward(
            batch, sharded=self.sharded.reassigned(dict(self._owners))
        )

    # -- reporting ---------------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        """Cross-batch resharding totals (Python-side ledger)."""
        d = self.ledger.as_dict()
        d.update(self.executor.totals())
        d["tables_moved"] = float(len(self.moved_tables()))
        d["imbalance"] = self.imbalance()
        return d

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ReshardRetrieval base={self.base_name} "
            f"moved={sorted(self.moved_tables())} "
            f"in_flight={sorted(self.executor.in_flight)}>"
        )
