"""Resilient retrieval: deadlines, retries, reroutes, graceful degradation.

:class:`ResilientRetrieval` fronts either base backend (``pgas`` or
``baseline``) with a per-batch fault-handling state machine:

1. **Partition** — at batch start, every directed pair with remote output
   is checked against the live link state.  Traffic toward an unreachable
   destination is stripped from the base workloads and either *rerouted*
   (two-hop bulk forward through a healthy intermediate, charging both
   links) or marked *degraded*.
2. **Attempt with deadline** — the base backend's ``batch_process`` (plus
   any forwarding transfers) races a per-attempt deadline.  On breach the
   attempt is abandoned (its in-flight work still occupies streams and
   links — retries queue behind it, as on real hardware) and retried
   after exponential backoff with seeded jitter.
3. **Graceful degradation** — once retries are exhausted, a final
   local-only pass (every remote byte stripped) always completes.
   Degraded bags are served from the optional hot-row fallback cache when
   fully covered, and zero-filled otherwise; the batch reports a
   ``degraded_fraction`` instead of failing.

With no deadline and a healthy fabric the wrapper adds *zero* simulated
time and reproduces the wrapped backend's outputs, timings, and wire
bytes exactly — the healthy path is the base path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cache.hotrow import CacheConfig, HotRowCache, remote_lookups
from ..core.baseline import PhaseTiming
from ..core.functional import ShardedEmbeddingTables
from ..core.retrieval import FeatureLayer
from ..core.sharding import TableWiseSharding, minibatch_bounds
from ..core.workload import DeviceWorkload
from ..dlrm.batch import SparseBatch
from ..dlrm.embedding import segment_pool
from ..dlrm.hashing import hash_indices
from ..simgpu.cluster import Cluster
from ..simgpu.units import us
from .injector import pair_is_down

__all__ = [
    "ResilienceSpec",
    "BatchOutcome",
    "ResilientRetrieval",
    "RETRY_COUNTER",
    "REROUTE_COUNTER",
    "DEGRADED_COUNTER",
    "CACHE_SERVED_COUNTER",
]

#: profiler counters stamped at batch completion (only when non-zero,
#: so healthy traces stay byte-identical to the wrapped backend's)
RETRY_COUNTER = "faults.retries"
REROUTE_COUNTER = "faults.rerouted_bytes"
DEGRADED_COUNTER = "faults.degraded_bags"
CACHE_SERVED_COUNTER = "faults.cache_served_bags"


@dataclass(frozen=True)
class ResilienceSpec:
    """Policy knobs of the resilient wrapper.

    ``deadline_ns`` is the per-attempt EMB deadline (None disables the
    whole retry machinery — the zero-overhead healthy path).  Backoff
    before retry *k* (1-based) is ``backoff_base_ns * multiplier**(k-1)``
    stretched by a seeded uniform jitter in ``[0, jitter_fraction]``.
    ``fallback_cache`` equips per-device hot-row caches that serve fully
    covered degraded bags with real values instead of zeros.
    """

    deadline_ns: Optional[float] = None
    max_retries: int = 2
    backoff_base_ns: float = 50 * us
    backoff_multiplier: float = 2.0
    jitter_fraction: float = 0.25
    reroute: bool = True
    fallback_cache: Optional[CacheConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.deadline_ns is not None and self.deadline_ns <= 0:
            raise ValueError("deadline_ns must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base_ns < 0:
            raise ValueError("backoff_base_ns must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if not (0.0 <= self.jitter_fraction <= 1.0):
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.fallback_cache is not None and not isinstance(self.fallback_cache, CacheConfig):
            raise TypeError(
                f"fallback_cache must be a CacheConfig, got {type(self.fallback_cache).__name__}"
            )


@dataclass
class BatchOutcome:
    """What the resilience machinery did to one batch."""

    attempts: int = 1
    retries: int = 0
    rerouted_pairs: int = 0
    rerouted_bytes: float = 0.0
    degraded_bags: int = 0
    cache_served_bags: int = 0
    total_bags: int = 0
    deadline_missed: bool = False
    emb_ns: float = 0.0

    @property
    def degraded_fraction(self) -> float:
        """Zero-filled share of this batch's (sample, table) bags."""
        return self.degraded_bags / self.total_bags if self.total_bags else 0.0

    @property
    def healthy(self) -> bool:
        """True when the batch needed no resilience action at all."""
        return (
            self.retries == 0
            and self.rerouted_pairs == 0
            and self.degraded_bags == 0
            and self.cache_served_bags == 0
            and not self.deadline_missed
        )


@dataclass
class _BatchState:
    """Partition decisions carried from the timed to the functional path."""

    workloads: List[DeviceWorkload]
    forwards: List[Tuple[int, int, int, float]]  #: (src, via, dst, payload)
    degraded_pairs: Set[Tuple[int, int]]  #: (owner, dst) zero-filled pairs
    remote_bags: Dict[Tuple[int, int], int]
    cache_served: Dict[Tuple[int, str], Tuple[np.ndarray, Optional[np.ndarray]]]
    outcome: BatchOutcome
    fully_degraded: bool = False


class ResilientRetrieval(FeatureLayer):
    """A base retrieval backend wrapped in the fault-handling state machine.

    Standalone use takes a cluster plus sharding plan; as a registered
    backend (``"pgas+resilient"``, ``"baseline+resilient"``) it is built
    from an EMB host and its ``features.resilience`` config.  Each batch's
    :class:`BatchOutcome` is set on the :class:`PhaseTiming` that batch
    fills (``timing.outcome``), so concurrent batches each read their own.
    """

    def __init__(
        self,
        cluster: Cluster,
        plan: TableWiseSharding,
        spec: Optional[ResilienceSpec] = None,
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
        self.spec = spec or ResilienceSpec()
        self._rng = np.random.default_rng(self.spec.seed)
        self._fallback: Optional[List[HotRowCache]] = None
        self._last_state: Optional[_BatchState] = None
        #: the most recent batch's outcome (sequential use; concurrent
        #: batches read ``timing.outcome`` instead)
        self.last_outcome: Optional[BatchOutcome] = None
        self.outcomes: List[BatchOutcome] = []

    # -- fallback cache ----------------------------------------------------------

    def _ensure_fallback(self) -> Optional[List[HotRowCache]]:
        if self.spec.fallback_cache is None:
            return None
        if self._fallback is None:
            self._fallback = HotRowCache.per_device(
                self.cluster, self.table_plan, self.spec.fallback_cache,
                materialize=self.sharded is not None,
            )
        return self._fallback

    def warm_fallback(self, batches: Sequence[SparseBatch]) -> None:
        """Prime the fallback caches with the remote rows of ``batches``."""
        caches = self._ensure_fallback()
        if caches is None:
            raise ValueError("warm_fallback needs spec.fallback_cache set")
        for g, t, rows in remote_lookups(self.table_plan, batches):
            caches[g].lookup_rows(t.name, rows, source=self.weights_of(t.name))

    # -- partition ---------------------------------------------------------------

    def _route_via(self, src: int, dst: int) -> Optional[int]:
        """A healthy intermediate for two-hop forwarding, or None."""
        if not self.spec.reroute:
            return None
        for k in range(self.cluster.n_devices):
            if k == src or k == dst:
                continue
            if not pair_is_down(self.cluster, src, k) and not pair_is_down(
                self.cluster, k, dst
            ):
                return k
        return None

    def _partition(
        self, workloads: Sequence[DeviceWorkload], batch: Optional[SparseBatch]
    ) -> _BatchState:
        """Strip unreachable destinations; decide reroute vs. degrade."""
        cluster = self.cluster
        G = cluster.n_devices
        outcome = BatchOutcome()
        remote_bags: Dict[Tuple[int, int], int] = {}
        adjusted = list(workloads)
        forwards: List[Tuple[int, int, int, float]] = []
        degraded_pairs: Set[Tuple[int, int]] = set()
        total_bags = 0
        for i, wl in enumerate(workloads):
            total_bags += wl.batch_size * wl.num_local_tables
            out = wl.output_bytes_by_dst
            bad: List[int] = []
            for d in range(G):
                if d == wl.device_id or out[d] <= 0:
                    continue
                remote_bags[(wl.device_id, d)] = int(round(out[d] / wl.row_bytes))
                if pair_is_down(cluster, wl.device_id, d):
                    bad.append(d)
            if not bad:
                continue
            block_dst = wl.block_dst_bytes.copy()
            for d in bad:
                nbytes = float(out[d])
                via = self._route_via(wl.device_id, d)
                if via is not None:
                    forwards.append((wl.device_id, via, d, nbytes))
                else:
                    degraded_pairs.add((wl.device_id, d))
                block_dst[:, d] = 0.0
            adjusted[i] = dataclasses.replace(wl, block_dst_bytes=block_dst)
        outcome.total_bags = total_bags
        outcome.rerouted_pairs = len(forwards)
        cache_served = self._consult_cache(batch, degraded_pairs)
        covered = sum(int(np.count_nonzero(m)) for m, _ in cache_served.values())
        outcome.cache_served_bags = covered
        outcome.degraded_bags = (
            sum(remote_bags.get(p, 0) for p in degraded_pairs) - covered
        )
        return _BatchState(
            workloads=adjusted,
            forwards=forwards,
            degraded_pairs=degraded_pairs,
            remote_bags=remote_bags,
            cache_served=cache_served,
            outcome=outcome,
        )

    def _consult_cache(
        self, batch: Optional[SparseBatch], degraded_pairs: Set[Tuple[int, int]]
    ) -> Dict[Tuple[int, str], Tuple[np.ndarray, Optional[np.ndarray]]]:
        """Serve fully covered bags of unreachable pairs from the caches.

        Returns ``(dst, table) -> (covered_mask, pooled_values)``; pooled
        values are None without materialised weights.
        """
        if not degraded_pairs or batch is None:
            return {}
        caches = self._ensure_fallback()
        if caches is None:
            return {}
        plan = self.table_plan
        bounds = minibatch_bounds(batch.batch_size, plan.n_devices)
        served: Dict[Tuple[int, str], Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        for owner, g in sorted(degraded_pairs):
            lo, hi = bounds[g]
            for t in plan.tables_on(owner):
                fld = batch.field(t.name)
                sl = fld.slice_samples(lo, hi)
                rows = hash_indices(sl.indices, t.num_rows, t.hash_kind)
                acc = caches[g].lookup_rows(t.name, rows, source=self.weights_of(t.name))
                lengths = fld.lengths[lo:hi].astype(np.int64)
                hits = np.zeros(hi - lo, dtype=np.int64)
                if sl.nnz:
                    sample_ids = np.repeat(np.arange(hi - lo), lengths)
                    np.add.at(hits, sample_ids[acc.hit_mask], 1)
                covered = (hits == lengths) & (lengths > 0)
                if not np.any(covered):
                    continue
                pooled = None
                if acc.values is not None:
                    pooled = segment_pool(acc.values, sl.offsets, t.pooling)
                served[(g, t.name)] = (covered, pooled)
        return served

    def _strip_remote(
        self, workloads: Sequence[DeviceWorkload]
    ) -> List[DeviceWorkload]:
        """Local-only variants: every off-diagonal destination removed."""
        stripped: List[DeviceWorkload] = []
        for wl in workloads:
            out = wl.output_bytes_by_dst
            if float(out.sum() - out[wl.device_id]) <= 0:
                stripped.append(wl)
                continue
            block_dst = wl.block_dst_bytes.copy()
            for d in range(wl.n_devices):
                if d != wl.device_id:
                    block_dst[:, d] = 0.0
            stripped.append(dataclasses.replace(wl, block_dst_bytes=block_dst))
        return stripped

    # -- timed path --------------------------------------------------------------

    def _message_params(self) -> Tuple[int, int]:
        """Wire framing of forwarded payloads, matching the base backend."""
        engine = self.inner.engine
        if self.base_name == "pgas":
            pspec = engine.pgas.spec
            return pspec.message_bytes, pspec.header_bytes
        return 0, engine.collectives.spec.per_chunk_header_bytes

    def _forward_route(
        self, cluster: Cluster, src: int, via: int, dst: int,
        nbytes: float, outcome: BatchOutcome,
    ):
        """Two-hop store-and-forward src → via → dst, charging both links."""
        mb, hb = self._message_params()
        yield cluster.interconnect.transfer(
            src, via, nbytes, message_bytes=mb, header_bytes=hb,
            counter=REROUTE_COUNTER,
        )
        yield cluster.interconnect.transfer(
            via, dst, nbytes, message_bytes=mb, header_bytes=hb,
            counter=REROUTE_COUNTER,
        )
        outcome.rerouted_bytes += nbytes

    def _attempt(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        forwards: Sequence[Tuple[int, int, int, float]],
        timing: PhaseTiming,
        outcome: BatchOutcome,
        stream_suffix: str = "",
    ):
        engine = cluster.engine
        procs = [
            engine.process(
                self.inner.batch_process(
                    cluster, list(workloads), timing, stream_suffix=stream_suffix
                ),
                name=f"resilient_{self.base_name}",
            )
        ]
        for src, via, dst, nbytes in forwards:
            procs.append(
                engine.process(
                    self._forward_route(cluster, src, via, dst, nbytes, outcome),
                    name=f"reroute{src}->{via}->{dst}",
                )
            )
        yield engine.all_of(procs)

    def batch_process(
        self,
        cluster: Cluster,
        workloads: Sequence[DeviceWorkload],
        timing: PhaseTiming,
        *,
        batch: Optional[SparseBatch] = None,
        stream_suffix: str = "",
    ):
        """Process generator for one batch — the full state machine.

        Composable into larger host programs exactly like the base
        backends' ``batch_process``; ``timing`` is filled at completion
        (``total_ns`` includes backoff and retries) and carries the batch's
        :class:`BatchOutcome` as ``timing.outcome``.  ``stream_suffix``
        passes through to the wrapped backend's per-batch stream set.
        """
        engine = cluster.engine
        spec = self.spec
        t0 = engine.now
        state = self._partition(workloads, batch)
        outcome = state.outcome
        attempt = 0
        while True:
            sub = PhaseTiming(batches=1)
            proc = engine.process(
                self._attempt(
                    cluster, state.workloads, state.forwards, sub, outcome,
                    stream_suffix=stream_suffix,
                ),
                name="resilient_attempt",
            )
            if spec.deadline_ns is None:
                yield proc
                completed = True
            else:
                yield engine.any_of([proc, engine.timeout(spec.deadline_ns)])
                completed = proc.triggered
            if completed:
                break
            outcome.retries += 1
            attempt += 1
            if attempt > spec.max_retries:
                # Retries exhausted: abandon the wire entirely and serve
                # whatever is local.  Every remote bag not already covered
                # by the fallback cache is zero-filled.
                outcome.deadline_missed = True
                state.fully_degraded = True
                outcome.degraded_bags = (
                    sum(state.remote_bags.values()) - outcome.cache_served_bags
                )
                sub = PhaseTiming(batches=1)
                yield engine.process(
                    self._attempt(
                        cluster, self._strip_remote(state.workloads), [], sub, outcome,
                        stream_suffix=stream_suffix,
                    ),
                    name="resilient_degraded",
                )
                break
            backoff = spec.backoff_base_ns * spec.backoff_multiplier ** (attempt - 1)
            backoff *= 1.0 + spec.jitter_fraction * float(self._rng.random())
            yield engine.timeout(backoff)
        outcome.attempts = attempt + 1
        timing.compute_ns = sub.compute_ns
        timing.comm_ns = sub.comm_ns
        timing.sync_unpack_ns = sub.sync_unpack_ns
        timing.total_ns = engine.now - t0
        outcome.emb_ns = timing.total_ns
        timing.outcome = outcome
        self._stamp_counters(outcome)
        self._last_state = state
        self.last_outcome = outcome
        self.outcomes.append(outcome)

    def _stamp_counters(self, outcome: BatchOutcome) -> None:
        prof = self.cluster.profiler
        t = self.cluster.engine.now
        # Only stamp non-zero deltas: a healthy batch leaves the profiler
        # byte-identical to the wrapped backend's.
        if outcome.retries:
            prof.add_count(RETRY_COUNTER, t, float(outcome.retries), unit="retries")
        if outcome.rerouted_bytes:
            prof.add_count(REROUTE_COUNTER + ".delivered", t, outcome.rerouted_bytes)
        if outcome.degraded_bags:
            prof.add_count(DEGRADED_COUNTER, t, float(outcome.degraded_bags), unit="bags")
        if outcome.cache_served_bags:
            prof.add_count(
                CACHE_SERVED_COUNTER, t, float(outcome.cache_served_bags), unit="bags"
            )

    def ledger_totals(self) -> Dict[str, float]:
        """Lifetime resilience totals across every batch, as a plain dict.

        This is the fault-side payload of a telemetry
        :class:`~repro.telemetry.RunReport` — it complements the
        ``faults.*`` profiler counters (which only record *non-zero*
        deltas) with exact per-ledger sums including healthy batches.
        """
        outcomes = self.outcomes
        return {
            "batches": float(len(outcomes)),
            "attempts": float(sum(o.attempts for o in outcomes)),
            "retries": float(sum(o.retries for o in outcomes)),
            "rerouted_pairs": float(sum(o.rerouted_pairs for o in outcomes)),
            "rerouted_bytes": float(sum(o.rerouted_bytes for o in outcomes)),
            "degraded_bags": float(sum(o.degraded_bags for o in outcomes)),
            "cache_served_bags": float(sum(o.cache_served_bags for o in outcomes)),
            "total_bags": float(sum(o.total_bags for o in outcomes)),
            "deadline_misses": float(sum(o.deadline_missed for o in outcomes)),
            "healthy_batches": float(sum(o.healthy for o in outcomes)),
        }

    # -- functional path ---------------------------------------------------------

    def functional_forward(self, batch: SparseBatch) -> List[np.ndarray]:
        """Numpy forward honouring the last timed batch's degradation.

        Unaffected bags are bit-identical to the wrapped backend; degraded
        (owner, dst) pairs are zero-filled except bags fully served from
        the fallback cache.
        """
        outputs = self.inner.functional_forward(batch)
        state = self._last_state
        if state is None or (not state.degraded_pairs and not state.fully_degraded):
            return outputs
        plan = self.table_plan
        G = plan.n_devices
        bounds = minibatch_bounds(batch.batch_size, G)
        for f, t in enumerate(plan.table_configs):
            owner = plan.owner_of(t.name)
            for g in range(G):
                if g == owner:
                    continue
                if not state.fully_degraded and (owner, g) not in state.degraded_pairs:
                    continue
                out = outputs[g]
                out[:, f, :] = 0.0
                served = state.cache_served.get((g, t.name))
                if served is not None:
                    covered, pooled = served
                    if pooled is not None:
                        out[covered, f, :] = pooled[covered]
        return outputs

    def release(self) -> None:
        """Free the fallback caches' slabs back to their memory pools."""
        if self._fallback is not None:
            for cache in self._fallback:
                cache.release()
            self._fallback = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<ResilientRetrieval base={self.base_name} "
            f"deadline={self.spec.deadline_ns} batches={len(self.outcomes)}>"
        )
