"""``train-4gpu``: training steps with materialised weights on the 4-GPU DGX.

32 tables x 20k rows, d = 64, batch 2048, pooling 0..32.  Each step, on
each backend, runs a timed ``DLRMTrainingPipeline.run_step`` (forward
pipeline plus the PGAS remote-atomic or collective backward), the
functional forward ``DistributedEmbedding.forward`` (numpy gather and
pool: the reads) and the functional SGD update
``core.backward.*_functional_backward`` (numpy scatter-add: the writes).

The timed step takes milliseconds against seconds of numpy, so it also
runs between the functional calls, in blocks of ``STEP_BLOCK`` steps timed
together (1 + 3 x ``STEP_BLOCK`` steps per backend per round), which
spreads its samples across the round.  Steps are simulator work, scaled
to the reference speed (``harness.Recorder``) with ``EVENT_LOOP_PACE``;
the numpy forward, update and build with ``NUMPY_PACE``.

Both backends read and update byte-identical tables: each backend's
update runs on a fresh copy of the live tables, and the live tables then
advance by the oracle's ``reference_backward``.  The forward must equal
``reference_forward`` bit for bit; the baseline update must equal the
oracle bit for bit and the pgas update within float tolerance, because
pgas accumulates per source device in a different order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from fabric import link_delta, link_totals
from harness import (
    EVENT_LOOP_PACE,
    NUMPY_PACE,
    Outcome,
    Recorder,
    Workload,
    sample_percentile,
)
from metrics import BACKENDS
from repro import DistributedEmbedding, SyntheticDataGenerator, WorkloadConfig
from repro.core.backward import (
    baseline_functional_backward,
    pgas_functional_backward,
    reference_backward,
)
from repro.core.functional import ShardedEmbeddingTables, reference_forward
from repro.core.pipeline import PipelineConfig
from repro.core.train_pipeline import DLRMTrainingPipeline
from repro.core.workload import lengths_from_batch
from repro.dlrm.embedding import EmbeddingBagCollection, EmbeddingTable

N_DEVICES = 4
STEP_BLOCK = 16  #: training steps per timed block between the functional calls
LEARNING_RATE = 0.05
#: pgas update tolerance: float32 sums of a few dozen terms, reordered.
PGAS_RTOL, PGAS_ATOL = 1e-5, 1e-7

UPDATES = {"pgas": pgas_functional_backward, "baseline": baseline_functional_backward}


@dataclass
class TrainState:
    emb: DistributedEmbedding
    pipeline: DLRMTrainingPipeline
    live: EmbeddingBagCollection  #: the tables the forward reads (aliases emb)
    oracle: List[EmbeddingTable]  #: scratch for the reference update
    scratch: ShardedEmbeddingTables  #: scratch for a backend's update


def _copy_tables(tables: List[EmbeddingTable]) -> List[EmbeddingTable]:
    return [EmbeddingTable(t.config, weights=t.weights.copy()) for t in tables]


def forward_matches(outputs: List[np.ndarray], reference: np.ndarray) -> bool:
    """The forward check: per-device outputs, stacked, equal the oracle."""
    return bool(np.array_equal(np.concatenate(outputs, axis=0), reference))


def update_matches(be: str, updated: List[EmbeddingTable],
                   reference: List[EmbeddingTable]) -> bool:
    """The update check: exact for the baseline, within tolerance for pgas."""
    for got, want in zip(updated, reference):
        if be == "baseline":
            if not np.array_equal(got.weights, want.weights):
                return False
        elif not np.allclose(got.weights, want.weights, rtol=PGAS_RTOL, atol=PGAS_ATOL):
            return False
    return True


class Train(Workload):
    name = "train-4gpu"
    why = ("4-GPU training steps on real weights: numpy gather/pool reads and scatter-add "
           "writes dominate host time; the simulator sees few events")
    distinct = 2
    setup_repeats = 5
    setup_pace = NUMPY_PACE  # the build is mostly numpy: weights drawn and copied

    def __init__(self, seed: int):
        self.seed = seed
        self.config = WorkloadConfig(
            num_tables=32, rows_per_table=20_000, dim=64, batch_size=2048,
            max_pooling=32, seed=seed,
        )
        gen = SyntheticDataGenerator(self.config)
        rng = np.random.default_rng(seed + 1)
        B, F, d = self.config.batch_size, self.config.num_tables, self.config.dim
        self.batches = [gen.sparse_batch() for _ in range(self.distinct)]
        self.lengths = [lengths_from_batch(b) for b in self.batches]
        self.grads = [
            (0.01 * rng.standard_normal((B, F, d))).astype(np.float32)
            for _ in range(self.distinct)
        ]
        per_device = B // N_DEVICES
        self.grads_by_device = [
            [g[k * per_device:(k + 1) * per_device] for k in range(N_DEVICES)]
            for g in self.grads
        ]
        self.rows = [b.total_nnz for b in self.batches]

    def build(self) -> TrainState:
        emb = DistributedEmbedding(
            self.config, N_DEVICES, backend="pgas", materialize=True,
            rng=np.random.default_rng(self.seed),
        )
        pipeline = DLRMTrainingPipeline(PipelineConfig(self.config), N_DEVICES)
        by_name = {t.name: t for tables in emb.sharded.per_device for t in tables}
        live = EmbeddingBagCollection([by_name[n] for n in self.config.feature_names])
        scratch_tables = {t.name: t for t in _copy_tables(list(by_name.values()))}
        scratch = ShardedEmbeddingTables(emb.plan, [
            [scratch_tables[cfg.name] for cfg in emb.plan.tables_on(dev)]
            for dev in range(N_DEVICES)
        ])
        oracle = _copy_tables([by_name[n] for n in self.config.feature_names])
        return TrainState(emb, pipeline, live, oracle, scratch)

    def round(self, st: TrainState, j: int, rec: Recorder, out: Outcome) -> Any:
        i = j % self.distinct
        batch, lengths = self.batches[i], self.lengths[i]
        order = BACKENDS if j % 2 == 0 else BACKENDS[::-1]
        live = [st.live.table(n) for n in self.config.feature_names]
        scratch = {t.name: t for tables in st.scratch.per_device for t in tables}
        scratch_list = [scratch[n] for n in self.config.feature_names]
        entry: Dict[str, Any] = {}
        for be in order:
            try:
                entry[be] = self._first_step(st, be, lengths, rec)
            except Exception as exc:  # one failed operation; keep measuring
                out.op_raised(f"{self.name} round {j} {be} step", exc)

        with rec.span("oracle.check"):
            reference = reference_forward(st.live, batch)
            for ref_t, t in zip(st.oracle, live):
                np.copyto(ref_t.weights, t.weights)
            reference_backward(st.oracle, batch, self.grads[i], lr=LEARNING_RATE)

        for be in (be for be in order if be in entry):
            what = f"{self.name} round {j} {be}"
            try:
                self._step(st, be, lengths, rec)
                with rec.span("forward", profile=be, pace=NUMPY_PACE):
                    result = st.emb.forward(batch, backend=be)
                st.emb.cluster.reset_profiler()
                with rec.span("oracle.check"):
                    ok = forward_matches(result.outputs, reference)
                    for s_t, t in zip(scratch_list, live):
                        np.copyto(s_t.weights, t.weights)
                self._step(st, be, lengths, rec)
                with rec.span("update", profile=be, pace=NUMPY_PACE):
                    UPDATES[be](st.scratch, batch, self.grads_by_device[i], lr=LEARNING_RATE)
                with rec.span("oracle.check"):
                    ok &= update_matches(be, scratch_list, st.oracle)
                self._step(st, be, lengths, rec)
                rec.counts.setdefault("rows", []).append(self.rows[i])
                out.check(ok, f"{what}: functional output differs from the oracle")
            except Exception as exc:  # one failed operation; keep measuring
                out.op_raised(what, exc)
        # The live tables advance by the oracle's update.
        for t, ref_t in zip(live, st.oracle):
            t.weights, ref_t.weights = ref_t.weights, t.weights
        return entry

    def _step(self, st: TrainState, be: str, lengths, rec: Recorder) -> None:
        """``STEP_BLOCK`` training steps timed together (the profiler is
        cleared after them)."""
        with rec.span(f"{be}.run_step", profile=be, pace=EVENT_LOOP_PACE):
            for _ in range(STEP_BLOCK):
                st.pipeline.run_step(lengths, backend=be)
        rec.counts.setdefault(f"{be}.steps", []).append(STEP_BLOCK)
        st.pipeline.cluster.reset_profiler()

    def _first_step(self, st: TrainState, be: str, lengths, rec: Recorder) -> Dict[str, Any]:
        """The round's first step on ``be``, with its simulated record."""
        cluster = st.pipeline.cluster
        cluster.reset_profiler()
        links0 = link_totals(cluster)
        with rec.span(f"{be}.run_step", profile=be, pace=EVENT_LOOP_PACE):
            step = st.pipeline.run_step(lengths, backend=be)
        rec.counts.setdefault(f"{be}.steps", []).append(1)
        record = {
            "total_ns": step.total_ns,
            "forward": step.forward.as_dict(),
            "dense_backward_ns": step.dense_backward_ns,
            "emb_backward": step.emb_backward.as_dict(),
            **link_delta(links0, link_totals(cluster)),
            "profiler_spans": len(cluster.profiler.spans),
        }
        cluster.reset_profiler()
        return record

    # -- metrics -----------------------------------------------------------------

    def _sim(self, sims: List[Any], be: str, *keys: str) -> np.ndarray:
        values = []
        for e in sims:
            v = e[be]
            for k in keys:
                v = v[k]
            values.append(v)
        return np.array(values, dtype=np.float64)

    def end_to_end(self, sims, rec, out) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for be in BACKENDS:
            steps = rec.work(f"{be}.steps")
            metrics[f"{be}.sim_batches_per_s"] = steps / rec.total(f"{be}.run_step", scaled=True)
            out.table[f"{be}.unscaled_batches_per_s"] = (
                steps / rec.total(f"{be}.run_step"), "1/s")
            total_ms = self._sim(sims, be, "total_ns") / 1e6
            weights = np.full(total_ms.size, self.config.batch_size)
            metrics[f"{be}.sim_ms_per_batch"] = float(total_ms.mean())
            metrics[f"{be}.sim_p50_ms"] = sample_percentile(total_ms, weights, 50)
            metrics[f"{be}.sim_p99_ms"] = sample_percentile(total_ms, weights, 99)
        metrics["lookup_rows_per_s"] = rec.work("rows") / rec.total("forward", scaled=True)
        out.table["update_rows_per_s"] = (
            rec.work("rows") / rec.total("update", scaled=True), "rows/s")
        return metrics

    def per_layer(self, sims, rec, out) -> Dict[str, float]:
        metrics: Dict[str, float] = {
            "core.functional.forward_ms": rec.mean_ms("forward"),
            "core.backward.update_ms": rec.mean_ms("update"),
            "oracle.check_ms": 1e3 * rec.total("oracle.check") / len(rec.samples["forward"]),
        }
        for be in BACKENDS:
            host_ms = 1e3 * rec.total(f"{be}.run_step") / rec.work(f"{be}.steps")
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
                    self._sim(sims, be, "forward", f"emb.{phase}_ns").mean()) / 1e6
            metrics[f"{be}.sim_emb_fwd_ms"] = float(
                self._sim(sims, be, "forward", "emb.total_ns").mean()) / 1e6
            metrics[f"{be}.sim_emb_bwd_ms"] = float(
                self._sim(sims, be, "emb_backward", "total_ns").mean()) / 1e6
            metrics[f"{be}.sim_dense_bwd_ms"] = float(
                self._sim(sims, be, "dense_backward_ns").mean()) / 1e6
        return metrics
