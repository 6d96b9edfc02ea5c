"""``serve-4gpu``: open-loop serving of the full DLRM on the 4-GPU DGX.

An ``InferenceServer`` runs the whole pipeline (bottom MLP || EMB,
interaction, top MLP) over 32 timing-only tables, with hybrid batching
(max batch 256, 100 us window) and two batches in flight.  Requests
arrive as a Poisson process in simulated time and latency counts from
arrival.  One round walks the rate ladder on both backends, each point on
a fresh server, so every point is independent of the order they ran in.

Only the bare ``pgas`` and ``baseline`` backends are served: the serving
pipeline does not apply the ``+compress``, ``+hier``, ``+replicated`` and
``+reshard`` features, so those names would measure another program.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from fabric import link_totals
from harness import EVENT_LOOP_PACE, Outcome, Recorder, Workload
from metrics import BACKENDS, LADDER_QPS, REFERENCE_QPS, rate_label
from repro import SyntheticDataGenerator, WorkloadConfig
from repro.core.pipeline import DLRMInferencePipeline, PipelineConfig
from repro.core.serving import InferenceServer, SchedulerSpec, ServingSpec

N_DEVICES = 4
N_REQUESTS = 4000  #: requests per (backend, rate) point
MAX_BATCH = 256
WINDOW_NS = 100e3
IN_FLIGHT = 2
P99_LIMIT_NS = 1e6  #: the latency limit (also the deadline-hit deadline)
BACKLOG_GROWTH = 1.5  #: last-quarter / second-quarter mean latency that means a growing queue


def served_all(result, offered: int) -> bool:
    """The output check: served + shed == offered, every latency >= 0."""
    latencies = result.latencies_ns
    return (result.n_requests + result.n_shed == offered
            and bool(np.all(np.isfinite(latencies)) and np.all(latencies >= 0)))


def backlog_growing(latencies_ns: np.ndarray) -> bool:
    """True when latency climbs through the run (the queue keeps growing)."""
    n = latencies_ns.size
    if n < 8:
        return False
    q = n // 4
    return float(latencies_ns[3 * q:].mean()) > BACKLOG_GROWTH * float(latencies_ns[q:2 * q].mean())


class Serve(Workload):
    name = "serve-4gpu"
    why = ("open-loop serving of the full model over a rate ladder: many small batches put "
           "host time in engine, streams, scheduler and pipeline")
    distinct = 1
    fresh_state = True

    def __init__(self, seed: int):
        self.seed = seed
        self.config = WorkloadConfig(
            num_tables=32, rows_per_table=1_000_000, dim=64, batch_size=MAX_BATCH,
            max_pooling=32, seed=seed,
        )
        # The server draws its requests from the workload seed inside
        # simulate(); the same draw here gives the rows each point looks up.
        requests = SyntheticDataGenerator(self.config).lengths_batch(N_REQUESTS)
        self.rows = int(sum(int(v.sum()) for v in requests.values()))
        # A full batch for the EMB phase split of one served batch.
        self.full_batch = {name: v[:MAX_BATCH] for name, v in requests.items()}

    def _spec(self, qps: int) -> ServingSpec:
        return ServingSpec(
            arrival_qps=float(qps), max_batch=MAX_BATCH, batch_window_ns=WINDOW_NS,
            seed=self.seed, deadline_ns=P99_LIMIT_NS,
            scheduler=SchedulerSpec(max_in_flight=IN_FLIGHT, policy="hybrid"),
        )

    def build(self) -> Dict[tuple, InferenceServer]:
        """One fresh server per (backend, rate) point."""
        return {
            (be, qps): InferenceServer(
                DLRMInferencePipeline(PipelineConfig(self.config), N_DEVICES, backend=be),
                self._spec(qps),
            )
            for be in BACKENDS for qps in LADDER_QPS
        }

    def round(self, servers, j: int, rec: Recorder, out: Outcome) -> Any:
        entry: Dict[str, Any] = {"points": {}}
        for k, qps in enumerate(LADDER_QPS):
            for be in (BACKENDS if (j + k) % 2 == 0 else BACKENDS[::-1]):
                what = f"{self.name} round {j} {be} at {qps} req/s"
                server = servers[(be, qps)]
                try:
                    with rec.span(f"{be}.simulate", profile=be, pace=EVENT_LOOP_PACE):
                        result = server.simulate(N_REQUESTS, backend=be)
                    with rec.span("oracle.check"):
                        ok = served_all(result, N_REQUESTS)
                    out.check(ok, f"{what}: served + shed != offered or negative latency")
                    rec.counts.setdefault(f"{be}.batches", []).append(result.n_batches)
                    cluster = server.pipeline.cluster
                    entry["points"][f"{be}.{rate_label(qps)}"] = {
                        "latencies_ns": result.latencies_ns,
                        "form_ns": result.form_ns,
                        "queue_ns": result.queue_ns,
                        "execute_ns": result.execute_ns,
                        "batch_sizes": list(result.batch_sizes),
                        "n_shed": result.n_shed,
                        "sim_duration_ns": result.sim_duration_ns,
                        **link_totals(cluster),
                        "profiler_spans": len(cluster.profiler.spans),
                    }
                except Exception as exc:  # one failed operation; keep measuring
                    out.op_raised(what, exc)
        if j == 0:
            entry["emb"] = {}
            for be in BACKENDS:
                pipe = DLRMInferencePipeline(PipelineConfig(self.config), N_DEVICES, backend=be)
                entry["emb"][be] = pipe.run_batch(self.full_batch, backend=be).emb.as_dict()
        return entry

    # -- metrics -----------------------------------------------------------------

    def end_to_end(self, sims, rec, out) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        points = sims[0]["points"]
        for be in BACKENDS:
            seconds = rec.total(f"{be}.simulate", scaled=True)
            metrics[f"{be}.sim_batches_per_s"] = rec.work(f"{be}.batches") / seconds
            out.table[f"{be}.unscaled_batches_per_s"] = (
                rec.work(f"{be}.batches") / rec.total(f"{be}.simulate"), "1/s")
            out.table[f"{be}.sim_requests_per_s"] = (
                N_REQUESTS * len(rec.samples[f"{be}.simulate"]) / seconds, "1/s")
            ref = points[f"{be}.{rate_label(REFERENCE_QPS)}"]
            lat_ms = ref["latencies_ns"] / 1e6
            metrics[f"{be}.sim_ms_per_batch"] = float(ref["execute_ns"].mean()) / 1e6
            metrics[f"{be}.sim_p50_ms"] = float(np.percentile(lat_ms, 50))
            metrics[f"{be}.sim_p99_ms"] = float(np.percentile(lat_ms, 99))
            out.table[f"{be}.max_qps_p99"] = (self._max_qps(points, be), "1/s")
            out.notes.append(
                f"{be}: p50/p99 over {lat_ms.size} requests at {REFERENCE_QPS} req/s")
        calls = [f"{be}.simulate" for be in BACKENDS]
        metrics["lookup_rows_per_s"] = (
            self.rows * sum(len(rec.samples[c]) for c in calls) / rec.total(*calls, scaled=True))
        return metrics

    def _max_qps(self, points, be: str) -> float:
        """Highest ladder rate with p99 within the limit, nothing shed, no backlog."""
        best = 0.0
        for qps in LADDER_QPS:
            p = points[f"{be}.{rate_label(qps)}"]
            lat = p["latencies_ns"]
            if (lat.size and np.percentile(lat, 99) <= P99_LIMIT_NS and p["n_shed"] == 0
                    and not backlog_growing(lat)):
                best = float(qps)
        return best

    def per_layer(self, sims, rec, out) -> Dict[str, float]:
        metrics: Dict[str, float] = {
            "oracle.check_ms": rec.mean_ms("oracle.check"),
        }
        points, emb = sims[0]["points"], sims[0]["emb"]
        for be in BACKENDS:
            host_ms = 1e3 * rec.total(f"{be}.simulate") / rec.work(f"{be}.batches")
            ref = points[f"{be}.{rate_label(REFERENCE_QPS)}"]
            n_batches = len(ref["batch_sizes"])
            metrics[f"{be}.host_ms_per_batch"] = host_ms
            metrics[f"{be}.link_transfers"] = ref["transfers"] / n_batches
            metrics[f"{be}.link_messages"] = ref["messages"] / n_batches
            metrics[f"{be}.wire_mb"] = ref["wire_bytes"] / n_batches / 1e6
            metrics[f"{be}.profiler_spans"] = ref["profiler_spans"] / n_batches
            metrics[f"{be}.host_us_per_transfer"] = 1e3 * host_ms / metrics[f"{be}.link_transfers"]
            for phase in ("compute", "comm", "sync_unpack"):
                metrics[f"{be}.sim_{phase}_ms"] = emb[be][f"{phase}_ns"] / 1e6
            metrics[f"{be}.sim_emb_fwd_ms"] = emb[be]["total_ns"] / 1e6
            metrics[f"{be}.max_qps_p99"] = self._max_qps(points, be)
            for qps in LADDER_QPS:
                q = f"{be}.{rate_label(qps)}"
                p = points[q]
                lat = p["latencies_ns"]
                metrics[f"{q}.p50_ms"] = float(np.percentile(lat, 50)) / 1e6
                metrics[f"{q}.p99_ms"] = float(np.percentile(lat, 99)) / 1e6
                metrics[f"{q}.mean_batch"] = float(np.mean(p["batch_sizes"]))
                metrics[f"{q}.form_ms"] = float(p["form_ns"].mean()) / 1e6
                metrics[f"{q}.queue_ms"] = float(p["queue_ns"].mean()) / 1e6
                metrics[f"{q}.execute_ms"] = float(p["execute_ns"].mean()) / 1e6
                metrics[f"{q}.deadline_hit"] = float(np.mean(lat <= P99_LIMIT_NS))
                metrics[f"{q}.shed"] = float(p["n_shed"])
        return metrics
