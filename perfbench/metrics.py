"""The benchmark's metric catalogue: names, units, direction and targets.

Every workload prints every metric listed here (the end-to-end set with
``--trace 0``, the per-layer set with ``--trace 1``); ``BENCHMARK.json``
at the repository root mirrors :data:`END_TO_END` and :data:`PER_LAYER`
and the benchmark's tests keep the two in step.

A per-layer metric of a layer that a workload does not exercise (the
serving ladder in ``fabric-4x8``, the numpy update in ``serve-4gpu``)
reads 0 there.  :data:`LAYER_TARGETS` records, for each per-layer
metric, the end-to-end metric it should move and the workload on which
it should move it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

BACKENDS = ("pgas", "baseline")

#: Serving ladder (requests per simulated second) and its metric labels.
LADDER_QPS = (250_000, 500_000, 750_000, 1_000_000, 1_250_000)
#: The serving reference rate: both backends meet the p99 limit here.
REFERENCE_QPS = 250_000


def rate_label(qps: int) -> str:
    """Metric label of a ladder rate: ``250000`` -> ``q250k``."""
    return f"q{qps // 1000}k"


#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("pgas.sim_batches_per_s", "1/s", "higher", 0.25),
    ("baseline.sim_batches_per_s", "1/s", "higher", 0.25),
    ("lookup_rows_per_s", "rows/s", "higher", 0.25),
    ("pgas.sim_ms_per_batch", "ms", "lower", 0.05),
    ("baseline.sim_ms_per_batch", "ms", "lower", 0.05),
    ("pgas.sim_p50_ms", "ms", "lower", 0.1),
    ("baseline.sim_p50_ms", "ms", "lower", 0.1),
    ("pgas.sim_p99_ms", "ms", "lower", 0.1),
    ("baseline.sim_p99_ms", "ms", "lower", 0.1),
]

#: Metrics one workload prints in its report only: they are not defined on
#: every workload, so they cannot be end-to-end metrics.
REPORT_ONLY = (
    "update_rows_per_s",  # train-4gpu
    "pgas.sim_requests_per_s", "baseline.sim_requests_per_s",
    "pgas.max_qps_p99", "baseline.max_qps_p99",  # serve-4gpu
)

_FABRIC, _TRAIN, _SERVE = "fabric-4x8", "train-4gpu", "serve-4gpu"
_BOTH = "pgas.sim_batches_per_s,baseline.sim_batches_per_s"

#: Self-time share buckets: metric suffix -> (module prefixes it covers,
#: end-to-end metrics it should move, workload where it should move them).
SELF_LAYERS: Dict[str, Tuple[Tuple[str, ...], str, str]] = {
    "simgpu.engine": (("simgpu.engine",), "pgas.sim_batches_per_s", _FABRIC),
    "simgpu.interconnect": (("simgpu.interconnect",), "pgas.sim_batches_per_s", _FABRIC),
    "simgpu.kernel": (("simgpu.kernel",), _BOTH, _FABRIC),
    "simgpu.stream": (("simgpu.stream",), _BOTH, _SERVE),
    "simgpu.profiler": (("simgpu.profiler",), _BOTH, _FABRIC),
    "comm.pgas": (("comm.pgas",), "pgas.sim_batches_per_s", _FABRIC),
    "comm.collective": (("comm.collective",), "baseline.sim_batches_per_s", _FABRIC),
    "core.workload": (("core.workload",), "baseline.sim_batches_per_s", _FABRIC),
    "core.retrieval": (("core.pgas_retrieval", "core.baseline", "core.retrieval"),
                       _BOTH, _FABRIC),
    "core.pipeline": (("core.pipeline", "core.train_pipeline"), _BOTH, _SERVE),
    "core.serving": (("core.serving",), _BOTH, _SERVE),
    "dlrm.embedding": (("dlrm.embedding", "core.functional", "core.backward"),
                       "lookup_rows_per_s", _TRAIN),
}
#: Shares of time inside numpy, whatever called it (they overlap the above).
NUMPY_SHARES: Dict[str, Tuple[str, str]] = {
    "numpy": (_BOTH, _FABRIC),
    "numpy.reduceat": ("lookup_rows_per_s", _TRAIN),
    "numpy.ufunc_at": ("update_rows_per_s", _TRAIN),
}


def _per_layer() -> List[Tuple[str, str, str, str, str]]:
    """(name, unit, better, target end-to-end metrics, workload) rows."""
    rows = [("trace.overhead_pct", "%", "lower", _BOTH, "all")]
    for be in BACKENDS:
        rows.append((f"{be}.host_ms_per_batch", "ms", "lower", f"{be}.sim_batches_per_s", "all"))
    rows += [
        ("core.workload.build_ms", "ms", "lower", _BOTH, _FABRIC),
        ("core.functional.forward_ms", "ms", "lower", "lookup_rows_per_s", _TRAIN),
        ("core.backward.update_ms", "ms", "lower", "update_rows_per_s", _TRAIN),
        ("oracle.check_ms", "ms", "lower", _BOTH, "all"),
    ]
    for be in BACKENDS:
        rows.append(
            (f"{be}.host_us_per_transfer", "us", "lower", f"{be}.sim_batches_per_s", _FABRIC)
        )
    shares = {**{k: v[1:] for k, v in SELF_LAYERS.items()}, **NUMPY_SHARES}
    for layer, (target, workload) in shares.items():
        rows.append((f"self.{layer}_pct", "%", "lower", target, workload))
    for be in BACKENDS:
        batches = f"{be}.sim_batches_per_s"
        sim = f"{be}.sim_ms_per_batch"
        rows += [
            (f"{be}.link_transfers", "count", "lower", batches, _FABRIC),
            (f"{be}.link_messages", "count", "lower", batches, _FABRIC),
            (f"{be}.wire_mb", "MB", "lower", sim, _FABRIC),
            (f"{be}.profiler_spans", "count", "lower", batches, _FABRIC),
            (f"{be}.sim_compute_ms", "ms", "lower", sim, _FABRIC),
            (f"{be}.sim_comm_ms", "ms", "lower", sim, _FABRIC),
            (f"{be}.sim_sync_unpack_ms", "ms", "lower", sim, _FABRIC),
            (f"{be}.sim_emb_fwd_ms", "ms", "lower", sim, _TRAIN),
            (f"{be}.sim_emb_bwd_ms", "ms", "lower", sim, _TRAIN),
            (f"{be}.sim_dense_bwd_ms", "ms", "lower", sim, _TRAIN),
            (f"{be}.max_qps_p99", "1/s", "higher", f"{be}.sim_p99_ms", _SERVE),
        ]
        for qps in LADDER_QPS:
            q = f"{be}.{rate_label(qps)}"
            p99 = f"{be}.sim_p99_ms"
            rows += [
                (f"{q}.p50_ms", "ms", "lower", f"{be}.sim_p50_ms", _SERVE),
                (f"{q}.p99_ms", "ms", "lower", p99, _SERVE),
                (f"{q}.mean_batch", "count", "lower", p99, _SERVE),
                (f"{q}.form_ms", "ms", "lower", p99, _SERVE),
                (f"{q}.queue_ms", "ms", "lower", p99, _SERVE),
                (f"{q}.execute_ms", "ms", "lower", sim, _SERVE),
                (f"{q}.deadline_hit", "fraction", "higher", p99, _SERVE),
                (f"{q}.shed", "count", "lower", p99, _SERVE),
            ]
    return rows


_PER_LAYER_ROWS = _per_layer()

#: (name, unit, better) of every per-layer metric.
PER_LAYER: List[Tuple[str, str, str]] = [row[:3] for row in _PER_LAYER_ROWS]

#: per-layer metric -> (end-to-end metrics it should move, comma-separated;
#: the workload on which it should move them).
LAYER_TARGETS: Dict[str, Tuple[str, str]] = {
    row[0]: (row[3], row[4]) for row in _PER_LAYER_ROWS
}

UNITS: Dict[str, str] = {
    **{name: unit for name, unit, _better, _bound in END_TO_END},
    **{name: unit for name, unit, _better in PER_LAYER},
}
