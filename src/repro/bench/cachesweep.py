"""Hot-row cache sweep: hit rate and EMB speedup vs skew and capacity.

For each (zipf alpha, cache capacity) point the sweep measures one base
backend with and without the cache on identical batch streams: simulated
EMB forward time, EMB-pass comm volume (the paper's wire-byte metric),
and the cache's hit rate.  The expected shape — and what the acceptance
tests assert — is that once the workload is skewed (alpha ≳ 1.05) and the
cache holds a few percent of the remote rows, both the comm volume and
the forward time drop strictly below the uncached backend.

:func:`serving_cache_comparison` closes the serving loop: tail latency
vs offered load with and without the cache, same arrival stream.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from ..cache import CacheConfig
from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.pipeline import DLRMInferencePipeline, PipelineConfig
from ..core.retrieval import DistributedEmbedding
from ..core.serving import InferenceServer, ServingResult, ServingSpec
from ..core.workload import lengths_from_batch
from ..dlrm.data import SyntheticDataGenerator, WorkloadConfig
from .spec import Arg, SweepRun, SweepSpec, workload_args, workload_from_args

__all__ = [
    "CacheSweepPoint",
    "SPEC",
    "run_cache_sweep",
    "serving_cache_comparison",
]


@dataclass(frozen=True)
class CacheSweepPoint:
    """One (alpha, capacity) measurement of cached vs uncached."""

    zipf_alpha: float
    capacity_fraction: float
    base: str  #: underlying backend name ("pgas" or "baseline")
    uncached: PhaseTiming
    cached: PhaseTiming
    uncached_comm_bytes: float
    cached_comm_bytes: float
    hit_rate: float

    @property
    def speedup(self) -> float:
        """Uncached over cached EMB forward time."""
        return self.uncached.total_ns / self.cached.total_ns

    @property
    def comm_reduction(self) -> float:
        """Fraction of wire bytes the cache removed."""
        if self.uncached_comm_bytes <= 0:
            return 0.0
        return 1.0 - self.cached_comm_bytes / self.uncached_comm_bytes


def run_cache_sweep(
    base_config: WorkloadConfig,
    alphas: Sequence[float],
    capacity_fractions: Sequence[float],
    *,
    n_batches: int = 4,
    **options: Any,
) -> SweepRun:
    """Measure cached vs uncached over an (alpha × capacity) grid.

    Each point replays the *same* batch stream through both variants on
    fresh clusters.  ``options`` are ``base`` (``"pgas"``), ``policy``
    (``"lru"``), ``n_devices`` (2) and ``warm_batches`` (1): extra leading
    batches that prime the cache (and, for ``static-topk``, feed the
    profiled frequency pass) without being counted in either variant's
    timing.
    """
    if not alphas or not capacity_fractions:
        raise ValueError("sweep needs at least one alpha and one capacity")
    if n_batches <= 0:
        raise ValueError("n_batches must be positive")
    return SweepRun(SPEC, *_grid(
        base_config, alphas, capacity_fractions, n_batches=n_batches, **options
    ))


def _grid(
    base_config: WorkloadConfig,
    alphas: Sequence[float],
    capacity_fractions: Sequence[float],
    *,
    n_batches: int,
    base: str = "pgas",
    policy: str = "lru",
    n_devices: int = 2,
    warm_batches: int = 1,
):
    points = []
    for alpha in alphas:
        cfg = dataclasses.replace(
            base_config, index_distribution="zipf", zipf_alpha=float(alpha)
        )
        gen = SyntheticDataGenerator(cfg)
        warm = [gen.sparse_batch() for _ in range(warm_batches)]
        batches = [gen.sparse_batch() for _ in range(n_batches)]

        # Uncached reference (timing is capacity-independent).
        emb_ref = DistributedEmbedding(cfg, n_devices, backend=base)
        ref_adapter = emb_ref.backend_adapter()
        ref_timing = PhaseTiming()
        ref_comm = 0.0
        for b in batches:
            workloads = emb_ref.build_workloads(lengths_from_batch(b))
            ref_timing.add(ref_adapter.run_timed(workloads))
            ref_comm += sum(wl.remote_output_bytes for wl in workloads)

        for frac in capacity_fractions:
            emb = DistributedEmbedding(
                cfg,
                n_devices,
                backend=f"{base}+cache",
                features=FeatureSpec(
                    cache=CacheConfig(capacity_fraction=float(frac), policy=policy)
                ),
            )
            engine = emb.backend_adapter()
            if policy == "static-topk" and warm:
                engine.warm_static(warm)
            else:
                for b in warm:
                    engine.plan_batch(b)
            timing = PhaseTiming()
            comm = 0.0
            hits = misses = 0
            for b in batches:
                cplan = engine.plan_batch(b)
                timing.add(engine.run_plan(cplan))
                comm += cplan.remote_bytes
                hits += cplan.hits
                misses += cplan.misses
            points.append(
                CacheSweepPoint(
                    zipf_alpha=float(alpha),
                    capacity_fraction=float(frac),
                    base=base,
                    uncached=ref_timing,
                    cached=timing,
                    uncached_comm_bytes=ref_comm,
                    cached_comm_bytes=comm,
                    hit_rate=hits / (hits + misses) if hits + misses else 0.0,
                )
            )
    envelope = {"base": base, "policy": policy, "n_devices": n_devices,
                "n_batches": n_batches}
    return envelope, points


def _run(args: Any):
    return _grid(
        workload_from_args(args),
        args.alphas,
        args.capacities,
        base=args.base,
        policy=args.policy,
        n_devices=args.gpus,
        n_batches=args.batches,
    )


SPEC = SweepSpec(
    name="cachesweep",
    help="hot-row cache sweep (skew x capacity)",
    args=workload_args(tables=8, rows=4096, dim=32, batch=1024, pooling=4) + (
        Arg("--alphas", type=float, nargs="+", default=[1.05, 1.1, 1.2],
            help="zipf skew values"),
        Arg("--capacities", type=float, nargs="+", default=[0.05, 0.1, 0.2],
            help="cache capacity as a fraction of remote rows"),
        Arg("--policy", choices=("lru", "lfu", "static-topk"), default="lru"),
        Arg("--batches", type=int, default=4, help="measured batches per point", min=1),
        Arg("--base", choices=("pgas", "baseline"), default="pgas",
            help="underlying backend to wrap"),
    ),
    run=_run,
    title=lambda run: (
        f"[cache sweep: {run.base} vs {run.base}+cache ({run.policy}) "
        f"@ {run.n_devices} GPUs, {run.n_batches} batches]"
    ),
    columns=(
        ("alpha", lambda p: f"{p.zipf_alpha:g}"),
        ("capacity", lambda p: f"{p.capacity_fraction:.0%}"),
        ("hit rate", lambda p: f"{p.hit_rate:.1%}"),
        ("comm (MB)", lambda p: f"{p.uncached_comm_bytes / 1e6:.3f}"),
        ("comm+$ (MB)", lambda p: f"{p.cached_comm_bytes / 1e6:.3f}"),
        ("comm cut", lambda p: f"{p.comm_reduction:.1%}"),
        ("EMB (ms)", lambda p: f"{p.uncached.total_ns / 1e6:.3f}"),
        ("EMB+$ (ms)", lambda p: f"{p.cached.total_ns / 1e6:.3f}"),
        ("speedup", lambda p: f"{p.speedup:.3f}x"),
    ),
    coords=("zipf_alpha", "capacity_fraction"),
)


def serving_cache_comparison(
    pipeline_config: PipelineConfig,
    qps_values: Sequence[float],
    *,
    backend: str = "pgas",
    cache: Optional[CacheConfig] = None,
    n_devices: int = 2,
    n_requests: int = 400,
    max_batch: int = 128,
    seed: int = 0,
) -> List[Tuple[float, ServingResult, ServingResult]]:
    """Tail latency vs offered load, with and without the hot-row cache.

    Returns ``(qps, uncached_result, cached_result)`` per load point; both
    variants see the same Poisson arrival stream (same seed) on fresh
    clusters, so any latency gap is the EMB stage's.
    """
    cache = cache or CacheConfig()
    out: List[Tuple[float, ServingResult, ServingResult]] = []
    for qps in qps_values:
        plain = InferenceServer(
            DLRMInferencePipeline(pipeline_config, n_devices, backend=backend),
            ServingSpec(arrival_qps=float(qps), max_batch=max_batch, seed=seed),
        ).simulate(n_requests)
        cached = InferenceServer(
            DLRMInferencePipeline(
                pipeline_config, n_devices, backend=f"{backend}+cache",
                features=FeatureSpec(cache=cache),
            ),
            ServingSpec(arrival_qps=float(qps), max_batch=max_batch, seed=seed),
        ).simulate(n_requests)
        out.append((float(qps), plain, cached))
    return out
