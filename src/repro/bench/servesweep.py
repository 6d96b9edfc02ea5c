"""Serving sweep: continuous-batching goodput across (backend, QPS, K, policy).

For each grid point the sweep builds a fresh pipeline from one
:class:`~repro.core.runspec.RunSpec`, serves a Poisson request stream
through the continuous-batching scheduler, and records the
:class:`~repro.core.serving.ServingResult` — latency percentiles, the
form/queue/execute segment means, goodput, and the interconnect-idle
time the extra in-flight batches exist to reclaim.

The rendered table answers the scheduler's motivating question directly:
at a saturating arrival rate, does keeping K=2 batches in flight raise
goodput and shrink the inter-batch interconnect bubble relative to the
sequential K=1 server — and by how much per backend?  The artifact is
``BENCH_serving.json``; :data:`SPEC`'s invariants check its shape and
that pgas K=2 never loses goodput against K=1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.runspec import PRESETS, RunSpec, preset_runspec
from ..core.serving import InferenceServer, SchedulerSpec, ServingResult, ServingSpec
from ..simgpu.units import ms
from .spec import Arg, Artifact, Invariant, SweepRun, SweepSpec

__all__ = [
    "SPEC",
    "ServeSweepPoint",
    "run_serve_sweep",
    "validate_servesweep_json",
]


@dataclass(frozen=True)
class ServeSweepPoint:
    """One (backend, QPS, max_in_flight, policy) serving measurement."""

    backend: str
    arrival_qps: float
    max_in_flight: int
    policy: str
    result: ServingResult

    @property
    def idle_share(self) -> float:
        """Interconnect-idle time as a share of the serving window."""
        if self.result.sim_duration_ns <= 0:
            return 0.0
        return self.result.interconnect_idle_ns / self.result.sim_duration_ns


def _point_dict(p: ServeSweepPoint) -> Dict[str, Any]:
    """Grid coordinates plus the full result payload."""
    return {
        "backend": p.backend,
        "arrival_qps": float(p.arrival_qps),
        "max_in_flight": p.max_in_flight,
        "policy": p.policy,
        "idle_share": p.idle_share,
        "result": p.result.as_dict(),
    }


def _run(args: Any):
    """Serve a request stream at every (backend, QPS, K, policy) point.

    Every point gets a *fresh* pipeline (its own cluster, so profiler
    records and stream queues never leak between points) built from one
    :class:`RunSpec`, and identical seeds — the grid coordinates are the
    only thing changing between rows.
    """
    n_devices = args.n_devices
    window_ns = args.window_ms * ms
    deadline_ns = args.deadline_ms * ms if args.deadline_ms is not None else None
    workload = preset_runspec(args.preset, n_devices).workload
    points = []
    for backend in args.backends:
        for rate in args.qps:
            for policy in args.policies:
                for k in args.max_in_flight:
                    spec = RunSpec(
                        workload=workload,
                        n_devices=n_devices,
                        backend=backend,
                        name=args.preset,
                        serving=ServingSpec(
                            arrival_qps=rate,
                            max_batch=args.max_batch,
                            batch_window_ns=window_ns,
                            seed=args.seed,
                            deadline_ns=deadline_ns,
                            scheduler=SchedulerSpec(max_in_flight=k, policy=policy),
                        ),
                    )
                    result = InferenceServer.from_spec(spec).simulate(args.n_requests)
                    points.append(
                        ServeSweepPoint(
                            backend=backend,
                            arrival_qps=rate,
                            max_in_flight=k,
                            policy=policy,
                            result=result,
                        )
                    )
    envelope = {
        "preset": args.preset,
        "n_devices": n_devices,
        "n_requests": args.n_requests,
        "max_batch": args.max_batch,
        "batch_window_ns": float(window_ns),
    }
    return envelope, points


def _result_shape(label, point, data) -> Optional[str]:
    result = point["result"]
    if not isinstance(result, dict):
        return f"{label} result must be a dict"
    for key in ("goodput_qps", "interconnect_idle_ns", "formed_by", "n_requests"):
        if key not in result:
            return f"{label} result missing key {key!r}"
    if point["max_in_flight"] != result["max_in_flight"]:
        return f"{label}: max_in_flight disagrees with its result"
    return None


def _pgas_k2_keeps_goodput(points, data) -> Optional[str]:
    groups: Dict[tuple, Dict[int, float]] = {}
    for p in points:
        if p["backend"] == "pgas":
            groups.setdefault((p["arrival_qps"], p["policy"]), {})[
                p["max_in_flight"]
            ] = p["result"]["goodput_qps"]
    for (qps, policy), by_k in groups.items():
        if 1 in by_k and 2 in by_k and by_k[2] < by_k[1]:
            return (
                f"(pgas, qps={qps:g}, {policy}): K=2 goodput {by_k[2]} "
                f"below K=1 {by_k[1]}"
            )
    return None


def _title(run: SweepRun) -> str:
    return (
        f"[serve sweep: {run.preset} preset, {run.n_devices} GPUs, "
        f"{run.n_requests} requests/point, max batch {run.max_batch}, "
        f"window {run.batch_window_ns / ms:.2f} ms]"
    )


def _served(fmt):
    return lambda p: fmt(p.result) if p.result.n_requests > 0 else "-"


SPEC = SweepSpec(
    name="servesweep",
    help="continuous-batching goodput sweep + BENCH_serving.json",
    args=(
        Arg("--preset", choices=PRESETS, default="tiny",
            help="workload preset (resolved via preset_runspec)"),
        Arg("--gpus", type=int, default=2, help="simulated GPU count",
            dest="n_devices", min=1),
        Arg("--backends", nargs="+", default=["pgas", "baseline"],
            help="backends to compare"),
        Arg("--qps", type=float, nargs="+", default=[200_000.0],
            help="offered arrival rates"),
        Arg("--k", type=int, nargs="+", default=[1, 2],
            help="max in-flight batches (scheduler depth) values",
            dest="max_in_flight", min=1),
        Arg("--policies", nargs="+", choices=("size", "timeout", "hybrid"),
            default=["hybrid"], help="batch-formation policies"),
        Arg("--requests", type=int, default=32, help="requests per point",
            dest="n_requests", min=1),
        Arg("--max-batch", type=int, default=8, help="batcher's size cap", min=1),
        Arg("--window-ms", type=float, default=0.1,
            help="batch-formation window (ms)"),
        Arg("--deadline-ms", type=float, default=None,
            help="request SLO deadline (ms); goodput counts hits only"),
        Arg("--seed", type=int, default=0),
    ),
    run=_run,
    title=_title,
    columns=(
        ("backend", lambda p: p.backend),
        ("qps", lambda p: f"{p.arrival_qps:,.0f}"),
        ("K", lambda p: f"{p.max_in_flight}"),
        ("policy", lambda p: p.policy),
        ("served", lambda p: f"{p.result.n_requests}/{p.result.n_offered}"),
        ("batch", lambda p: f"{p.result.mean_batch_size:.1f}"),
        ("p50 (ms)", _served(lambda r: f"{r.p50_ms:.3f}")),
        ("p99 (ms)", _served(lambda r: f"{r.p99_ms:.3f}")),
        ("form", lambda p: f"{p.result.mean_form_ns / ms:.3f}"),
        ("queue", lambda p: f"{p.result.mean_queue_ns / ms:.3f}"),
        ("exec", lambda p: f"{p.result.mean_execute_ns / ms:.3f}"),
        ("goodput", lambda p: f"{p.result.goodput_qps:,.0f}"),
        ("net idle", lambda p: f"{p.idle_share:.1%}"),
    ),
    coords=("backend", "arrival_qps", "max_in_flight", "policy"),
    artifact=Artifact(
        file="BENCH_serving.json",
        kind="serving",
        keys=("preset", "n_devices", "n_requests", "max_batch", "batch_window_ns"),
        point_keys=("backend", "arrival_qps", "max_in_flight", "policy", "result"),
    ),
    point_dict=_point_dict,
    invariants=(
        Invariant("result-shape", _result_shape, per_point=True),
        Invariant("pgas-k2-keeps-goodput", _pgas_k2_keeps_goodput),
    ),
)


def run_serve_sweep(preset: str = "tiny", **params: Any) -> SweepRun:
    """Run the serving sweep from library keywords.

    ``params`` are :data:`SPEC`'s argument names with the CLI defaults:
    ``n_devices``, ``backends``, ``qps``, ``max_in_flight``, ``policies``,
    ``n_requests``, ``max_batch``, ``window_ms``, ``deadline_ms``, ``seed``.
    """
    return SPEC.sweep(preset=preset, **params)


def validate_servesweep_json(data: Any) -> None:
    """Validate a ``BENCH_serving.json`` payload (raises ``ValueError``)."""
    SPEC.validate(data)
