"""Fault sweep: serving SLOs vs. fault severity, per backend.

For each (severity, base backend) point the sweep builds a fresh cluster,
installs a :class:`~repro.faults.FaultPlan` generated from the severity
knob (same seed → same plan shape at every severity, scaled in depth),
and serves a Poisson request stream through the ``"+resilient"`` wrapper
of the base backend with a request deadline, load shedding, and hedged
re-execution enabled.  Severity ``0.0`` is the healthy reference: an
empty plan, where the wrapper reproduces the base backend exactly.

The rendered table answers the deployment question the robustness work
exists for: how do goodput, shed/degraded fractions, and tail latency
decay as the fabric gets sicker — and does the PGAS backend keep its
healthy-path advantage under fault?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from ..core.pipeline import DLRMInferencePipeline
from ..core.runspec import RunSpec
from ..core.serving import InferenceServer, SchedulerSpec, ServingResult, ServingSpec
from ..dlrm.data import WorkloadConfig
from ..faults import FaultInjector, FaultPlan, ResilienceSpec
from ..simgpu.units import ms
from .spec import Arg, SweepRun, SweepSpec, workload_args, workload_from_args

__all__ = ["FaultSweepPoint", "SPEC", "run_fault_sweep"]


@dataclass(frozen=True)
class FaultSweepPoint:
    """One (severity, base backend) serving measurement."""

    severity: float
    base: str  #: underlying backend name ("pgas" or "baseline")
    n_faults: int  #: windows in the installed plan
    result: ServingResult

    @property
    def backend(self) -> str:
        """The resilient backend name the point ran."""
        return self.result.backend


def run_fault_sweep(
    base_config: WorkloadConfig,
    severities: Sequence[float],
    *,
    bases: Sequence[str] = ("pgas", "baseline"),
    **options: Any,
) -> SweepRun:
    """Serve a request stream at each fault severity with each base backend.

    Every point gets a *fresh* pipeline (its own cluster: fault state
    never leaks between points) and the same seeds, so the severity axis
    is the only thing changing along a row.  ``options`` are the serving
    knobs of the grid (``n_devices``, ``n_requests``, ``arrival_qps``,
    ``deadline_ns``, ``emb_deadline_ns``, ``queue_limit``,
    ``hedge_after_ns``, ``max_batch``, ``batch_window_ns``, ``seed``,
    ``scheduler``).  ``emb_deadline_ns`` drives the resilient wrapper's
    retry machinery; ``deadline_ns`` is the request-level SLO being
    reported against.  ``scheduler`` optionally enables continuous
    batching at every point (default: sequential).
    """
    if not severities:
        raise ValueError("need at least one severity")
    if not bases:
        raise ValueError("need at least one base backend")
    return SweepRun(SPEC, *_grid(base_config, severities, bases, **options))


def _grid(
    base_config: WorkloadConfig,
    severities: Sequence[float],
    bases: Sequence[str],
    *,
    n_devices: int = 4,
    n_requests: int = 64,
    arrival_qps: float = 50_000.0,
    deadline_ns: Optional[float] = 10 * ms,
    emb_deadline_ns: Optional[float] = 5 * ms,
    queue_limit: Optional[int] = 512,
    hedge_after_ns: Optional[float] = None,
    max_batch: int = 8,
    batch_window_ns: float = 0.2 * ms,
    seed: int = 0,
    scheduler: Optional[SchedulerSpec] = None,
):
    points = []
    # Plan horizon: a little past the expected arrival span, so windows
    # land inside the run instead of after it.
    horizon_ns = max(n_requests * 1e9 / arrival_qps * 2.0, 2 * ms)
    for severity in severities:
        for base in bases:
            spec = RunSpec(
                workload=base_config,
                n_devices=n_devices,
                backend=f"{base}+resilient",
                resilience=ResilienceSpec(deadline_ns=emb_deadline_ns, seed=seed),
                serving=ServingSpec(
                    arrival_qps=arrival_qps,
                    max_batch=max_batch,
                    batch_window_ns=batch_window_ns,
                    seed=seed,
                    deadline_ns=deadline_ns,
                    queue_limit=queue_limit,
                    hedge_after_ns=hedge_after_ns,
                ),
                scheduler=scheduler,
            )
            pipeline = DLRMInferencePipeline.from_spec(spec)
            plan = FaultPlan.generate(
                n_devices, horizon_ns, severity=severity, seed=seed
            )
            FaultInjector(pipeline.cluster, plan).install()
            server = InferenceServer.from_spec(spec, pipeline=pipeline)
            result = server.simulate(n_requests)
            points.append(
                FaultSweepPoint(
                    severity=severity, base=base, n_faults=len(plan), result=result
                )
            )
    envelope = {"n_devices": n_devices, "n_requests": n_requests,
                "arrival_qps": arrival_qps, "deadline_ns": deadline_ns}
    return envelope, points


def _run(args: Any):
    return _grid(
        workload_from_args(args),
        args.severities,
        args.backends,
        n_devices=args.gpus,
        n_requests=args.requests,
        arrival_qps=args.qps,
        deadline_ns=args.deadline_ms * ms,
        emb_deadline_ns=args.emb_deadline_ms * ms,
        queue_limit=args.queue_limit,
        hedge_after_ns=args.hedge_ms * ms if args.hedge_ms is not None else None,
        seed=args.seed,
    )


def _title(run: SweepRun) -> str:
    deadline = (
        f"deadline {run.deadline_ns / ms:.2f} ms"
        if run.deadline_ns is not None
        else "no deadline"
    )
    return (
        f"[fault sweep @ {run.n_devices} GPUs, {run.n_requests} requests, "
        f"{run.arrival_qps:,.0f} qps, {deadline}]"
    )


def _served(fmt):
    return lambda p: fmt(p.result) if p.result.n_requests > 0 else "-"


SPEC = SweepSpec(
    name="faultsweep",
    help="serving SLOs vs fault severity",
    args=workload_args(tables=8, rows=4096, dim=16, batch=512, pooling=4, gpus=4) + (
        Arg("--severities", type=float, nargs="+", default=[0.0, 0.3, 0.6, 0.9],
            help="fault severities in [0, 1] (0 = healthy reference)"),
        Arg("--backends", nargs="+", choices=("pgas", "baseline"),
            default=["pgas", "baseline"], help="base backends to wrap"),
        Arg("--requests", type=int, default=48, help="requests per point", min=1),
        Arg("--qps", type=float, default=50_000.0, help="offered load"),
        Arg("--deadline-ms", type=float, default=2.0, help="request SLO deadline (ms)"),
        Arg("--emb-deadline-ms", type=float, default=0.25,
            help="per-attempt EMB deadline driving retries (ms)"),
        Arg("--queue-limit", type=int, default=512,
            help="shed arrivals beyond this queue depth", min=1),
        Arg("--hedge-ms", type=float, default=None,
            help="hedge batches running longer than this (ms)"),
    ),
    run=_run,
    title=_title,
    columns=(
        ("severity", lambda p: f"{p.severity:g}"),
        ("backend", lambda p: p.base),
        ("faults", lambda p: f"{p.n_faults}"),
        ("served", lambda p: f"{p.result.n_requests}/{p.result.n_offered}"),
        ("shed", lambda p: f"{p.result.shed_fraction:.1%}"),
        ("degraded", lambda p: f"{p.result.degraded_fraction:.2%}"),
        ("retries", lambda p: f"{p.result.emb_retries}"),
        ("reroutes", lambda p: f"{p.result.emb_reroutes}"),
        ("hedged", lambda p: f"{p.result.n_hedged}"),
        ("hit rate", _served(lambda r: f"{r.deadline_hit_rate:.1%}")),
        ("p50 (ms)", _served(lambda r: f"{r.p50_ms:.2f}")),
        ("p99 (ms)", _served(lambda r: f"{r.p99_ms:.2f}")),
        ("goodput", _served(lambda r: f"{r.goodput_qps:,.0f}")),
    ),
    coords=("severity", "base"),
)
