"""Chaos sweep: goodput/availability vs. replication factor × failure count.

For each grid point the sweep builds a fresh ``<base>+replicated``
:class:`~repro.core.retrieval.DistributedEmbedding` (its own cluster, so
profiler counters and the heartbeat monitor never mix), runs one healthy
warm-up batch, installs an identical ``device_down`` fault plan, replays
the *identical* synthetic batch stream, and records:

* **availability** — served lookups / total lookups across all batches
  (a table whose every holder is dead drops its lookups; a live replica
  keeps them served);
* **goodput** — served lookups per second of simulated wall time, so the
  failover detour's extra comm cost shows up even when availability
  stays at 1.0;
* **recovery** — re-replication bytes, detection latency, and the
  down-edge → re-protected latency of the background recovery stream.

The artifact is ``BENCH_availability.json``; :data:`SPEC`'s invariants
are the self-check: lookup conservation (served + unavailable = total),
perfect availability and zero failover/recovery traffic with no
failures, detection plus finite positive re-protect latency (and real
recovery bytes) whenever a replica existed to recover to, ``k = 2``
availability ≥ ``k = 1`` for every (backend, failure count) pair where
both ran, and ``k = 2`` fully masking a single failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.retrieval import DistributedEmbedding
from ..core.runspec import PRESETS
from ..dlrm.data import SyntheticDataGenerator
from ..faults import FaultEvent, FaultInjector, FaultPlan
from ..replication import ReplicationSpec
from ..simgpu.units import to_ms, us
from .spec import Arg, Artifact, Invariant, SweepRun, SweepSpec, payload, preset_workload, rule

__all__ = [
    "ChaosSweepPoint",
    "SPEC",
    "run_chaos_sweep",
    "validate_chaossweep_json",
]

#: heartbeat cadence used by the sweep: fast enough that failures are
#: detected within a tiny-preset batch or two
_SWEEP_HEARTBEAT_NS = 5 * us


@dataclass(frozen=True)
class ChaosSweepPoint:
    """One (backend, k, failure count) measurement."""

    backend: str  #: base backend the "+replicated" wrapper fronted
    k: int
    placement: str
    n_failures: int
    n_batches: int
    total_ns: float
    lookups_total: float
    served_lookups: float
    unavailable_lookups: float
    failover_lookups: float
    availability: float
    failures_detected: float
    recovery_bytes: float
    time_to_reprotect_ns: float

    @property
    def goodput_lookups_per_s(self) -> float:
        """Served lookups per second of simulated wall time."""
        if self.total_ns <= 0:
            return 0.0
        return self.served_lookups / (self.total_ns / 1e9)


def _run(args: Any):
    """Measure every (base backend, k, failure count) grid point.

    Every point gets a fresh embedding (its own cluster and heartbeat
    monitor) but an identical batch stream and an identical fault plan:
    after one healthy warm-up batch, devices ``0..n_failures-1`` die
    permanently, and the remaining ``n_batches - 1`` batches run through
    detection, failover, and background recovery.  The grid coordinates
    are the only thing changing between rows.
    """
    for base in args.bases:
        if base not in ("pgas", "baseline"):
            raise ValueError(f"unknown base backend {base!r}")
    n_devices = args.n_devices
    if max(args.failure_counts) >= n_devices:
        raise ValueError("cannot fail every device in the cluster")
    cfg = preset_workload(args.preset, n_devices, seed=args.seed, scale=args.scale)

    points = []
    for base in args.bases:
        for k in args.ks:
            for n_failures in args.failure_counts:
                spec = ReplicationSpec(
                    k=k,
                    placement=args.placement,
                    recovery_bandwidth_share=args.recovery_bandwidth_share,
                    heartbeat_interval_ns=_SWEEP_HEARTBEAT_NS,
                )
                emb = DistributedEmbedding(
                    cfg,
                    n_devices,
                    backend=f"{base}+replicated",
                    features=FeatureSpec(replication=spec),
                )
                adapter = emb.backend_adapter(f"{base}+replicated")
                gen = SyntheticDataGenerator(cfg)
                total = PhaseTiming()
                total.add(adapter.run_timed(emb.build_workloads(gen.lengths_batch())))
                if n_failures:
                    plan = FaultPlan(tuple(
                        FaultEvent("device_down", 1.0 + d, 1e9, device=d)
                        for d in range(n_failures)
                    ))
                    FaultInjector(emb.cluster, plan).install()
                for _ in range(args.n_batches - 1):
                    total.add(
                        adapter.run_timed(emb.build_workloads(gen.lengths_batch()))
                    )
                adapter.wait_for_reprotect(
                    limit_ns=emb.cluster.engine.now + 1e9
                )
                totals = adapter.totals()
                recovery = emb.cluster.profiler.counters.get(
                    "availability.recovery_bytes"
                )
                served = totals["lookups_total"] - totals["unavailable_lookups"]
                points.append(
                    ChaosSweepPoint(
                        backend=base,
                        k=k,
                        placement=args.placement,
                        n_failures=n_failures,
                        n_batches=args.n_batches,
                        total_ns=total.total_ns,
                        lookups_total=totals["lookups_total"],
                        served_lookups=served,
                        unavailable_lookups=totals["unavailable_lookups"],
                        failover_lookups=totals["failover_lookups"],
                        availability=totals["availability"],
                        failures_detected=totals["failures_detected"],
                        recovery_bytes=(
                            float(recovery.total) if recovery is not None else 0.0
                        ),
                        time_to_reprotect_ns=totals["time_to_reprotect_ns"],
                    )
                )
    envelope = {"preset": args.preset, "n_devices": n_devices,
                "n_batches": args.n_batches}
    return envelope, points


def _by_failures(points) -> Dict[tuple, Dict[int, Dict[str, Any]]]:
    groups: Dict[tuple, Dict[int, Dict[str, Any]]] = {}
    for point in points:
        groups.setdefault((point["backend"], point["n_failures"]), {})[
            point["k"]
        ] = point
    return groups


def _k2_not_below_k1(points, data) -> Optional[str]:
    for (backend, fails), by_k in _by_failures(points).items():
        k1 = by_k.get(1)
        k2 = by_k.get(2)
        if k1 is not None and k2 is not None and k2["availability"] < k1["availability"]:
            return (
                f"({backend}, failures={fails}): k=2 availability "
                f"{k2['availability']} below k=1 {k1['availability']}"
            )
    return None


def _single_failure_masked(points, data) -> Optional[str]:
    for (backend, fails), by_k in _by_failures(points).items():
        k2 = by_k.get(2)
        if fails == 1 and k2 is not None and k2["availability"] != 1.0:
            return (
                f"({backend}, failures=1): one replica must fully mask a "
                f"single failure (k=2 availability {k2['availability']})"
            )
    return None


def _recovery_excused(p, data) -> bool:
    # Re-replication needs a live non-holder to copy to: with k - 1
    # surviving holders, that means G - failures >= k.
    return (
        p["n_failures"] == 0 or p["k"] < 2
        or data["n_devices"] - p["n_failures"] < p["k"]
    )


SPEC = SweepSpec(
    name="chaossweep",
    help="replication/failover availability sweep + BENCH_availability.json",
    args=(
        Arg("--preset", choices=PRESETS, default="tiny",
            help="workload preset (resolved via preset_runspec)"),
        Arg("--gpus", type=int, default=4, help="simulated GPU count",
            dest="n_devices", min=1),
        Arg("--k", type=int, nargs="+", default=[1, 2],
            help="replication factors to measure", dest="ks", min=1),
        Arg("--failures", type=int, nargs="+", default=[0, 1],
            help="permanent device_down counts per point", dest="failure_counts",
            min=0),
        Arg("--backends", nargs="+", choices=("pgas", "baseline"),
            default=["pgas", "baseline"], help="base backends to wrap", dest="bases"),
        Arg("--placement", choices=("spread", "ring"), default="spread",
            help="replica placement policy"),
        Arg("--batches", type=int, default=6,
            help="batches per point (first is the healthy warm-up)",
            dest="n_batches", min=2),
        Arg("--recovery-share", type=float, default=0.25,
            help="link bandwidth share granted to recovery streams",
            dest="recovery_bandwidth_share"),
        Arg("--scale", type=float, default=1.0,
            help="batch-size scale factor (1.0 = preset size)"),
        Arg("--seed", type=int, default=None,
            help="workload seed override (default: preset's)"),
    ),
    run=_run,
    title=lambda run: (
        f"[chaos sweep: {run.preset} preset, {run.n_devices} GPUs, "
        f"{run.n_batches} batches/point]"
    ),
    columns=(
        ("backend", lambda p: p.backend),
        ("k", lambda p: f"{p.k}"),
        ("fails", lambda p: f"{p.n_failures}"),
        ("total (ms)", lambda p: f"{to_ms(p.total_ns):.3f}"),
        ("availability", lambda p: f"{p.availability:.4f}"),
        ("goodput (M/s)", lambda p: f"{p.goodput_lookups_per_s / 1e6:.2f}"),
        ("failover", lambda p: f"{int(p.failover_lookups)}"),
        ("recovery (MB)", lambda p: f"{p.recovery_bytes / 1e6:.3f}"),
        ("reprotect (us)", lambda p: (
            f"{p.time_to_reprotect_ns / us:.1f}" if p.time_to_reprotect_ns > 0 else "-"
        )),
    ),
    coords=("backend", "k", "n_failures"),
    artifact=Artifact(
        file="BENCH_availability.json",
        kind="availability",
        keys=("preset", "n_devices", "n_batches"),
        point_keys=(
            "backend", "k", "placement", "n_failures", "n_batches", "total_ns",
            "lookups_total", "served_lookups", "unavailable_lookups",
            "failover_lookups", "availability", "failures_detected",
            "recovery_bytes", "time_to_reprotect_ns", "goodput_lookups_per_s",
        ),
        label="point {i} ({backend}, k={k}, failures={n_failures})",
    ),
    point_dict=payload("goodput_lookups_per_s"),
    invariants=(
        rule("availability-range", lambda p, d: 0.0 <= p["availability"] <= 1.0,
             "{label}: availability outside [0, 1]"),
        rule("reprotect-finite", lambda p, d: math.isfinite(p["time_to_reprotect_ns"]),
             "{label}: time_to_reprotect_ns must be finite"),
        rule("lookup-conservation",
             lambda p, d: abs(p["served_lookups"] + p["unavailable_lookups"]
                              - p["lookups_total"]) <= 0.5,
             "{label}: served + unavailable != total lookups"),
        rule("positive-goodput",
             lambda p, d: p["total_ns"] > 0 and p["goodput_lookups_per_s"] > 0,
             "{label}: degenerate timing/goodput"),
        rule("healthy-availability",
             lambda p, d: p["n_failures"] != 0 or p["availability"] == 1.0,
             "{label}: healthy run must have availability 1.0"),
        rule("healthy-no-recovery",
             lambda p, d: p["n_failures"] != 0
             or not (p["failover_lookups"] or p["recovery_bytes"]),
             "{label}: healthy run moved failover/recovery traffic"),
        rule("failure-detected",
             lambda p, d: p["n_failures"] == 0 or p["k"] < 2
             or p["failures_detected"] >= 1,
             "{label}: failure was never detected"),
        rule("recovery-bytes",
             lambda p, d: _recovery_excused(p, d) or p["recovery_bytes"] > 0,
             "{label}: recovery moved no bytes"),
        rule("recovery-completed",
             lambda p, d: _recovery_excused(p, d) or p["time_to_reprotect_ns"] > 0,
             "{label}: recovery never completed"),
        Invariant("k2-not-below-k1", _k2_not_below_k1),
        Invariant("k2-masks-single-failure", _single_failure_masked),
    ),
)


def run_chaos_sweep(preset: str = "tiny", **params: Any) -> SweepRun:
    """Run the chaos sweep from library keywords.

    ``params`` are :data:`SPEC`'s argument names with the CLI defaults:
    ``n_devices``, ``ks``, ``failure_counts``, ``bases``, ``placement``,
    ``n_batches``, ``recovery_bandwidth_share``, ``scale``, ``seed``.
    """
    return SPEC.sweep(preset=preset, **params)


def validate_chaossweep_json(data: Any) -> None:
    """Validate a ``BENCH_availability.json`` payload (raises ``ValueError``)."""
    SPEC.validate(data)
