"""Critical-path bench: per-backend path attribution and ``BENCH_critpath.json``.

Runs the same traced batch stream through each backend on a fresh cluster,
extracts the run-level and per-batch critical paths (DESIGN.md §13), and
renders where the bounding time went — compute, interconnect, unpack, or
idle — next to the first-order "what-if" headroom.  The artifact is what
the regression gate (:mod:`repro.obs.regress`, ``critpath --gate``) diffs
against its committed baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..core.baseline import PhaseTiming
from ..core.retrieval import DistributedEmbedding
from ..core.runspec import PRESETS, RunSpec
from ..dlrm.data import SyntheticDataGenerator
from ..obs import TraceSpec
from ..obs.critpath import critical_path_report
from ..simgpu.units import to_ms
from .spec import Arg, Artifact, Invariant, SweepRun, SweepSpec, preset_workload, rule

__all__ = [
    "CritPathPoint",
    "SPEC",
    "run_critpath",
    "validate_critpath_json",
]

#: wall == path, by_category sums to path, per-batch wall == path: the
#: tiling is exact by construction, so only float summation noise is allowed
_REL_TOL = 1e-6


@dataclass
class CritPathPoint:
    """One backend's critical-path attribution over the shared batch stream."""

    backend: str
    n_batches: int
    wall_ns: float
    path_ns: float
    by_category: Dict[str, float]
    by_device: Dict[str, float]
    slack_min_ns: float
    slack_total_ns: float
    whatif: Dict[str, float]
    batches: List[Dict[str, Any]] = field(default_factory=list)


def _floats(d: Dict[str, Any]) -> Dict[str, float]:
    return {k: float(v) for k, v in d.items()}


def _run(args: Any):
    """Trace every backend over the same batches and extract its paths.

    Each backend gets a fresh cluster (so profiler records never mix) with
    request tracing on (``obs=TraceSpec()``) and the identical batch
    stream; ``scale`` shrinks the batch dimension for quick runs.
    """
    cfg = preset_workload(args.preset, args.n_devices, seed=args.seed, scale=args.scale)
    spec = RunSpec(workload=cfg, n_devices=args.n_devices, name=args.preset,
                   obs=TraceSpec())

    points = []
    for backend in args.backends:
        emb = DistributedEmbedding.from_spec(spec, backend=backend)
        gen = SyntheticDataGenerator(cfg)
        timing = PhaseTiming()
        for _ in range(args.n_batches):
            timing.add(emb.forward_timed(gen.lengths_batch()))
        report = critical_path_report(emb.cluster.profiler)
        points.append(
            CritPathPoint(
                backend=backend,
                n_batches=args.n_batches,
                wall_ns=float(report["wall_ns"]),
                path_ns=float(report["path_ns"]),
                by_category=_floats(report["by_category"]),
                by_device=_floats(report["by_device"]),
                slack_min_ns=float(report["slack"]["min_ns"]),
                slack_total_ns=float(report["slack"]["total_ns"]),
                whatif=_floats(report["whatif"]),
                batches=report["batches"],
            )
        )
    envelope = {"preset": args.preset, "n_devices": args.n_devices,
                "n_batches": args.n_batches}
    return envelope, points


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _REL_TOL * max(abs(a), abs(b), 1.0)


def _columns(run: SweepRun):
    categories = sorted({c for p in run.points for c in p.by_category})

    def category(c: str):
        def fmt(p: CritPathPoint) -> str:
            ns = p.by_category.get(c, 0.0)
            return f"{to_ms(ns):.3f}" if ns else "-"
        return fmt

    def top_whatif(p: CritPathPoint) -> str:
        if not p.whatif:
            return "-"
        name, wall = min(p.whatif.items(), key=lambda kv: kv[1])
        return f"-{name[len('zero_'):-len('_wall_ns')]}: {to_ms(wall):.3f}"

    return (
        [("backend", lambda p: p.backend),
         ("wall (ms)", lambda p: f"{to_ms(p.wall_ns):.3f}")]
        + [(f"{c} (ms)", category(c)) for c in categories]
        + [("top what-if", top_whatif)]
    )


def _attribution_sums(key: str, what: str) -> Invariant:
    def check(label, p, data) -> Optional[str]:
        total = sum(p[key].values())
        if _close(total, p["path_ns"]):
            return None
        return (f"{label}: {what} attribution ({total}) does not sum "
                f"to the path ({p['path_ns']})")
    return Invariant(f"{what}-attribution-sums", check, per_point=True)


def _whatif_in_range(label, p, data) -> Optional[str]:
    for name, wall in p["whatif"].items():
        if not (0.0 <= wall <= p["wall_ns"] * (1.0 + _REL_TOL)):
            return f"{label}: what-if {name} ({wall}) outside [0, wall]"
    return None


def _batches_tile(label, p, data) -> Optional[str]:
    if not p["batches"]:
        return f"{label}: traced run must carry per-batch paths"
    for j, b in enumerate(p["batches"]):
        if not _close(b["path_ns"], b["wall_ns"]):
            return f"{label} batch {j}: per-batch path does not tile its wall"
    return None


def _pgas_hides_comm(points, data) -> Optional[str]:
    by_backend = {p["backend"]: p for p in points}
    pgas = by_backend.get("pgas")
    baseline = by_backend.get("baseline")
    if pgas is None or baseline is None or data["n_devices"] < 2:
        return None
    if baseline["by_category"].get("comm", 0.0) <= 0:
        return "baseline's critical path never crossed the interconnect"
    if pgas["by_category"].get("comm", 0.0) != 0.0:
        return ("pgas critical path carries an exposed comm phase; its "
                "transfers should hide inside the fused kernel")
    return None


def _gate(args: Any, run: SweepRun) -> int:
    """Compare the fresh run against ``--gate``'s committed artifact."""
    if not args.gate:
        return 0
    from ..obs.regress import Tolerance, compare_critpath

    with open(args.gate) as fh:
        baseline = json.load(fh)
    gate = compare_critpath(
        baseline,
        run.as_dict(),
        tolerance=Tolerance(rel=args.gate_rel, abs_ns=args.gate_abs_ns),
    )
    print(gate.render())
    return 0 if gate.passed else 1


SPEC = SweepSpec(
    name="critpath",
    help="traced critical-path attribution + BENCH_critpath.json",
    args=(
        Arg("--preset", choices=PRESETS, default="tiny",
            help="workload preset (resolved via preset_runspec)"),
        Arg("--gpus", type=int, default=2, help="simulated GPU count",
            dest="n_devices", min=1),
        Arg("--backends", nargs="+", default=["pgas", "baseline"],
            help="backends to trace"),
        Arg("--batches", type=int, default=2, help="batches per backend",
            dest="n_batches", min=1),
        Arg("--scale", type=float, default=1.0,
            help="batch-size scale factor (1.0 = preset size)"),
        Arg("--seed", type=int, default=None,
            help="workload seed override (default: preset's)"),
    ),
    cli_args=(
        Arg("--gate", default=None, metavar="BASELINE_JSON",
            help="compare against this committed artifact; exit 1 on breach"),
        Arg("--gate-rel", type=float, default=0.05,
            help="relative tolerance for the regression gate"),
        Arg("--gate-abs-ns", type=float, default=1000.0,
            help="absolute tolerance floor for the regression gate (ns)"),
    ),
    run=_run,
    title=lambda run: (
        f"[critpath: {run.preset} preset, {run.n_devices} GPUs, "
        f"{run.n_batches} batch(es)]"
    ),
    columns=_columns,
    coords=("backend",),
    artifact=Artifact(
        file="BENCH_critpath.json",
        kind="critpath",
        keys=("preset", "n_devices", "n_batches"),
        point_keys=(
            "backend", "n_batches", "wall_ns", "path_ns", "by_category",
            "by_device", "slack_min_ns", "slack_total_ns", "whatif", "batches",
        ),
        label="point {i} ({backend})",
    ),
    invariants=(
        rule("positive-wall", lambda p, d: p["wall_ns"] > 0,
             "{label}: degenerate wall time"),
        rule("path-tiles-wall", lambda p, d: _close(p["path_ns"], p["wall_ns"]),
             "{label}: critical path ({path_ns}) does not tile the wall ({wall_ns})"),
        _attribution_sums("by_category", "category"),
        _attribution_sums("by_device", "device"),
        rule("non-negative-slack", lambda p, d: p["slack_min_ns"] >= 0,
             "{label}: negative per-span slack"),
        Invariant("whatif-in-range", _whatif_in_range, per_point=True),
        Invariant("batches-tile", _batches_tile, per_point=True),
        Invariant("pgas-hides-comm", _pgas_hides_comm),
    ),
    finish=_gate,
)


def run_critpath(preset: str = "tiny", **params: Any) -> SweepRun:
    """Run the critical-path bench from library keywords.

    ``params`` are :data:`SPEC`'s argument names with the CLI defaults:
    ``n_devices``, ``backends``, ``n_batches``, ``scale``, ``seed``.
    """
    return SPEC.sweep(preset=preset, **params)


def validate_critpath_json(data: Any) -> None:
    """Validate a ``BENCH_critpath.json`` payload (raises ``ValueError``)."""
    SPEC.validate(data)
