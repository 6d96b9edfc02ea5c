"""Telemetry bench: side-by-side backend metrics and ``BENCH_metrics.json``.

Runs the same workload through each backend on a fresh cluster, derives a
full :class:`~repro.telemetry.RunReport` per backend, and renders the
paper-facing comparison (overlap fraction, exposed comm, link burstiness,
unpack share) as one table — the quantitative form of the paper's
"communication is hidden and smoothed" claims.  The artifact is the
machine-readable form a perf gate can diff across commits.
"""

from __future__ import annotations

import argparse
from typing import Any, Optional

from ..core.baseline import PhaseTiming
from ..core.retrieval import DistributedEmbedding
from ..core.runspec import PRESETS, RunSpec
from ..dlrm.data import SyntheticDataGenerator
from ..simgpu.units import to_ms
from ..telemetry import validate_report
from ..telemetry.report import ReportValidationError
from .spec import Arg, Artifact, Invariant, SweepRun, SweepSpec, preset_workload

__all__ = [
    "METRIC_ROWS",
    "PRESETS",
    "SPEC",
    "preset_workload",
    "run_metrics",
    "validate_metrics_json",
]

# PRESETS is re-exported from repro.core.runspec (its canonical home).

#: rows of the comparison table: (metric name, label, formatter)
METRIC_ROWS = (
    ("overlap_fraction", "overlap fraction", lambda v: f"{v:.3f}"),
    ("exposed_comm_ns", "exposed comm (ms)", lambda v: f"{to_ms(v):.3f}"),
    ("link_peak_to_mean", "link peak-to-mean", lambda v: f"{v:.2f}"),
    ("link_gini", "link Gini", lambda v: f"{v:.3f}"),
    ("unpack_share", "unpack share", lambda v: f"{v:.3f}"),
    ("comm_bytes_total", "comm volume (MB)", lambda v: f"{v / 1e6:.1f}"),
    ("run_wall_ns", "run wall (ms)", lambda v: f"{to_ms(v):.3f}"),
)


def _run(args: Any):
    """Run every backend over the same batches and derive its report.

    Each backend gets a fresh cluster (so profiler records don't mix) but
    the identical batch stream; ``scale`` shrinks the batch dimension for
    quick runs (1.0 = paper size).
    """
    cfg = preset_workload(args.preset, args.n_devices, seed=args.seed, scale=args.scale)
    spec = RunSpec(workload=cfg, n_devices=args.n_devices, name=args.preset)
    reports = {}
    for backend in args.backends:
        emb = DistributedEmbedding.from_spec(spec, backend=backend)
        gen = SyntheticDataGenerator(cfg)
        total = PhaseTiming()
        for _ in range(args.n_batches):
            total.add(emb.forward_timed(gen.lengths_batch()))
        reports[backend] = emb.telemetry_report(
            timing=total,
            workload=cfg,
            n_bins=args.n_bins,
            include_series=args.include_series,
            meta={"preset": args.preset, "scale": args.scale,
                  "n_batches": args.n_batches},
        )
    envelope = {"preset": args.preset, "workload": cfg, "reports": reports,
                "n_devices": args.n_devices, "n_batches": args.n_batches}
    return envelope, list(reports.values())


def _metric_columns(run: SweepRun):
    def cell(backend: str):
        def fmt(row) -> str:
            name, _, format_value = row
            value = run.reports[backend].metric(name)
            return format_value(value) if value == value else "-"
        return fmt

    return [("metric", lambda row: row[1])] + [(be, cell(be)) for be in run.reports]


def _reports_valid(reports, data) -> Optional[str]:
    for backend, report in reports.items():
        try:
            validate_report(report)
        except ReportValidationError as exc:
            return f"report {backend!r}: {exc}"
    return None


def _pgas_overlaps_more(reports, data) -> Optional[str]:
    if data["n_devices"] < 2 or "pgas" not in reports or "baseline" not in reports:
        return None  # one GPU has nothing to overlap: both read 0.0
    pgas, baseline = (
        reports[be]["metrics"]["overlap_fraction"]["value"] for be in ("pgas", "baseline")
    )
    if pgas > baseline:
        return None
    return (f"pgas overlap_fraction {pgas} must exceed the baseline's "
            f"{baseline} on {data['n_devices']} GPUs")


SPEC = SweepSpec(
    name="metrics",
    help="pgas-vs-baseline telemetry metrics + BENCH_metrics.json",
    args=(
        Arg("--preset", choices=PRESETS, default="weak",
            help="workload preset (weak = paper §IV-A per-GPU rule)"),
        Arg("--gpus", type=int, default=2, help="simulated GPU count",
            dest="n_devices", min=1),
        Arg("--batches", type=int, default=1, help="batches per backend",
            dest="n_batches", min=1),
        Arg("--scale", type=float, default=1.0,
            help="batch-size scale factor (1.0 = paper size)"),
        Arg("--backends", nargs="+", default=["pgas", "baseline"],
            help="backends to compare"),
        Arg("--bins", type=int, default=240,
            help="sample-grid resolution for the derived gauges", dest="n_bins", min=1),
        Arg("--series", action=argparse.BooleanOptionalAction, default=True,
            help="include per-bin gauge series in the artifact", dest="include_series"),
        Arg("--seed", type=int, default=None,
            help="workload seed override (default: preset's)"),
    ),
    run=_run,
    title=lambda run: (
        f"[telemetry: {run.preset} preset, {run.workload.num_tables} tables, "
        f"batch {run.workload.batch_size}, {run.n_devices} GPUs, "
        f"{run.n_batches} batch(es)]"
    ),
    columns=_metric_columns,
    rows=lambda run: METRIC_ROWS,
    coords=("backend",),
    artifact=Artifact(
        file="BENCH_metrics.json",
        kind="metrics",
        keys=("preset", "n_devices", "n_batches"),
        collection="reports",
        collection_type=dict,
        noun="report",
        summary="backend reports",
        error=ReportValidationError,
    ),
    point_dict=lambda report: report.as_dict(),
    collect=lambda reports: {report["backend"]: report for report in reports},
    invariants=(
        Invariant("reports-valid", _reports_valid),
        Invariant("pgas-overlaps-more", _pgas_overlaps_more),
    ),
)


def run_metrics(preset: str = "weak", **params: Any) -> SweepRun:
    """Run the telemetry comparison from library keywords.

    ``params`` are :data:`SPEC`'s argument names with the CLI defaults:
    ``n_devices``, ``n_batches``, ``scale``, ``backends``, ``n_bins``,
    ``include_series``, ``seed``.  ``run.reports`` maps each backend to
    its :class:`~repro.telemetry.RunReport`.
    """
    return SPEC.sweep(preset=preset, **params)


def validate_metrics_json(data: Any) -> None:
    """Validate a ``BENCH_metrics.json`` payload (raises ``ReportValidationError``)."""
    SPEC.validate(data)
