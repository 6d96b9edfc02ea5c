"""Compression sweep: codec × backend × batch size wire/time/error grid.

For each grid point the sweep builds a fresh ``<base>+compress``
:class:`~repro.core.retrieval.DistributedEmbedding` (its own cluster, so
profiler counters never mix), replays the *identical* synthetic batch
stream through the timed path, and records:

* **bytes** — exact remote payload before/after the codec (from
  :meth:`~repro.compress.CompressedRetrieval.wire_bytes_for`) and the
  resulting compression ratio;
* **time** — the phase breakdown plus the modelled encode/decode kernel
  time (``compress.encode_ns`` / ``compress.decode_ns`` counters);
* **error** — a measured codec round-trip on synthetic pooled vectors
  (:func:`~repro.compress.roundtrip_error_report`): ``max_abs_error``,
  ``rmse``, the per-row bound, and whether the measurement respects it.

The artifact is ``BENCH_compression.json``; :data:`SPEC`'s invariants
are the self-check — the physical invariants (wire ≤ uncompressed, fp32
exact and byte-identical, every point within its error bound, ``int8``
beating ``fp32`` on wire bytes and on baseline comm time wherever both
ran).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..compress import CODEC_NAMES, CompressionSpec, make_codec, roundtrip_error_report
from ..core.baseline import PhaseTiming
from ..core.factory import FeatureSpec
from ..core.retrieval import DistributedEmbedding
from ..core.runspec import PRESETS
from ..dlrm.data import SyntheticDataGenerator
from ..simgpu.units import to_ms, us
from .spec import Arg, Artifact, Invariant, SweepRun, SweepSpec, payload, preset_workload, rule

__all__ = [
    "CompSweepPoint",
    "SPEC",
    "run_comp_sweep",
    "validate_compsweep_json",
]


@dataclass(frozen=True)
class CompSweepPoint:
    """One (codec, backend, batch size) measurement."""

    codec: str
    backend: str  #: base backend the "+compress" wrapper fronted
    batch_size: int
    n_batches: int
    total_ns: float
    compute_ns: float
    comm_ns: float
    sync_unpack_ns: float
    encode_ns: float
    decode_ns: float
    wire_bytes: float
    uncompressed_bytes: float
    max_abs_error: float
    rmse: float
    error_bound: float
    within_bound: bool

    @property
    def compression_ratio(self) -> float:
        """Uncompressed / on-wire remote payload bytes."""
        if self.wire_bytes <= 0:
            return 1.0
        return self.uncompressed_bytes / self.wire_bytes


def _run(args: Any):
    """Measure every (codec, base backend, batch size) grid point.

    Every point gets a fresh embedding (its own cluster) but an identical
    batch stream — the grid coordinates are the only thing changing
    between rows.  The timed path never materialises weights, so the
    ``strong`` preset's paper-scale tables run fine; quantisation error is
    measured separately on ``error_rows`` synthetic pooled vectors per
    codec (real encode/decode, zero rows for fp32).
    """
    for base in args.bases:
        if base not in ("pgas", "baseline"):
            raise ValueError(f"unknown base backend {base!r}")
    n_devices = args.n_devices
    base_cfg = preset_workload(args.preset, n_devices, seed=args.seed, scale=args.scale)
    sizes = list(args.batch_sizes) if args.batch_sizes else [base_cfg.batch_size]

    # Measured round-trip error per codec on synthetic pooled vectors with
    # per-row magnitudes spread over two decades (absmax-scaled codecs see
    # heterogeneous rows, not one flat scale).
    rng = np.random.default_rng(base_cfg.seed)
    rows = (
        rng.standard_normal((args.error_rows, base_cfg.dim))
        * rng.uniform(0.01, 1.0, size=(args.error_rows, 1))
    ).astype(np.float32)
    error_reports = {
        codec: roundtrip_error_report(make_codec(codec), rows) for codec in args.codecs
    }

    points = []
    for bs in sizes:
        cfg = base_cfg.with_batch_size(bs) if bs != base_cfg.batch_size else base_cfg
        for base in args.bases:
            for codec in args.codecs:
                emb = DistributedEmbedding(
                    cfg,
                    n_devices,
                    backend=f"{base}+compress",
                    features=FeatureSpec(compression=CompressionSpec(codec=codec)),
                )
                adapter = emb.backend_adapter(f"{base}+compress")
                gen = SyntheticDataGenerator(cfg)
                total = PhaseTiming()
                raw_bytes = 0.0
                wire_bytes = 0.0
                for _ in range(args.n_batches):
                    workloads = emb.build_workloads(gen.lengths_batch())
                    raw, wire = adapter.wire_bytes_for(workloads)
                    raw_bytes += raw
                    wire_bytes += wire
                    total.add(adapter.run_timed(workloads))
                counters = emb.cluster.profiler.counters

                def counter_total(name: str) -> float:
                    c = counters.get(name)
                    return float(c.total) if c is not None else 0.0

                err = error_reports[codec]
                points.append(
                    CompSweepPoint(
                        codec=codec,
                        backend=base,
                        batch_size=cfg.batch_size,
                        n_batches=args.n_batches,
                        total_ns=total.total_ns,
                        compute_ns=total.compute_ns,
                        comm_ns=total.comm_ns,
                        sync_unpack_ns=total.sync_unpack_ns,
                        encode_ns=counter_total("compress.encode_ns"),
                        decode_ns=counter_total("compress.decode_ns"),
                        wire_bytes=wire_bytes,
                        uncompressed_bytes=raw_bytes,
                        max_abs_error=err["max_abs_error"],
                        rmse=err["rmse"],
                        error_bound=err["error_bound"],
                        within_bound=err["within_bound"],
                    )
                )
    envelope = {"preset": args.preset, "n_devices": n_devices,
                "n_batches": args.n_batches}
    return envelope, points


def _int8_beats_fp32(points, data) -> Optional[str]:
    groups: Dict[tuple, Dict[str, Dict[str, Any]]] = {}
    for point in points:
        groups.setdefault((point["backend"], point["batch_size"]), {})[
            point["codec"]
        ] = point
    for (backend, batch), by_codec in groups.items():
        fp32 = by_codec.get("fp32")
        int8 = by_codec.get("int8")
        if fp32 is None or int8 is None:
            continue
        if not int8["wire_bytes"] < fp32["wire_bytes"]:
            return f"({backend}, B={batch}): int8 wire bytes must undercut fp32"
        if backend == "baseline" and fp32["comm_ns"] > 0:
            if not int8["comm_ns"] < fp32["comm_ns"]:
                return (
                    f"({backend}, B={batch}): int8 must shrink the modelled "
                    f"all-to-all time"
                )
    return None


def _ratio_matches(p, data) -> bool:
    if p["wire_bytes"] <= 0:
        return True
    expect = p["uncompressed_bytes"] / p["wire_bytes"]
    return abs(p["compression_ratio"] - expect) <= 1e-6 * expect


SPEC = SweepSpec(
    name="compsweep",
    help="codec x backend compression sweep + BENCH_compression.json",
    args=(
        Arg("--preset", choices=PRESETS, default="tiny",
            help="workload preset (resolved via preset_runspec)"),
        Arg("--gpus", type=int, default=2, help="simulated GPU count",
            dest="n_devices", min=1),
        Arg("--codecs", nargs="+", choices=CODEC_NAMES,
            default=list(CODEC_NAMES), help="wire codecs to measure"),
        Arg("--backends", nargs="+", choices=("pgas", "baseline"),
            default=["pgas", "baseline"], help="base backends to wrap", dest="bases"),
        Arg("--batches", type=int, default=2, help="batches per point",
            dest="n_batches", min=1),
        Arg("--batch-sizes", type=int, nargs="+", default=None,
            help="batch sizes to sweep (default: the preset's)", min=1),
        Arg("--scale", type=float, default=1.0,
            help="batch-size scale factor (1.0 = preset size)"),
        Arg("--error-rows", type=int, default=512,
            help="synthetic vectors per codec for the error measurement", min=1),
        Arg("--seed", type=int, default=None,
            help="workload seed override (default: preset's)"),
    ),
    run=_run,
    title=lambda run: (
        f"[compression sweep: {run.preset} preset, {run.n_devices} GPUs, "
        f"{run.n_batches} batches/point]"
    ),
    columns=(
        ("codec", lambda p: p.codec),
        ("backend", lambda p: p.backend),
        ("batch", lambda p: f"{p.batch_size}"),
        ("total (ms)", lambda p: f"{to_ms(p.total_ns):.3f}"),
        ("compute", lambda p: f"{to_ms(p.compute_ns):.3f}"),
        ("comm", lambda p: f"{to_ms(p.comm_ns):.3f}"),
        ("sync+unpack", lambda p: f"{to_ms(p.sync_unpack_ns):.3f}"),
        ("enc (us)", lambda p: f"{p.encode_ns / us:.1f}"),
        ("dec (us)", lambda p: f"{p.decode_ns / us:.1f}"),
        ("wire (MB)", lambda p: f"{p.wire_bytes / 1e6:.3f}"),
        ("ratio", lambda p: f"{p.compression_ratio:.2f}x"),
        ("max err", lambda p: f"{p.max_abs_error:.2e}" if p.codec != "fp32" else "exact"),
    ),
    coords=("codec", "backend", "batch_size"),
    artifact=Artifact(
        file="BENCH_compression.json",
        kind="compression",
        keys=("preset", "n_devices", "n_batches"),
        point_keys=(
            "codec", "backend", "batch_size", "n_batches", "total_ns", "compute_ns",
            "comm_ns", "sync_unpack_ns", "encode_ns", "decode_ns", "wire_bytes",
            "uncompressed_bytes", "compression_ratio", "max_abs_error", "rmse",
            "error_bound", "within_bound",
        ),
    ),
    point_dict=payload("compression_ratio"),
    invariants=(
        rule("within-error-bound", lambda p, d: p["within_bound"],
             "{label} ({codec}, {backend}): measured error {max_abs_error} "
             "exceeds the codec bound"),
        rule("wire-not-above-raw",
             lambda p, d: p["wire_bytes"] <= p["uncompressed_bytes"],
             "{label}: wire bytes exceed the uncompressed payload"),
        rule("fp32-wire-identical",
             lambda p, d: p["codec"] != "fp32"
             or p["wire_bytes"] == p["uncompressed_bytes"],
             "{label}: fp32 must be wire-identical"),
        rule("fp32-exact",
             lambda p, d: p["codec"] != "fp32" or p["max_abs_error"] == 0.0,
             "{label}: fp32 must be exact"),
        rule("ratio-matches-bytes", _ratio_matches,
             "{label}: compression_ratio disagrees with its byte counts"),
        Invariant("int8-beats-fp32", _int8_beats_fp32),
    ),
)


def run_comp_sweep(preset: str = "tiny", **params: Any) -> SweepRun:
    """Run the compression sweep from library keywords.

    ``params`` are :data:`SPEC`'s argument names with the CLI defaults:
    ``n_devices``, ``codecs``, ``bases``, ``n_batches``, ``batch_sizes``,
    ``scale``, ``error_rows``, ``seed``.
    """
    return SPEC.sweep(preset=preset, **params)


def validate_compsweep_json(data: Any) -> None:
    """Validate a ``BENCH_compression.json`` payload (raises ``ValueError``)."""
    SPEC.validate(data)
