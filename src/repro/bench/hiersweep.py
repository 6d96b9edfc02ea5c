"""Hierarchy sweep: flat vs. topology-aware routing across node geometries.

For each (base backend, nodes, devices-per-node, message size) grid point
the sweep runs the *same* batch stream twice on identical fresh
multi-node clusters — once flat, once through the ``"+hier"`` backend —
and records wall time, inter-node NIC message counts and wire bytes, and
the ``hier.*`` staging counters.  Functional outputs are bit-identical by
construction (routing changes timing only), so the artifact compares the
communication schedules and nothing else.

``message_rate_bound`` marks the points where the NIC's per-message
descriptor cost dominates its wire time *even against flat routing's
``dpn²``-way parallel point-to-point streams*:

    ``per_message_ns >= dpn² * message_wire_bytes / nic_bandwidth``

Flat routing spreads one node pair's traffic over ``dpn²`` simulated
links, shrinking aggregate wire time per message by ``dpn²``, while the
descriptor cost does not parallelize away — so when the inequality holds
the message count is what the NIC is selling, and coalescing must win.
(The baseline's derated chunks carry a 512-byte header plus the ~5.3×
efficiency charge as wire, so the predicate is effectively never true for
it on this fabric; the PGAS points at small message sizes are where the
bound bites.)

The artifact is ``BENCH_hier.json``; :data:`SPEC`'s invariants are the
self-check, enforcing what the artifact exists to witness: hierarchical routing never increases the inter-node message
count (strictly lowers it whenever more than one GPU per node sends
off-node), degenerate geometries (``devices_per_node == 1`` or a single
node) recover flat routing exactly, and every message-rate-bound point
shows a wall-time win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

from ..comm.collective import CollectiveSpec
from ..comm.hier import HierSpec, inter_node_message_count, inter_node_wire_bytes
from ..comm.pgas import PGASSpec
from ..core.factory import build_backend
from ..core.runspec import PRESETS, RunSpec
from ..dlrm.data import SyntheticDataGenerator
from ..simgpu.cluster import multinode
from ..simgpu.interconnect import NIC_SPEC
from ..simgpu.units import to_ms
from .spec import Arg, Artifact, SweepRun, SweepSpec, payload, preset_workload, rule

__all__ = [
    "HierSweepPoint",
    "SPEC",
    "run_hiersweep",
    "validate_hiersweep_json",
]

_BASES = ("pgas", "baseline")


def _message_wire_bytes(base: str, message_bytes: int,
                        collective: CollectiveSpec, pgas: PGASSpec) -> float:
    """Wire bytes one flat inter-node message carries, headers included.

    The baseline charges its protocol inefficiency as extra header on the
    wire, so a chunk of ``message_bytes`` costs ``message_bytes /
    bandwidth_efficiency + per_chunk_header_bytes``; a PGAS put message
    costs its payload plus the fixed put header.
    """
    if base == "baseline":
        extra = int(message_bytes * (1.0 / collective.bandwidth_efficiency - 1.0))
        return float(message_bytes + extra + collective.per_chunk_header_bytes)
    return float(message_bytes + pgas.header_bytes)


def _rate_bound(point: Dict[str, Any]) -> bool:
    """The message-rate-bound predicate, from a point's own fields."""
    dpn = point["devices_per_node"]
    if point["n_nodes"] <= 1 or dpn <= 1:
        return False
    wire_time = dpn * dpn * point["message_wire_bytes"] / point["nic_bandwidth"]
    return point["nic_per_message_ns"] >= wire_time


@dataclass(frozen=True)
class HierSweepPoint:
    """One (backend, geometry, message size) flat-vs-hier measurement."""

    backend: str  #: base backend ("pgas" or "baseline")
    n_nodes: int
    devices_per_node: int
    message_bytes: int  #: PGAS put message size / collective chunk size
    n_batches: int
    flat_total_ns: float
    hier_total_ns: float
    flat_inter_messages: int  #: NIC messages, flat routing
    hier_inter_messages: int  #: NIC messages, hierarchical routing
    flat_inter_bytes: float
    hier_inter_bytes: float
    hier_nic_transfers: float  #: coalesced leader->leader transfers
    hier_fwd_bytes: float  #: intra-node gather/forward traffic
    hier_scatter_bytes: float  #: far-side leader->destination traffic
    nic_bandwidth: float  #: bytes/ns of the inter-node links
    nic_per_message_ns: float  #: per-message descriptor cost
    message_wire_bytes: float  #: wire bytes of one flat NIC message
    message_rate_bound: bool

    @property
    def speedup(self) -> float:
        """Flat wall time over hierarchical wall time (> 1 = hier wins)."""
        return self.flat_total_ns / self.hier_total_ns

    @property
    def message_reduction(self) -> float:
        """Fractional drop in inter-node NIC messages (0 = none)."""
        if self.flat_inter_messages <= 0:
            return 0.0
        return 1.0 - self.hier_inter_messages / self.flat_inter_messages


def _run(args: Any):
    """Measure every (backend, geometry, message size) grid point.

    Each point builds two embeddings on identical fresh
    :func:`~repro.simgpu.cluster.multinode` clusters and replays the same
    re-seeded batch stream through each, so the flat and hierarchical
    columns compare the communication schedule and nothing else.
    ``message_sizes`` maps to ``PGASSpec(message_bytes=...)`` for the
    PGAS base and ``CollectiveSpec(chunk_bytes=...)`` for the baseline.
    """
    for base in args.bases:
        if base not in _BASES:
            raise ValueError(f"unknown base backend {base!r}")
    n_batches = args.n_batches

    points = []
    for base in args.bases:
        for n_nodes in args.nodes:
            for dpn in args.devices_per_node:
                n_devices = n_nodes * dpn
                if n_devices < 2:
                    continue  # a 1x1 system has no communication at all
                cfg = preset_workload(
                    args.preset, n_devices, seed=args.seed, scale=args.scale
                )
                for msg in args.message_sizes:
                    collective = CollectiveSpec(chunk_bytes=msg)
                    pgas = PGASSpec(message_bytes=msg)
                    totals = {}
                    traffic = {}
                    hier_counters: Dict[str, float] = {}
                    for mode in ("flat", "hier"):
                        backend = base if mode == "flat" else f"{base}+hier"
                        runspec = RunSpec(
                            cfg,
                            n_devices=n_devices,
                            backend=backend,
                            hier=(HierSpec(devices_per_node=dpn)
                                  if mode == "hier" else None),
                        )
                        emb = build_backend(
                            runspec,
                            cluster=multinode(n_nodes, dpn),
                            collective_spec=collective,
                            pgas_spec=pgas,
                        )
                        gen = SyntheticDataGenerator(cfg)
                        total = 0.0
                        for _ in range(n_batches):
                            total += emb.forward_timed(
                                gen.lengths_batch()
                            ).total_ns
                        totals[mode] = total
                        traffic[mode] = (
                            inter_node_message_count(
                                emb.cluster.interconnect, dpn
                            ),
                            inter_node_wire_bytes(
                                emb.cluster.interconnect, dpn
                            ),
                        )
                        if mode == "hier":
                            counters = emb.cluster.profiler.counters
                            hier_counters = {
                                name: float(c.total)
                                for name, c in counters.items()
                                if name.startswith("hier.")
                            }
                    wire = _message_wire_bytes(base, msg, collective, pgas)
                    point_fields = {
                        "backend": base,
                        "n_nodes": n_nodes,
                        "devices_per_node": dpn,
                        "message_bytes": msg,
                        "n_batches": n_batches,
                        "flat_total_ns": totals["flat"],
                        "hier_total_ns": totals["hier"],
                        "flat_inter_messages": traffic["flat"][0],
                        "hier_inter_messages": traffic["hier"][0],
                        "flat_inter_bytes": traffic["flat"][1],
                        "hier_inter_bytes": traffic["hier"][1],
                        "hier_nic_transfers": hier_counters.get(
                            "hier.nic_transfers", 0.0
                        ),
                        "hier_fwd_bytes": hier_counters.get(
                            "hier.fwd_bytes", 0.0
                        ),
                        "hier_scatter_bytes": hier_counters.get(
                            "hier.scatter_bytes", 0.0
                        ),
                        "nic_bandwidth": NIC_SPEC.bandwidth,
                        "nic_per_message_ns": NIC_SPEC.per_message_ns,
                        "message_wire_bytes": wire,
                    }
                    point_fields["message_rate_bound"] = _rate_bound(
                        point_fields
                    )
                    points.append(HierSweepPoint(**point_fields))
    envelope = {"preset": args.preset, "n_batches": n_batches, "scale": args.scale}
    return envelope, points


def _active(p: Dict[str, Any]) -> bool:
    """More than one GPU per node sends off-node: the hierarchy has work."""
    return p["n_nodes"] > 1 and p["devices_per_node"] > 1


def _positive_timing(key: str):
    return rule(f"positive-{key}",
                lambda p, d: math.isfinite(p[key]) and p[key] > 0,
                "{label}: degenerate timing in " + repr(key))


def _non_negative(key: str):
    return rule(f"non-negative-{key}", lambda p, d: p[key] >= 0,
                "{label}: negative traffic in " + repr(key))


SPEC = SweepSpec(
    name="hiersweep",
    help="flat vs hierarchical routing sweep + BENCH_hier.json",
    args=(
        Arg("--preset", choices=PRESETS, default="tiny",
            help="workload preset (resolved via preset_runspec)"),
        Arg("--bases", nargs="+", default=["pgas", "baseline"],
            help="base backends to route (pgas / baseline)"),
        Arg("--nodes", type=int, nargs="+", default=[1, 2, 3],
            help="simulated node counts", min=1),
        Arg("--gpus-per-node", type=int, nargs="+", default=[1, 2, 4],
            help="simulated GPUs per node", dest="devices_per_node", min=1),
        Arg("--message-bytes", type=int, nargs="+", default=[32, 256, 4096],
            help="PGAS message size / collective chunk size per point",
            dest="message_sizes", min=1),
        Arg("--batches", type=int, default=2, help="batches per point",
            dest="n_batches", min=1),
        Arg("--scale", type=float, default=1.0,
            help="batch-size scale factor (1.0 = preset size)"),
        Arg("--seed", type=int, default=None,
            help="workload seed override (default: preset's)"),
    ),
    run=_run,
    title=lambda run: (
        f"[hier sweep: {run.preset} preset, {run.n_batches} batches/point]"
    ),
    columns=(
        ("backend", lambda p: p.backend),
        ("nodes", lambda p: f"{p.n_nodes}x{p.devices_per_node}"),
        ("msg (B)", lambda p: f"{p.message_bytes}"),
        ("flat (ms)", lambda p: f"{to_ms(p.flat_total_ns):.3f}"),
        ("hier (ms)", lambda p: f"{to_ms(p.hier_total_ns):.3f}"),
        ("speedup", lambda p: f"{p.speedup:.3f}x"),
        ("flat msgs", lambda p: f"{p.flat_inter_messages}"),
        ("hier msgs", lambda p: f"{p.hier_inter_messages}"),
        ("reduction", lambda p: f"{100.0 * p.message_reduction:.1f}%"),
        ("rate-bound", lambda p: "yes" if p.message_rate_bound else "-"),
    ),
    coords=("backend", "n_nodes", "devices_per_node", "message_bytes"),
    artifact=Artifact(
        file="BENCH_hier.json",
        kind="hier",
        keys=("preset", "n_batches", "scale"),
        point_keys=(
            "backend", "n_nodes", "devices_per_node", "message_bytes", "n_batches",
            "flat_total_ns", "hier_total_ns", "flat_inter_messages",
            "hier_inter_messages", "flat_inter_bytes", "hier_inter_bytes",
            "hier_nic_transfers", "hier_fwd_bytes", "hier_scatter_bytes",
            "nic_bandwidth", "nic_per_message_ns", "message_wire_bytes",
            "message_rate_bound", "speedup", "message_reduction",
        ),
        label="point {i} ({backend}, {n_nodes}x{devices_per_node}, msg={message_bytes})",
    ),
    point_dict=payload("speedup", "message_reduction"),
    invariants=(
        rule("known-base", lambda p, d: p["backend"] in _BASES,
             "{label}: unknown base backend"),
        _positive_timing("flat_total_ns"),
        _positive_timing("hier_total_ns"),
        _non_negative("flat_inter_messages"),
        _non_negative("hier_inter_messages"),
        _non_negative("flat_inter_bytes"),
        _non_negative("hier_inter_bytes"),
        rule("messages-never-increase",
             lambda p, d: p["hier_inter_messages"] <= p["flat_inter_messages"],
             "{label}: hierarchy increased inter-node messages "
             "({flat_inter_messages} -> {hier_inter_messages})"),
        rule("bytes-never-increase",
             lambda p, d: p["hier_inter_bytes"] <= p["flat_inter_bytes"],
             "{label}: hierarchy increased inter-node wire bytes"),
        rule("active-strict-reduction",
             lambda p, d: not _active(p)
             or p["hier_inter_messages"] < p["flat_inter_messages"],
             "{label}: expected a strict inter-node message "
             "reduction with {devices_per_node} GPUs/node"),
        rule("active-coalesces",
             lambda p, d: not _active(p) or p["hier_nic_transfers"] > 0,
             "{label}: no coalesced NIC transfers ran"),
        # Degenerate geometry: the hierarchy must be a perfect no-op.
        rule("degenerate-same-wall",
             lambda p, d: _active(p) or p["hier_total_ns"] == p["flat_total_ns"],
             "{label}: degenerate geometry changed wall time "
             "({flat_total_ns} != {hier_total_ns})"),
        rule("degenerate-same-traffic",
             lambda p, d: _active(p)
             or p["hier_inter_messages"] == p["flat_inter_messages"],
             "{label}: degenerate geometry changed NIC traffic"),
        rule("degenerate-no-staging",
             lambda p, d: _active(p)
             or not (p["hier_nic_transfers"] or p["hier_fwd_bytes"]),
             "{label}: degenerate geometry staged traffic"),
        rule("single-node-no-nic",
             lambda p, d: p["n_nodes"] > 1
             or not (p["flat_inter_messages"] or p["flat_inter_bytes"]),
             "{label}: single node carried NIC traffic"),
        rule("rate-bound-flag",
             lambda p, d: bool(p["message_rate_bound"]) == _rate_bound(p),
             "{label}: message_rate_bound flag does not match the "
             "predicate recomputed from the point's NIC parameters"),
        rule("rate-bound-wins",
             lambda p, d: not _rate_bound(p) or p["hier_total_ns"] < p["flat_total_ns"],
             "{label}: message-rate-bound point shows no wall-time win "
             "({flat_total_ns} -> {hier_total_ns})"),
    ),
)


def run_hiersweep(preset: str = "tiny", **params: Any) -> SweepRun:
    """Run the hierarchy sweep from library keywords.

    ``params`` are :data:`SPEC`'s argument names with the CLI defaults:
    ``bases``, ``nodes``, ``devices_per_node``, ``message_sizes``,
    ``n_batches``, ``scale``, ``seed``.
    """
    return SPEC.sweep(preset=preset, **params)


def validate_hiersweep_json(data: Any) -> None:
    """Validate a ``BENCH_hier.json`` payload (raises ``ValueError``)."""
    SPEC.validate(data)
