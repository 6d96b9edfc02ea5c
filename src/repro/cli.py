"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``reproduce``   regenerate the paper's tables/figures (all or one id)
``report``      write the paper-vs-measured markdown report to a file
``run``         time one workload on both backends and print the phases
``sweep``       sweep a workload knob and print speedups per point
``backends``    list the registered backends with their capability flags
``plan``        capacity-aware table placement for a Criteo-like table set
``trace``       run one batch and write a chrome://tracing JSON timeline

plus one subcommand per registered :class:`~repro.bench.spec.SweepSpec`
(:func:`repro.bench.spec.sweep_specs`), generated from the spec's
argument data and run by :func:`repro.bench.spec.execute` — render the
table, write the ``BENCH_*.json`` artifact (``--output ''`` skips it) and
re-validate what was written:

``cachesweep``  hot-row cache hit rate / comm / speedup vs skew and capacity
``faultsweep``  serving SLOs (shed/degraded/p99/goodput) vs fault severity
``servesweep``  continuous-batching goodput vs in-flight depth K + BENCH_serving.json
``compsweep``   codec x backend wire/time/error grid + BENCH_compression.json
``chaossweep``  availability/goodput vs replication k x failures + BENCH_availability.json
``skewsweep``   online resharding vs static placement under skew + BENCH_reshard.json
``hiersweep``   flat vs hierarchical routing across node geometries + BENCH_hier.json
``critpath``    traced critical-path attribution + BENCH_critpath.json (and
                an optional regression gate against a committed baseline)
``metrics``     pgas-vs-baseline telemetry metrics + BENCH_metrics.json

A degenerate sweep input (an empty axis, a count below 1) is a usage
error, reported before any point runs.  The preset names the sweeps
accept resolve through :func:`repro.core.runspec.preset_runspec`, so the
CLI and the library see identical workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .bench.runner import EXPERIMENT_IDS, ExperimentRunner
from .bench.spec import (
    WORKLOAD_ARGS,
    SweepInputError,
    execute,
    sweep_specs,
    workload_from_args,
)
from .bench.sweeps import batch_size_sweep, pooling_sweep, table_count_sweep
from .core.factory import parse_backend_name
from .core.planner import plan_table_wise
from .core.retrieval import DistributedEmbedding, available_backends, backend_spec
from .dlrm.data import SyntheticDataGenerator
from .dlrm.heterogeneous import criteo_like
from .simgpu.device import V100_SPEC
from .simgpu.trace import summarize_spans, write_chrome_trace
from .simgpu.units import to_ms

__all__ = ["main", "build_parser"]


def _workload_args(p: argparse.ArgumentParser) -> None:
    for arg in WORKLOAD_ARGS:
        arg.add_to(p)


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    ap = argparse.ArgumentParser(
        prog="repro",
        description="PGAS-style multi-GPU embedding retrieval (SC'24 reproduction)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("reproduce", help="regenerate the paper's tables and figures")
    rp.add_argument("--batches", type=int, default=10, help="batches per measurement")
    rp.add_argument("--scale", type=float, default=1.0, help="batch-size scale factor")
    rp.add_argument("--only", choices=EXPERIMENT_IDS, default=None)

    rn = sub.add_parser("run", help="time one workload on both backends")
    _workload_args(rn)
    rn.add_argument("--batches", type=int, default=1)

    sw = sub.add_parser("sweep", help="sweep one workload knob")
    _workload_args(sw)
    sw.add_argument("knob", choices=("batch_size", "max_pooling", "num_tables"))
    sw.add_argument("values", type=float, nargs="+", help="knob values to sweep")

    sweeps = sweep_specs()
    metrics = sweeps.pop("metrics")  # listed last in the help, after ``trace``
    for spec in sweeps.values():
        spec.add_parser(sub)

    sub.add_parser("backends",
                   help="list registered backends and their capability flags")

    pl = sub.add_parser("plan", help="capacity-aware table placement")
    pl.add_argument("--criteo-tables", type=int, default=26)
    pl.add_argument("--dim", type=int, default=64)
    pl.add_argument("--gpus", type=int, default=None,
                    help="force a device count (default: minimal feasible)")
    pl.add_argument("--reserve", type=float, default=0.1,
                    help="HBM fraction reserved for activations")
    pl.add_argument("--seed", type=int, default=7)

    rm = sub.add_parser("report", help="write the markdown reproduction report")
    rm.add_argument("--batches", type=int, default=10)
    rm.add_argument("--scale", type=float, default=1.0)
    rm.add_argument("--output", default="REPORT.md")

    tr = sub.add_parser("trace", help="write a chrome://tracing timeline of one batch")
    _workload_args(tr)
    tr.add_argument("--backend", choices=tuple(available_backends()), default="pgas")
    tr.add_argument("--zipf", type=float, default=None,
                    help="zipf skew for the traced batch (cached backends profit)")
    tr.add_argument("--output", default="repro_trace.json")
    tr.add_argument("--counters", action=argparse.BooleanOptionalAction, default=True,
                    help="include raw counter tracks (--no-counters for spans only)")
    tr.add_argument("--telemetry", action="store_true",
                    help="also export derived telemetry.* gauge tracks")

    metrics.add_parser(sub)
    return ap


def _cmd_reproduce(args: argparse.Namespace) -> int:
    runner = ExperimentRunner(n_batches=args.batches, scale=args.scale)
    ids = [args.only] if args.only else list(EXPERIMENT_IDS)
    for eid in ids:
        print(f"== {eid} ==")
        print(runner.render(eid))
        print()
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = workload_from_args(args)
    gen = SyntheticDataGenerator(cfg)
    batches = [gen.lengths_batch() for _ in range(args.batches)]
    print(f"workload: {cfg.num_tables} tables x {cfg.rows_per_table} x d{cfg.dim}, "
          f"batch {cfg.batch_size}, pooling <= {cfg.max_pooling}, {args.gpus} GPUs, "
          f"{args.batches} batches")
    from .core.baseline import PhaseTiming

    results = {}
    for backend in ("baseline", "pgas"):
        emb = DistributedEmbedding(cfg, args.gpus, backend=backend)  # type: ignore[arg-type]
        total = PhaseTiming()
        for lengths in batches:
            total.add(emb.forward_timed(lengths))
        results[backend] = total
        print(f"  {backend:9s} total {to_ms(total.total_ns):9.3f} ms  "
              f"(compute {to_ms(total.compute_ns):.3f} / comm {to_ms(total.comm_ns):.3f} "
              f"/ sync+unpack {to_ms(total.sync_unpack_ns):.3f})")
    speedup = results["baseline"].total_ns / results["pgas"].total_ns
    print(f"  PGAS speedup: {speedup:.2f}x")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = workload_from_args(args)
    factory = {
        "batch_size": batch_size_sweep,
        "max_pooling": pooling_sweep,
        "num_tables": table_count_sweep,
    }[args.knob]
    sweep = factory(cfg, n_devices=args.gpus)
    print(sweep.run(args.values).render())
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    workload = criteo_like(num_tables=args.criteo_tables, dim=args.dim, seed=args.seed)
    report = plan_table_wise(
        workload.table_configs(),
        n_devices=args.gpus,
        device_spec=V100_SPEC,
        reserve_fraction=args.reserve,
    )
    print(report.summary())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .bench.report_md import build_report

    runner = ExperimentRunner(n_batches=args.batches, scale=args.scale)
    text = build_report(runner)
    with open(args.output, "w") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines, "
          f"{args.batches} batches at scale {args.scale:g})")
    return 0


def _cmd_backends(args: argparse.Namespace) -> int:
    from .bench.reporting import format_table

    rows = []
    for info in available_backends():
        base, features = parse_backend_name(info)
        flags = [base, *features]
        if info.requires_indices:
            flags.append("indices")
        if info.traceable:
            flags.append("traceable")
        if not info.functional:
            flags.append("timed-only")
        rows.append([str(info), "+".join(flags), info.description])
    print(format_table(["backend", "flags", "description"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cfg = workload_from_args(args)
    if args.zipf is not None:
        cfg = dataclasses.replace(cfg, index_distribution="zipf", zipf_alpha=args.zipf)
    emb = DistributedEmbedding(cfg, args.gpus, backend=args.backend)
    gen = SyntheticDataGenerator(cfg)
    if backend_spec(args.backend).requires_indices:
        t = emb.forward(gen.sparse_batch()).timing
    else:
        t = emb.forward_timed(gen.lengths_batch())
    if args.telemetry:
        from .telemetry import write_chrome_trace_with_telemetry

        write_chrome_trace_with_telemetry(
            emb.cluster.profiler, args.output,
            n_devices=args.gpus, counters=args.counters,
        )
    else:
        write_chrome_trace(emb.cluster.profiler, args.output, counters=args.counters)
    print(f"simulated {to_ms(t.total_ns):.3f} ms ({args.backend}, {args.gpus} GPUs)")
    print(summarize_spans(emb.cluster.profiler))
    print(f"trace written to {args.output} (open in chrome://tracing; "
          f"fault windows appear as instant events)")
    return 0


_COMMANDS = {
    "reproduce": _cmd_reproduce,
    "report": _cmd_report,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "backends": _cmd_backends,
    "plan": _cmd_plan,
    "trace": _cmd_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = sweep_specs().get(args.command)
    if spec is None:
        return _COMMANDS[args.command](args)
    try:
        return execute(spec, args)
    except SweepInputError as exc:
        parser.error(str(exc))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
