"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fabric-4x8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``perfbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report.  The program under test is imported from ``src/`` of the
checkout the script sits in; without it the script exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _workloads():
    from fabric import Fabric
    from serve import Serve
    from train import Train

    return {w.name: w for w in (Fabric, Train, Serve)}


WORKLOAD_NAMES = ("fabric-4x8", "train-4gpu", "serve-4gpu")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def complete_metrics(outcome, trace: bool):
    """Every catalogue metric, in catalogue order, with its unit.

    Per-layer metrics of a layer the workload does not exercise read 0.
    Raises if the workload produced a name the catalogue does not list.
    """
    from metrics import END_TO_END, PER_LAYER, UNITS

    names = [row[0] for row in (PER_LAYER if trace else END_TO_END)]
    unknown = sorted(set(outcome.metrics) - set(names))
    if unknown:
        raise RuntimeError(f"{outcome.workload} produced uncatalogued metrics {unknown}")
    if not trace:
        missing = sorted(set(names) - set(outcome.metrics))
        if missing:
            raise RuntimeError(f"{outcome.workload} did not measure {missing}")
    return {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": UNITS[name]}
        for name in names
    }


def report(outcome, metrics) -> None:
    """The readable part of the output."""
    print(f"== {outcome.workload}: {outcome.attempted} operations, {outcome.failed} failed")
    print(f"   simulated-model digest {outcome.digest}")
    for name, m in metrics.items():
        print(f"   {name:<34} {m['value']:>16.6g} {m['unit']}")
    for name, (value, unit) in sorted(outcome.table.items()):
        print(f"   {name:<34} {value:>16.6g} {unit}   (report only)")
    for note in outcome.notes:
        print(f"   {note}")
    for err in outcome.errors[:10]:
        print(f"   FAILED: {err}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from harness import layer_shares, per_call_ms

    workloads = _workloads()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    attempted = failed = 0
    merged = {}
    for name in names:
        workload = workloads[name](args.seed)
        outcome = workload.execute(args.seconds, trace, trace_dir=ROOT / ".perfbench")
        if trace:
            for layer, share in layer_shares(outcome.by_module).items():
                outcome.metrics[f"self.{layer}_pct"] = share
            outcome.metrics.setdefault(
                "core.workload.build_ms",
                per_call_ms(outcome.profiles, "core.workload", "build_device_workloads"),
            )
        metrics = complete_metrics(outcome, trace)
        report(outcome, metrics)
        attempted += outcome.attempted
        failed += outcome.failed
        merged = metrics if len(names) == 1 else {
            **merged, **{f"{name}/{k}": v for k, v in metrics.items()}}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
